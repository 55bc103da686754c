"""Algorithm 3 — the MaxSubGraph-Greedy (MaxSG) heuristic.

MaxSG is the paper's practical selection algorithm: ``O(k(|V| + |E|))``
while giving up less than 0.5 % coverage versus the Algorithm-2
approximation.  Each iteration adds the vertex that maximizes the size of
the largest connected subgraph dominated by the broker set — equivalently,
it grows a single connected *dominated region* and greedily maximizes the
region's growth.

Keeping the region connected is not cosmetic: it is exactly what makes the
output a feasible MCBG solution.  Every new broker ``w`` is chosen within
distance two of the current region, so ``w`` reaches an existing broker by
a path of length <= 2 whose interior vertex (if any) is covered — i.e. the
broker set stays connected **inside the dominated graph**, and therefore
every covered pair has a B-dominating path (see
:func:`repro.core.domination.brokers_mutually_connected`).

Implementation notes: :func:`grow_connected` is the loop, shared with
:func:`repro.core.weighted.weighted_maxsg`.  Candidate vertices live in a
lazily re-evaluated max-heap keyed by marginal gain (submodularity makes
cached gains upper bounds); the candidate pool is widened as the region
grows.  The first broker defaults to the maximum-degree vertex — the
paper's step 1 ("select a vertex") leaves the seed free, and the ablation
benchmark ``benchmarks/test_ablation_maxsg_seed.py`` quantifies the choice.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from repro.core.engine import DominationEngine
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.obs import add_counter, get_tracer, observe_many, profiled
from repro.utils.rng import SeedLike, ensure_rng


@profiled("kernel.maxsg")
def maxsg(
    graph: ASGraph,
    budget: int,
    *,
    seed_vertex: int | None = None,
    rng_seed: SeedLike = None,
    random_seed_vertex: bool = False,
) -> list[int]:
    """Run MaxSubGraph-Greedy and return brokers in selection order.

    Parameters
    ----------
    budget:
        Maximum broker-set size ``k``.  The algorithm stops early once the
        dominated region covers every vertex reachable from the seed.
    seed_vertex:
        Explicit first broker.  Defaults to the global maximum-degree
        vertex (ties to the smallest id); ``random_seed_vertex=True``
        samples it uniformly instead (ablation A-seed).
    """
    n = graph.num_nodes
    if budget < 1:
        raise AlgorithmError(f"budget must be >= 1, got {budget}")
    if budget > n:
        raise AlgorithmError(f"budget {budget} exceeds |V| = {n}")

    if seed_vertex is None:
        if random_seed_vertex:
            seed_vertex = int(ensure_rng(rng_seed).integers(n))
        else:
            seed_vertex = int(np.argmax(graph.degrees()))
    elif not 0 <= seed_vertex < n:
        raise AlgorithmError(f"seed vertex {seed_vertex} out of range")

    engine = DominationEngine(graph)
    return grow_connected(engine, seed_vertex, budget, engine.marginal_gain)


def grow_connected(
    engine: DominationEngine,
    seed_vertex: int,
    budget: int,
    gain: Callable[[int], float],
) -> list[int]:
    """The MaxSG loop: grow one connected dominated region from ``seed_vertex``.

    Each later round adds the vertex within distance two of the region
    with the largest ``gain(v)`` (ties to the smallest id), until
    ``budget`` brokers are chosen or no candidate gains anything.
    """
    graph = engine.graph
    tracer = get_tracer()
    evaluations = 0
    repops = 0
    # seen[v]: v has been a broker or a candidate.  Each vertex enters the
    # heap from the frontier at most once, so a popped vertex is never a
    # broker already.
    seen = np.zeros(engine.num_nodes, dtype=bool)
    # stale_round[v] = selection round in which v's cached gain was computed.
    stale_round = np.full(engine.num_nodes, -1, dtype=np.int64)
    heap: list[tuple[float, int]] = []
    chosen: list[int] = []
    frontier_sizes: list[int] = []

    def add_broker(v: int, round_no: int) -> None:
        nonlocal evaluations
        with tracer.span("maxsg.round", round=round_no, vertex=v) as span:
            # The engine reports the newly covered vertices directly —
            # no covered-mask snapshot/diff per round.
            newly_covered = engine.add_broker(v)
            seen[v] = True
            chosen.append(v)
            # Candidate pool: the newly covered vertices and their neighbours —
            # everything now within distance two of a broker.
            frontier = set(int(x) for x in newly_covered)
            for u in newly_covered:
                frontier.update(int(x) for x in graph.neighbors(int(u)))
            frontier_sizes.append(len(frontier))
            for c in frontier:
                if seen[c]:
                    continue
                seen[c] = True
                evaluations += 1
                value = gain(c)
                # A zero-gain vertex could only become useful if gains grew,
                # which submodularity forbids — drop it permanently.
                if value > 0:
                    stale_round[c] = round_no
                    heapq.heappush(heap, (-value, c))
            span.set(gain=len(newly_covered), frontier=len(frontier))

    add_broker(seed_vertex, 0)
    round_no = 1
    while len(chosen) < budget and heap:
        neg_gain, v = heapq.heappop(heap)
        if stale_round[v] != round_no:
            evaluations += 1
            value = gain(v)
            stale_round[v] = round_no
            if value > 0:
                repops += 1
                heapq.heappush(heap, (-value, v))
            continue
        if -neg_gain <= 0:
            break
        add_broker(v, round_no)
        round_no += 1
    add_counter("kernel.maxsg.gain_evaluations", evaluations)
    add_counter("kernel.maxsg.heap_repops", repops)
    add_counter("kernel.maxsg.rounds", len(chosen))
    observe_many("kernel.maxsg.frontier_size", frontier_sizes)
    return chosen


def maxsg_until_dominated(
    graph: ASGraph,
    *,
    seed_vertex: int | None = None,
    max_brokers: int | None = None,
) -> list[int]:
    """Grow MaxSG until the dominated region stops expanding.

    This reproduces the paper's "3,540-alliance": the smallest MaxSG run
    that *totally dominates* the maximum connected subgraph.  Returns the
    broker list; its length is the analogue of 3,540 for the given graph.
    """
    limit = max_brokers if max_brokers is not None else graph.num_nodes
    return maxsg(graph, limit, seed_vertex=seed_vertex)
