"""Algorithm 1 — greedy ``(1 − 1/e)``-approximation for the MCB problem.

:func:`celf` is the one lazy greedy loop, over a
:class:`~repro.core.engine.DominationEngine`; each coverage objective
supplies only its ``gain(v)`` (``DominationEngine.marginal_gain`` here,
its own in :mod:`repro.core.weighted` and :mod:`repro.core.robustness`).

* :func:`greedy_max_coverage` — the textbook loop from the paper's
  Algorithm 1, recomputing every marginal gain each round:
  ``O(k (|V| + |E|))``.  Kept as the differential reference for the
  lazy loop.
* :func:`lazy_greedy_max_coverage` — CELF-style lazy evaluation exploiting
  submodularity: a vertex's cached gain can only shrink, so the heap only
  re-evaluates candidates whose stale bound still tops the heap.  Orders of
  magnitude fewer gain evaluations on scale-free graphs, identical output
  (ties broken by vertex id in both variants).

Both return the brokers in selection order, which Fig. 2b's sweep uses to
evaluate every prefix of a single run.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from repro.core.engine import DominationEngine
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.obs import add_counter, get_tracer, profiled


def _validate_budget(graph: ASGraph, budget: int) -> None:
    if budget < 1:
        raise AlgorithmError(f"budget must be >= 1, got {budget}")
    if budget > graph.num_nodes:
        raise AlgorithmError(
            f"budget {budget} exceeds the number of vertices {graph.num_nodes}"
        )


def _candidate_pool(graph: ASGraph, candidates: np.ndarray | None) -> np.ndarray:
    pool = (
        np.arange(graph.num_nodes)
        if candidates is None
        else np.unique(np.asarray(candidates, dtype=np.int64))
    )
    if len(pool) == 0:
        raise AlgorithmError("candidate pool is empty")
    return pool


def celf(
    engine: DominationEngine,
    heap: list[tuple[float, int]],
    gain: Callable[[int], float],
    budget: int,
) -> list[int]:
    """Lazy (CELF) greedy over ``engine``; returns brokers in selection order.

    ``heap`` holds ``(-gain, v)`` entries exact for the engine's current
    state.  By submodularity cached gains are upper bounds: a stale entry
    is re-evaluated with ``gain(v)`` and pushed back while positive, and
    a fresh one at the top is committed with ``engine.add_broker``.  Ties
    break to the smallest id; the loop stops once the best gain is 0.
    """
    heapq.heapify(heap)
    tracer = get_tracer()
    evaluations = 0
    repops = 0
    stale = np.zeros(engine.num_nodes, dtype=np.int64)  # round the gain was cached in
    round_no = 0
    chosen: list[int] = []
    # Outer loop = one selection round; the inner loop pops (and lazily
    # re-evaluates) candidates until one is fresh at the top of the heap.
    while heap and len(chosen) < budget:
        with tracer.span("lazy_greedy.round", round=round_no) as span:
            while heap:
                neg_gain, v = heapq.heappop(heap)
                if stale[v] != round_no:
                    evaluations += 1
                    fresh = gain(v)
                    stale[v] = round_no
                    if fresh > 0:
                        repops += 1
                        heapq.heappush(heap, (-fresh, v))
                    continue
                if -neg_gain <= 0:
                    heap.clear()  # the best gain is 0: nothing is left to add
                    break
                engine.add_broker(v)
                chosen.append(v)
                round_no += 1
                span.set(vertex=v, gain=-neg_gain)
                break
    add_counter("kernel.lazy_greedy.gain_evaluations", evaluations)
    add_counter("kernel.lazy_greedy.heap_repops", repops)
    add_counter("kernel.lazy_greedy.rounds", len(chosen))
    return chosen


@profiled("kernel.greedy")
def greedy_max_coverage(
    graph: ASGraph,
    budget: int,
    *,
    candidates: np.ndarray | None = None,
) -> list[int]:
    """Plain greedy MCB (paper Algorithm 1).

    Each of the ``budget`` rounds picks the candidate with the largest
    marginal coverage gain, breaking ties towards the smallest vertex id
    (making the output deterministic).  Stops early when everything is
    covered.  ``candidates`` restricts the selectable pool (used by the
    IXP-only variants and by tests).
    """
    _validate_budget(graph, budget)
    pool = _candidate_pool(graph, candidates)
    tracer = get_tracer()
    evaluations = 0
    engine = DominationEngine(graph)
    chosen: list[int] = []
    chosen_mask = np.zeros(graph.num_nodes, dtype=bool)
    for round_no in range(budget):
        with tracer.span("greedy.round", round=round_no) as span:
            best_v, best_gain = -1, 0
            for v in pool:
                if chosen_mask[v]:
                    continue
                evaluations += 1
                gain = engine.marginal_gain(int(v))
                if gain > best_gain:
                    best_v, best_gain = int(v), gain
            if best_v < 0:
                break  # nothing adds coverage — all reachable vertices covered
            engine.add_broker(best_v)
            chosen.append(best_v)
            chosen_mask[best_v] = True
            span.set(vertex=best_v, gain=best_gain)
    add_counter("kernel.greedy.gain_evaluations", evaluations)
    add_counter("kernel.greedy.rounds", len(chosen))
    return chosen


@profiled("kernel.lazy_greedy")
def lazy_greedy_max_coverage(
    graph: ASGraph,
    budget: int,
    *,
    candidates: np.ndarray | None = None,
) -> list[int]:
    """Lazy (CELF) greedy MCB — same output as :func:`greedy_max_coverage`.

    The heap starts from the closed-neighbourhood sizes ``deg(v) + 1``,
    which are the exact round-0 gains.
    """
    _validate_budget(graph, budget)
    pool = _candidate_pool(graph, candidates)
    engine = DominationEngine(graph)
    degrees = graph.degrees()
    heap = [(-(int(degrees[v]) + 1), int(v)) for v in pool]
    return celf(engine, heap, engine.marginal_gain, budget)


def greedy_with_trace(
    graph: ASGraph, budget: int
) -> tuple[list[int], list[int]]:
    """Lazy greedy plus the realized gain of every selection.

    Returns ``(brokers, gains)``; ``np.cumsum(gains)`` is the coverage
    curve ``f(B_1), f(B_2), …`` used by the marginal-effect analyses
    (Fig. 3's narrative).
    """
    _validate_budget(graph, budget)
    brokers = lazy_greedy_max_coverage(graph, budget)
    engine = DominationEngine(graph)
    gains = [len(engine.add_broker(v)) for v in brokers]
    return brokers, gains
