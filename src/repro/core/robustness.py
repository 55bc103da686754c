"""Broker-failure robustness analysis (deployment hardening).

A real brokerage coalition loses members — outages, de-peering, ASes
leaving the alliance (Section 7.2's stability analysis is about exactly
that temptation).  This module quantifies how gracefully a broker set's
E2E guarantee degrades and how to buy insurance:

* :func:`failure_sweep` — remove random or targeted (highest-coverage)
  brokers and track the saturated connectivity curve;
* :func:`coverage_contribution_order` — brokers ordered by the marginal
  coverage each one actually provides (the adversary's hit list);
* :func:`redundant_greedy` — an ``r``-redundant variant of Algorithm 1:
  a vertex only counts as covered once ``r`` distinct brokers are in its
  closed neighbourhood, so any single failure leaves every covered
  vertex covered (classic multi-cover, still submodular, so greedy keeps
  a ``(1 − 1/e)`` guarantee);
* :func:`single_failure_impact` — the worst-case connectivity drop over
  all single-broker removals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.connectivity import saturated_connectivity
from repro.core.engine import DominationEngine
from repro.core.greedy import celf
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.graph.csr import build_csr
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class FailureSweepResult:
    """Connectivity after removing ``k`` brokers, for ``k = 0..max``."""

    removed: np.ndarray
    connectivity: np.ndarray
    strategy: str

    def drop_at(self, k: int) -> float:
        """Connectivity lost after ``k`` failures."""
        idx = int(np.searchsorted(self.removed, k))
        if idx >= len(self.removed) or self.removed[idx] != k:
            raise AlgorithmError(f"sweep does not include k={k}")
        return float(self.connectivity[0] - self.connectivity[idx])


def broker_hit_counts(graph: ASGraph, brokers: list[int]) -> np.ndarray:
    """Per-vertex count of brokers inside the closed neighbourhood N[v].

    This is exactly the hit-count state a
    :class:`~repro.core.engine.DominationEngine` maintains incrementally.
    """
    engine = DominationEngine(graph, dict.fromkeys(int(b) for b in brokers))
    return engine.hits_view.copy()


def coverage_contribution_order(graph: ASGraph, brokers: list[int]) -> list[int]:
    """Brokers in descending marginal coverage contribution.

    The contribution of broker ``b`` is ``f(B) − f(B \\ {b})`` — the
    number of vertices only ``b`` covers, i.e. vertices of ``N[b]`` with a
    broker hit count of exactly one.  Ties break toward the smaller id so
    the order is deterministic.
    """
    brokers = list(dict.fromkeys(int(b) for b in brokers))
    hits = broker_hit_counts(graph, brokers)
    contribution = {}
    for b in brokers:
        closed = np.append(graph.neighbors(b), b)
        contribution[b] = int(np.count_nonzero(hits[closed] == 1))
    return sorted(brokers, key=lambda b: (-contribution[b], b))


def failure_sweep(
    graph: ASGraph,
    brokers: list[int],
    *,
    strategy: str = "random",
    max_failures: int | None = None,
    step: int = 1,
    seed: SeedLike = 0,
) -> FailureSweepResult:
    """Remove brokers one batch at a time and measure the damage.

    ``strategy="random"`` removes uniformly (expected behaviour under
    independent outages); ``"targeted"`` removes in descending marginal
    coverage contribution (an adversary picking the brokers whose loss
    uncovers the most vertices); ``"degree"`` removes in descending raw
    degree (the crude biggest-members-defect model).

    Removals shrink the dominated graph, which a union-find cannot
    follow — so the sweep is replayed *backwards*: start a
    :class:`~repro.core.engine.DominationEngine` from the survivors at
    the last reported point and add brokers back in reverse removal
    order.  Every reported point is then an O(1) pair-sum query against
    one shared union-find (a single connected-components pass total),
    instead of one full SciPy pass per point.  Values are bit-identical
    to the from-scratch formulation, one full connectivity evaluation
    per point (``tests/oracles/robustness.py`` keeps it for differential
    tests and the speedup benchmark).
    """
    brokers, order, removed_counts, limit = _sweep_plan(
        graph, brokers, strategy, max_failures, step, seed
    )
    total = len(brokers)
    engine = DominationEngine(graph, order[limit:])
    values_rev = []
    prev = limit
    for k in reversed(removed_counts):
        for b in order[k:prev]:
            engine.add_broker(b)
        prev = k
        values_rev.append(
            engine.saturated_connectivity() if total - k > 0 else 0.0
        )
    return FailureSweepResult(
        removed=np.asarray(removed_counts),
        connectivity=np.asarray(list(reversed(values_rev))),
        strategy=strategy,
    )


def _sweep_plan(
    graph: ASGraph,
    brokers: list[int],
    strategy: str,
    max_failures: int | None,
    step: int,
    seed: SeedLike,
) -> tuple[list[int], list[int], list[int], int]:
    """Validate inputs and fix the removal order and reported points."""
    if strategy not in ("random", "targeted", "degree"):
        raise AlgorithmError(f"unknown strategy {strategy!r}")
    brokers = list(dict.fromkeys(int(b) for b in brokers))
    if not brokers:
        raise AlgorithmError("broker set must be non-empty")
    limit = len(brokers) if max_failures is None else min(max_failures, len(brokers))
    if strategy == "random":
        rng = ensure_rng(seed)
        order = [int(b) for b in rng.permutation(brokers)]
    elif strategy == "degree":
        degrees = graph.degrees()
        order = sorted(brokers, key=lambda b: (-int(degrees[b]), b))
    else:
        order = coverage_contribution_order(graph, brokers)
    removed_counts = list(range(0, limit + 1, step))
    if removed_counts[-1] != limit:
        removed_counts.append(limit)
    return brokers, order, removed_counts, limit


def single_failure_impact(graph: ASGraph, brokers: list[int]) -> dict:
    """Worst-case and mean connectivity drop over all single removals.

    Instead of rebuilding the dominated graph from scratch for each of
    the ``|B|`` removals, the per-edge broker-endpoint counts are computed
    once; removing broker ``b`` only deletes the incident edges whose
    *sole* broker endpoint is ``b``, so removals that delete no edge are
    answered without touching the connectivity engine at all.
    """
    brokers = list(dict.fromkeys(int(b) for b in brokers))
    if not brokers:
        raise AlgorithmError("broker set must be non-empty")
    n = graph.num_nodes
    src, dst = graph.edge_src, graph.edge_dst
    mask = np.zeros(n, dtype=bool)
    mask[brokers] = True
    # Edge (u, v) survives B ⊙ A while it retains >= 1 broker endpoint.
    edge_hits = mask[src].astype(np.int8) + mask[dst].astype(np.int8)
    base_keep = edge_hits > 0
    base_matrix = build_csr(n, src[base_keep], dst[base_keep], symmetric=True)
    base = saturated_connectivity(graph, matrix=base_matrix.to_scipy())
    # Incident edge ids per vertex, built once by sorting the doubled
    # endpoint list (O(E log E)), then sliced per broker (O(deg)).
    endpoints = np.concatenate([src, dst])
    edge_ids = np.concatenate([np.arange(len(src)), np.arange(len(src))])
    order = np.argsort(endpoints, kind="stable")
    endpoints, edge_ids = endpoints[order], edge_ids[order]
    drops = []
    worst_broker = brokers[0]
    worst_drop = -1.0
    for b in brokers:
        lo = int(np.searchsorted(endpoints, b, side="left"))
        hi = int(np.searchsorted(endpoints, b, side="right"))
        incident = edge_ids[lo:hi]
        lost = incident[edge_hits[incident] == 1]
        if len(brokers) == 1:
            value = 0.0
        elif lost.size == 0:
            value = base  # b was redundant: the dominated graph is unchanged.
        else:
            keep = base_keep.copy()
            keep[lost] = False
            matrix = build_csr(n, src[keep], dst[keep], symmetric=True)
            value = saturated_connectivity(graph, matrix=matrix.to_scipy())
        drop = base - value
        drops.append(drop)
        if drop > worst_drop:
            worst_drop, worst_broker = drop, b
    return {
        "base": base,
        "worst_drop": worst_drop,
        "worst_broker": worst_broker,
        "mean_drop": float(np.mean(drops)),
    }


def redundant_greedy(graph: ASGraph, budget: int, redundancy: int = 2) -> list[int]:
    """Greedy ``r``-redundant coverage (multi-cover).

    A vertex is *r-covered* when at least ``r`` brokers sit in its closed
    neighbourhood.  The objective ``Σ_v min(hits(v), r)`` is monotone
    submodular, so plain greedy keeps the ``(1 − 1/e)`` guarantee; the
    payoff is that any ``r − 1`` broker failures leave every fully
    covered vertex covered.
    """
    if redundancy < 1:
        raise AlgorithmError(f"redundancy must be >= 1, got {redundancy}")
    if budget < 1 or budget > graph.num_nodes:
        raise AlgorithmError(f"budget {budget} out of range")
    engine = DominationEngine(graph)
    hits = engine.hits_view

    def gain(v: int) -> int:
        neigh = graph.neighbors(v)
        closed_hits = np.concatenate([hits[neigh], hits[v : v + 1]])
        return int(np.count_nonzero(closed_hits < redundancy))

    heap = [(-gain(v), v) for v in range(graph.num_nodes)]
    return celf(engine, heap, gain, budget)


def r_covered_fraction(graph: ASGraph, brokers: list[int], redundancy: int) -> float:
    """Fraction of vertices with >= ``redundancy`` brokers in N[v]."""
    if redundancy < 1:
        raise AlgorithmError("redundancy must be >= 1")
    hits = broker_hit_counts(graph, brokers)
    return float(np.mean(hits >= redundancy))
