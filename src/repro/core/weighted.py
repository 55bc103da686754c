"""Traffic-weighted broker selection (an extension the paper motivates).

The paper's objective counts every vertex equally, but its motivation is
traffic: 82 % of 2020 IP traffic is video, concentrated on a minority of
source/destination ASes.  This module generalizes the coverage function
to ``f_w(B) = Σ_{v ∈ B ∪ N(B)} w(v)`` — covering an AS is worth its
traffic share.  The selection loops are the unweighted ones; only the
gain changes:

* :func:`weighted_gain` — the marginal gain of ``f_w`` over a
  :class:`~repro.core.engine.DominationEngine`'s covered mask;
* :func:`weighted_greedy` — Algorithm 1's CELF loop under ``f_w``
  (``f_w`` is still monotone submodular, so the ``(1 − 1/e)``
  guarantee carries over);
* :func:`weighted_maxsg` — Algorithm 3's region-growth loop under
  ``f_w`` (connected growth, so the MCBG dominating-path guarantee is
  preserved);
* :func:`traffic_weights` — a Zipf traffic model over ASes (IXPs carry
  no endpoint traffic of their own).

Weighted saturated connectivity (the fraction of *traffic pairs* served)
is provided for evaluation symmetry.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.domination import dominated_components
from repro.core.engine import DominationEngine
from repro.core.greedy import celf
from repro.core.maxsg import grow_connected
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.graph.csr import connected_components
from repro.utils.rng import SeedLike, ensure_rng


def traffic_weights(
    graph: ASGraph,
    *,
    zipf_exponent: float = 0.9,
    seed: SeedLike = 0,
) -> np.ndarray:
    """Synthetic per-AS traffic shares (sum to 1; IXPs get 0).

    Ranks are assigned by a random permutation biased towards high-degree
    ASes (eyeball/content networks are heavy), then Zipf-distributed.
    """
    if zipf_exponent <= 0:
        raise AlgorithmError("zipf_exponent must be positive")
    rng = ensure_rng(seed)
    n = graph.num_nodes
    weights = np.zeros(n, dtype=np.float64)
    as_ids = graph.as_ids()
    if len(as_ids) == 0:
        return weights
    degree_bias = graph.degrees()[as_ids].astype(np.float64) + 1.0
    noise = rng.gumbel(size=len(as_ids))
    order = as_ids[np.argsort(-(np.log(degree_bias) + noise))]
    shares = 1.0 / np.arange(1, len(order) + 1) ** zipf_exponent
    weights[order] = shares / shares.sum()
    return weights


def weighted_gain(
    engine: DominationEngine, weights: np.ndarray
) -> Callable[[int], float]:
    """``gain(v) = f_w(B ∪ {v}) − f_w(B)`` over ``engine``'s covered mask.

    Raises :class:`AlgorithmError` unless ``weights`` has one
    non-negative entry per vertex.
    """
    graph = engine.graph
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (graph.num_nodes,):
        raise AlgorithmError(
            f"weights must have shape ({graph.num_nodes},), got {weights.shape}"
        )
    if (weights < 0).any():
        raise AlgorithmError("weights must be non-negative")

    def gain(v: int) -> float:
        covered = engine.covered_view
        own = 0.0 if covered[v] else float(weights[v])
        neigh = graph.neighbors(v)
        return own + float(weights[neigh[~covered[neigh]]].sum())

    return gain


def weighted_greedy(
    graph: ASGraph, weights: np.ndarray, budget: int
) -> list[int]:
    """Lazy greedy maximization of ``f_w`` (Algorithm 1, weighted).

    The unweighted CELF loop with the weighted gain; cached gains are
    upper bounds by submodularity of ``f_w``.
    """
    _check_budget(graph, budget)
    engine = DominationEngine(graph)
    gain = weighted_gain(engine, weights)
    heap = [(-gain(v), v) for v in range(graph.num_nodes)]
    return celf(engine, heap, gain, budget)


def weighted_maxsg(
    graph: ASGraph,
    weights: np.ndarray,
    budget: int,
    *,
    seed_vertex: int | None = None,
) -> list[int]:
    """MaxSubGraph-Greedy under traffic weights.

    Keeps the dominated region connected (so the MCBG guarantee holds,
    exactly as for the unweighted variant) while growing weighted
    coverage greedily.  The seed defaults to the heaviest closed
    neighbourhood.
    """
    _check_budget(graph, budget)
    engine = DominationEngine(graph)
    gain = weighted_gain(engine, weights)
    n = graph.num_nodes
    if seed_vertex is None:
        best, best_gain = 0, -1.0
        for v in range(n):
            value = gain(v)
            if value > best_gain:
                best, best_gain = v, value
        seed_vertex = best
    elif not 0 <= seed_vertex < n:
        raise AlgorithmError(f"seed vertex {seed_vertex} out of range")
    return grow_connected(engine, seed_vertex, budget, gain)


def weighted_saturated_connectivity(
    graph: ASGraph, weights: np.ndarray, brokers: list[int] | None
) -> float:
    """Traffic-pair analogue of saturated connectivity.

    Fraction of weight-products ``w(u)·w(v)`` over ordered distinct pairs
    that are joined by a B-dominated path:
    ``Σ_C (W_C² − Σ_{v∈C} w_v²) / (W² − Σ w_v²)`` over dominated
    components ``C`` with total weight ``W_C``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    denom = total * total - float((weights**2).sum())
    if denom <= 0:
        return 0.0
    if brokers is None:
        _, labels = connected_components(graph.adj.to_scipy())
    else:
        labels = dominated_components(graph, brokers)
    num = 0.0
    for comp in np.unique(labels):
        mask = labels == comp
        w_c = float(weights[mask].sum())
        num += w_c * w_c - float((weights[mask] ** 2).sum())
    return num / denom


def _check_budget(graph: ASGraph, budget: int) -> None:
    if budget < 1:
        raise AlgorithmError(f"budget must be >= 1, got {budget}")
    if budget > graph.num_nodes:
        raise AlgorithmError(f"budget {budget} exceeds |V| = {graph.num_nodes}")
