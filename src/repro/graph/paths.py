"""Hop-distance analysis: distributions, (alpha, beta) estimation, diameter.

Definition 2 of the paper calls ``G`` an *(alpha, beta)-graph* when a
uniformly random source/destination pair is within ``beta`` hops with
probability at least ``alpha``; the AS-level Internet is a (0.99, 4)-graph.
Algorithm 2's budget split and the economic model's worst-case employee
count both consume ``beta``, so estimating it robustly matters.

Hop counts over many sources come from the bit-parallel kernel
(:func:`repro.graph.bitset.bitset_hop_reach`); single-source distances
and paths come from SciPy's search (:mod:`repro.graph.csr`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.graph.bitset import bitset_hop_reach
from repro.graph.csr import UNREACHABLE, bfs_levels, bfs_parents
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class HopDistribution:
    """Empirical hop-count distribution over sampled source nodes.

    ``cumulative[l]`` is the estimated probability that a uniformly random
    ordered pair ``(u, v)``, ``u != v``, satisfies ``d(u, v) <= l`` (index 0
    is ``l = 0``, always 0 by convention since pairs are distinct).
    ``unreachable_fraction`` accounts for disconnected pairs.
    """

    cumulative: np.ndarray
    unreachable_fraction: float
    num_sources: int

    def probability_within(self, hops: int) -> float:
        """P[d(u, v) <= hops] for a random distinct ordered pair."""
        if hops < 0:
            return 0.0
        idx = min(hops, len(self.cumulative) - 1)
        return float(self.cumulative[idx])

    def quantile_hops(self, alpha: float) -> int:
        """Smallest ``beta`` with P[d <= beta] >= alpha (``-1`` if none)."""
        reachable = np.flatnonzero(self.cumulative >= alpha)
        return int(reachable[0]) if len(reachable) else -1


def hop_distribution(
    graph: ASGraph,
    *,
    num_sources: int | None = None,
    max_hops: int = 32,
    seed: SeedLike = None,
) -> HopDistribution:
    """Estimate the pairwise hop-count distribution by sampled exact BFS.

    ``num_sources=None`` runs every vertex as a source (exact distribution);
    otherwise sources are sampled without replacement.  All sources run
    through the bit-parallel kernel, so sampling a few hundred suffices for
    the (alpha, beta) check even at the full 52k-node scale.  Pairs not
    joined within ``max_hops`` hops count as unreachable; ``max_hops=0``
    joins none.
    """
    if max_hops < 0:
        raise AlgorithmError(f"max_hops must be >= 0, got {max_hops}")
    n = graph.num_nodes
    if n < 2:
        return HopDistribution(np.zeros(1), 0.0, 0)
    if num_sources is None or num_sources >= n:
        sources = np.arange(n)
    else:
        rng = ensure_rng(seed)
        sources = rng.choice(n, size=num_sources, replace=False)
    # within[l] = (source, vertex) pairs at most l hops apart; l = 0 has none.
    within = np.zeros(max_hops + 1, dtype=np.int64)
    if max_hops:
        within[1:] = bitset_hop_reach(
            graph.adj.to_scipy(), sources, max_hops, aggregate=True
        )
    total_pairs = len(sources) * (n - 1)
    return HopDistribution(
        cumulative=within / total_pairs,
        unreachable_fraction=(total_pairs - int(within[-1])) / total_pairs,
        num_sources=len(sources),
    )


def estimate_alpha_beta(
    graph: ASGraph,
    *,
    alpha: float = 0.99,
    num_sources: int | None = 400,
    max_hops: int = 16,
    seed: SeedLike = None,
) -> tuple[float, int]:
    """Estimate the (alpha, beta) parameters of Definition 2.

    Returns ``(alpha_achieved, beta)`` where ``beta`` is the smallest hop
    bound whose cumulative probability reaches the requested ``alpha`` and
    ``alpha_achieved`` is the probability actually achieved at that bound.
    Raises ``ValueError`` when the graph is too disconnected to ever reach
    ``alpha`` within ``max_hops``.
    """
    if not 0.5 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0.5, 1] per Definition 2, got {alpha}")
    dist = hop_distribution(
        graph, num_sources=num_sources, max_hops=max_hops, seed=seed
    )
    beta = dist.quantile_hops(alpha)
    if beta < 0:
        raise ValueError(
            f"graph does not reach alpha={alpha} within {max_hops} hops "
            f"(max cumulative={dist.cumulative[-1]:.4f})"
        )
    return float(dist.cumulative[beta]), beta


def shortest_path(graph: ASGraph, source: int, target: int) -> list[int] | None:
    """One shortest path between ``source`` and ``target`` (hop metric).

    Returns the vertex sequence including both endpoints, or ``None`` when
    disconnected.  Used by tests and by Algorithm 2's stitching step.
    """
    if source == target:
        return [source]
    parent = bfs_parents(graph.adj, source)
    if parent[target] == -1:
        return None
    path = [target]
    while path[-1] != source:
        path.append(int(parent[path[-1]]))
    path.reverse()
    return path


def eccentricity_lower_bound(
    graph: ASGraph, *, num_probes: int = 16, seed: SeedLike = None
) -> int:
    """Cheap diameter lower bound via double-sweep BFS probes."""
    n = graph.num_nodes
    if n == 0:
        return 0
    rng = ensure_rng(seed)
    best = 0
    for _ in range(num_probes):
        start = int(rng.integers(n))
        dist = bfs_levels(graph.adj, start)
        reach = dist[dist != UNREACHABLE]
        if len(reach) == 0:
            continue
        far = int(np.argmax(dist == reach.max()))
        dist2 = bfs_levels(graph.adj, far)
        reach2 = dist2[dist2 != UNREACHABLE]
        if len(reach2):
            best = max(best, int(reach2.max()))
    return best
