"""Reference l-hop connectivity curve over the dense-product BFS.

The per-hop fractions of :func:`repro.core.connectivity.connectivity_curve`
must equal these float for float: both divide the same integer totals
by the same pair count, and sampled sources come from the same rng draw.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.core.domination import dominated_adjacency
from repro.graph.asgraph import ASGraph
from repro.utils.rng import SeedLike, ensure_rng
from tests.oracles.bfs import batched_hop_reach


def _matrix(graph: ASGraph, brokers) -> sparse.csr_matrix:
    if brokers is None:
        return graph.adj.to_scipy()
    return dominated_adjacency(graph, brokers).to_scipy()


def curve_fractions(
    graph: ASGraph,
    brokers,
    *,
    max_hops: int,
    num_sources: int | None = None,
    seed: SeedLike = 0,
) -> np.ndarray:
    """``fractions[l - 1]``: share of sampled ordered pairs within ``l`` hops."""
    n = graph.num_nodes
    if num_sources is None or num_sources >= n:
        sources = np.arange(n)
    else:
        sources = ensure_rng(seed).choice(n, size=num_sources, replace=False)
    counts = batched_hop_reach(_matrix(graph, brokers), sources, max_hops)
    # counts[i, l-1] = vertices within l hops of sources[i], excluding it.
    return (counts.sum(axis=0) / (len(sources) * (n - 1))).astype(np.float64)


def saturated_fraction(graph: ASGraph, brokers) -> float:
    """Share of all ordered pairs joined at any hop count (BFS to the end)."""
    n = graph.num_nodes
    reach = batched_hop_reach(_matrix(graph, brokers), np.arange(n), n - 1)
    return float(reach[:, -1].sum() / (n * (n - 1)))
