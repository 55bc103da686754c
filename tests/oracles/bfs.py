"""Reference BFS kernels: Python frontier loops and dense hop counts.

:func:`bfs_levels` and :func:`bfs_parents` are the references for their
namesakes in :mod:`repro.graph.csr` (SciPy's C search),
:func:`batched_hop_reach` the reference for
:func:`repro.graph.bitset.bitset_hop_reach` (the bit-parallel kernel), and
:func:`hop_distribution` the per-source loop that
:func:`repro.graph.paths.hop_distribution` replaced with that kernel.
The kernel's ``states`` product-graph fold is checked against the
policy loops in :mod:`tests.oracles.policies`.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.exceptions import GraphValidationError
from repro.graph.asgraph import ASGraph
from repro.graph.csr import UNREACHABLE, CSRAdjacency
from repro.utils.rng import SeedLike, ensure_rng


def bfs_levels(
    adj: CSRAdjacency,
    source: int,
    *,
    max_depth: int | None = None,
) -> np.ndarray:
    """Exact hop distances from ``source`` (``UNREACHABLE`` if not reached).

    Frontier-based BFS whose inner loop is NumPy vectorized: each level
    gathers the concatenated neighbour lists of the frontier in one fancy-
    indexing pass.
    """
    n = adj.num_vertices
    if not 0 <= source < n:
        raise GraphValidationError(f"source {source} out of range [0, {n})")
    dist = np.full(n, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while len(frontier):
        if max_depth is not None and depth >= max_depth:
            break
        starts = adj.indptr[frontier]
        stops = adj.indptr[frontier + 1]
        total = int((stops - starts).sum())
        if total == 0:
            break
        gathered = np.empty(total, dtype=np.int64)
        pos = 0
        for s, e in zip(starts, stops):
            cnt = e - s
            gathered[pos : pos + cnt] = adj.indices[s:e]
            pos += cnt
        nxt = np.unique(gathered)
        nxt = nxt[dist[nxt] == UNREACHABLE]
        if len(nxt) == 0:
            break
        depth += 1
        dist[nxt] = depth
        frontier = nxt
    return dist


def hop_distribution(
    graph: ASGraph,
    *,
    num_sources: int | None = None,
    max_hops: int = 32,
    seed: SeedLike = None,
) -> tuple[np.ndarray, float]:
    """``(cumulative, unreachable_fraction)`` from one BFS per source.

    Sources are drawn exactly as :func:`repro.graph.paths.hop_distribution`
    draws them.
    """
    n = graph.num_nodes
    if num_sources is None or num_sources >= n:
        sources = np.arange(n)
    else:
        rng = ensure_rng(seed)
        sources = rng.choice(n, size=num_sources, replace=False)
    level_counts = np.zeros(max_hops + 1, dtype=np.int64)
    unreachable = 0
    for s in sources:
        dist = bfs_levels(graph.adj, int(s), max_depth=max_hops)
        reached = dist[(dist != UNREACHABLE)]
        hist = np.bincount(reached, minlength=max_hops + 1)[: max_hops + 1]
        hist[0] = 0  # the source itself is not a pair
        level_counts += hist
        unreachable += n - 1 - int(hist.sum())
    total_pairs = len(sources) * (n - 1)
    return np.cumsum(level_counts) / total_pairs, unreachable / total_pairs


def bfs_parents(adj: CSRAdjacency, source: int) -> np.ndarray:
    """BFS predecessor array (``-1`` for the source and unreachable nodes).

    A FIFO frontier scan of each vertex's stored row; every vertex keeps
    its first discoverer.
    """
    n = adj.num_vertices
    parent = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    visited[source] = True
    frontier = [source]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for v in adj.neighbors(u):
                if not visited[v]:
                    visited[v] = True
                    parent[v] = u
                    nxt.append(int(v))
        frontier = nxt
    return parent


def batched_hop_reach(
    matrix: sparse.csr_matrix,
    sources: np.ndarray,
    max_hops: int,
    *,
    batch_size: int = 256,
) -> np.ndarray:
    """Count vertices reachable within ``1..max_hops`` hops of each source.

    Returns an array of shape ``(len(sources), max_hops)`` where entry
    ``[i, l-1]`` is the number of vertices (excluding the source itself)
    whose hop distance from ``sources[i]`` is **at most** ``l``.

    The BFS level expansion for a whole batch of sources is a single
    ``sparse @ dense`` product per hop.  ``matrix`` may be asymmetric
    (directed policies); rows are interpreted as "reaches":
    ``matrix[u, v] != 0`` means ``u -> v`` is traversable.
    """
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    n = matrix.shape[0]
    sources = np.asarray(sources, dtype=np.int64)
    counts = np.zeros((len(sources), max_hops), dtype=np.int64)
    # Propagation uses A^T columns: reach step is frontier_next = A^T applied
    # to frontier when frontiers are column vectors; with row-major dense
    # blocks it is cleaner to propagate X <- A^T @ X where X[:, j] is the
    # visited indicator of source j.  For symmetric matrices this equals A.
    mat_t = matrix.T.tocsr()
    for start in range(0, len(sources), batch_size):
        batch = sources[start : start + batch_size]
        b = len(batch)
        visited = np.zeros((n, b), dtype=bool)
        visited[batch, np.arange(b)] = True
        frontier = visited.copy()
        for hop in range(max_hops):
            if not frontier.any():
                # Saturated: remaining hop columns repeat the last count.
                counts[start : start + b, hop:] = counts[
                    start : start + b, hop - 1 : hop
                ]
                break
            reached = mat_t @ frontier.astype(np.float32)
            new = (reached > 0) & ~visited
            visited |= new
            counts[start : start + b, hop] = visited.sum(axis=0) - 1
            frontier = new
    return counts

