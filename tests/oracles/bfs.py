"""Reference BFS kernels: a Python FIFO parent loop and dense hop counts.

:func:`bfs_parents` is the reference for
:func:`repro.graph.csr.bfs_parents` (SciPy's C search) and
:func:`batched_hop_reach` the reference for
:func:`repro.graph.bitset.bitset_hop_reach` (the bit-parallel kernel).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.graph.csr import CSRAdjacency


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

