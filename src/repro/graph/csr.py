"""Compressed-sparse-row adjacency and vectorized BFS kernels.

This module is the performance core of the library.  Everything that must
scale to the paper's 52,079-node topology — coverage evaluation, dominated-
graph connectivity, hop-distance sampling — runs on these kernels rather
than on per-node Python loops.

The graph searches here run in SciPy's C routines:

* :func:`bfs_rows` — exact hop distances from each of a few sources,
  one int32 row per source (a breadth-first search each, optionally
  depth-limited); :func:`bfs_levels` is its one-row form over a
  :class:`CSRAdjacency`;
* :func:`bfs_parents` — the first-discoverer predecessor of every
  vertex (Algorithm 2's stitching and the shortest-path helpers walk
  these);
* :func:`connected_components` and :func:`connected_pair_fraction` —
  component labels and the share of ordered pairs joined by any path,
  which is saturated connectivity when the matrix is ``B ⊙ A``.

Multi-source hop counting lives in
:func:`repro.graph.bitset.bitset_hop_reach`, which runs hundreds of BFS
sources at once in the bit columns of a block array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.exceptions import GraphValidationError
from repro.obs import metrics as _metrics

#: Distance marker for unreachable vertices in exact-BFS outputs.
UNREACHABLE = -1


@dataclass(frozen=True)
class CSRAdjacency:
    """Immutable CSR adjacency over dense integer vertex ids.

    ``indptr`` has length ``n + 1``; the neighbours of vertex ``v`` are
    ``indices[indptr[v]:indptr[v + 1]]``.  For undirected graphs every edge
    is stored in both directions.

    Invariant: every neighbour list is strictly increasing (sorted, no
    duplicates, no self-loops).  :func:`build_csr` guarantees it, and the
    shared-memory copy in :mod:`repro.parallel.shm` copies a built one.
    :func:`bfs_parents` relies on it: SciPy sorts rows before searching,
    so its first-discoverer parents match a scan in stored order only
    when the stored order is already sorted.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_directed_edges(self) -> int:
        return len(self.indices)

    def neighbors(self, v: int) -> np.ndarray:
        """Return the neighbour ids of ``v`` as a read-only array view."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (== degree for undirected graphs)."""
        return np.diff(self.indptr)

    def to_scipy(self) -> sparse.csr_matrix:
        """View this adjacency as a SciPy CSR matrix of ones."""
        data = np.ones(len(self.indices), dtype=np.int8)
        n = self.num_vertices
        return sparse.csr_matrix(
            (data, self.indices, self.indptr), shape=(n, n), copy=False
        )


def build_csr(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    symmetric: bool = True,
) -> CSRAdjacency:
    """Build a :class:`CSRAdjacency` from parallel endpoint arrays.

    Parameters
    ----------
    n:
        Number of vertices; all endpoints must lie in ``[0, n)``.
    src, dst:
        Edge endpoint arrays of equal length.  Duplicate edges are merged.
    symmetric:
        When true (the default, for undirected graphs) each input edge is
        inserted in both directions.  Pass ``False`` to build a directed
        adjacency, e.g. for the business-relationship routing policies.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise GraphValidationError(
            f"src/dst length mismatch: {src.shape} vs {dst.shape}"
        )
    if len(src) and (src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n):
        raise GraphValidationError(f"edge endpoint out of range [0, {n})")
    if symmetric:
        all_src = np.concatenate([src, dst])
        all_dst = np.concatenate([dst, src])
    else:
        all_src, all_dst = src, dst
    # Drop self-loops: they never change coverage, domination or distances.
    keep = all_src != all_dst
    all_src, all_dst = all_src[keep], all_dst[keep]
    # Deduplicate via sparse COO -> CSR conversion (sums duplicates; we only
    # need the pattern, so the data values are irrelevant afterwards).
    mat = sparse.coo_matrix(
        (np.ones(len(all_src), dtype=np.int8), (all_src, all_dst)), shape=(n, n)
    ).tocsr()
    mat.sum_duplicates()
    return CSRAdjacency(
        indptr=mat.indptr.astype(np.int64), indices=mat.indices.astype(np.int64)
    )


@dataclass(frozen=True)
class MultiCSRAdjacency:
    """CSR adjacency that *keeps* parallel edges, with per-slot edge ids.

    Unlike :class:`CSRAdjacency` (whose builder deduplicates), every edge
    instance of a multigraph occupies its own slot: the neighbours of
    ``v`` are ``indices[indptr[v]:indptr[v+1]]`` and the *edge-instance
    id* carried by each slot is ``edge_ids`` at the same position.  Edge
    ids are stable: they index the multigraph's attribute arrays
    (capacity, latency, kind), so a traversal can score each parallel
    instance separately — the min-latency-over-max-capacity selection the
    QoS layer needs.
    """

    indptr: np.ndarray
    indices: np.ndarray
    edge_ids: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_slots(self) -> int:
        """Directed slot count (2x the undirected instance count)."""
        return len(self.indices)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def incident_edge_ids(self, v: int) -> np.ndarray:
        """Edge-instance ids of ``v``'s slots, aligned with :meth:`neighbors`."""
        return self.edge_ids[self.indptr[v] : self.indptr[v + 1]]


def build_multi_csr(
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    symmetric: bool = True,
) -> MultiCSRAdjacency:
    """Build a :class:`MultiCSRAdjacency`, preserving parallel edges.

    Edge instance ``i`` (the row of ``src``/``dst``) keeps id ``i`` in
    every slot it occupies; self-loops are rejected rather than silently
    dropped — an attributed edge instance vanishing would desynchronize
    the attribute arrays from the adjacency.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise GraphValidationError(
            f"src/dst length mismatch: {src.shape} vs {dst.shape}"
        )
    if len(src) and (src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n):
        raise GraphValidationError(f"edge endpoint out of range [0, {n})")
    if np.any(src == dst):
        raise GraphValidationError("self-loops are not allowed in a multigraph")
    ids = np.arange(len(src), dtype=np.int64)
    if symmetric:
        all_src = np.concatenate([src, dst])
        all_dst = np.concatenate([dst, src])
        all_ids = np.concatenate([ids, ids])
    else:
        all_src, all_dst, all_ids = src, dst, ids
    order = np.argsort(all_src, kind="stable")
    counts = np.bincount(all_src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return MultiCSRAdjacency(
        indptr=indptr,
        indices=all_dst[order].astype(np.int64),
        edge_ids=all_ids[order].astype(np.int64),
    )


def bfs_rows(
    matrix: sparse.spmatrix,
    sources,
    *,
    max_depth: int | None = None,
) -> np.ndarray:
    """Exact hop distances from each of ``sources``, one int32 row each.

    ``rows[i, v]`` is the number of hops from ``sources[i]`` to ``v``, or
    ``UNREACHABLE`` when ``v`` is not reached (within ``max_depth`` hops
    if given; ``0`` reaches only the source).  Every stored entry
    ``(u, v)`` of the square ``matrix`` is an arc ``u → v``, so an
    undirected graph stores both directions.

    Each row is one run of SciPy's C breadth-first search.  It searches
    a float64 CSR without converting it; any other format or dtype is
    converted once per call, not once per row.  The search is a FIFO
    queue, so its visit order lists the levels back to back, and the
    visit positions of the parents never decrease along it: each level
    ends where the next level's parents start, found by a binary search.
    """
    matrix = matrix.tocsr().astype(np.float64, copy=False)
    n = matrix.shape[0]
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    if len(sources) and not (0 <= sources.min() and sources.max() < n):
        raise GraphValidationError(f"source out of range [0, {n})")
    if max_depth is not None and max_depth < 0:
        raise GraphValidationError(f"max_depth must be >= 0, got {max_depth}")
    levels = np.inf if max_depth is None else max_depth + 1
    rows = np.full((len(sources), n), UNREACHABLE, dtype=np.int32)
    where = np.empty(n, dtype=np.int64)
    for row, source in zip(rows, sources.tolist()):
        order, parent = csgraph.breadth_first_order(
            matrix, source, directed=True, return_predecessors=True
        )
        where[order] = np.arange(len(order))
        parent_at = where[parent[order[1:]]]
        ends = [1]
        while ends[-1] < len(order) and len(ends) < levels:
            ends.append(int(np.searchsorted(parent_at, ends[-1])) + 1)
        row[order[: ends[-1]]] = np.repeat(
            np.arange(len(ends), dtype=np.int32), np.diff(ends, prepend=0)
        )
    if _metrics.metrics_enabled():
        _metrics.add_counter("kernel.bfs.runs", len(sources))
        _metrics.add_counter("kernel.bfs.node_visits",
                             int(np.count_nonzero(rows != UNREACHABLE)))
    return rows


def bfs_levels(
    adj: CSRAdjacency,
    source: int,
    *,
    max_depth: int | None = None,
) -> np.ndarray:
    """Exact hop distances from ``source`` (``UNREACHABLE`` if not reached).

    The one-row :func:`bfs_rows` over ``adj``, as int64; ``max_depth``
    stops it at that many hops (``0`` reaches only the source).
    """
    n = adj.num_vertices
    if not 0 <= source < n:
        raise GraphValidationError(f"source {source} out of range [0, {n})")
    rows = bfs_rows(adj.to_scipy(), [source], max_depth=max_depth)
    return rows[0].astype(np.int64)


def bfs_parents(adj: CSRAdjacency, source: int) -> np.ndarray:
    """BFS predecessor array (``-1`` for the source and unreachable nodes).

    Following parents from any vertex back to ``source`` walks a shortest
    path; Algorithm 2 uses this to stitch pre-selected brokers together.
    SciPy's C search is a FIFO queue that scans each dequeued vertex's
    row in order and keeps the first discoverer: the parent of ``v`` is
    its earliest-dequeued neighbour.  SciPy sorts rows before searching,
    so the queue order is the stored order only under the sorted-rows
    invariant of :class:`CSRAdjacency`.
    """
    n = adj.num_vertices
    if not 0 <= source < n:
        raise GraphValidationError(f"source {source} out of range [0, {n})")
    _, parent = csgraph.breadth_first_order(
        adj.to_scipy(), source, directed=True, return_predecessors=True
    )
    parent = parent.astype(np.int64)
    parent[parent < 0] = -1  # SciPy's null predecessor is -9999
    return parent


def connected_components(matrix: sparse.csr_matrix) -> tuple[int, np.ndarray]:
    """Connected components via SciPy's C implementation.

    Returns ``(count, labels)``.  For directed matrices weak connectivity is
    used, matching the paper's treatment of the *undirected* AS graph; the
    directional-policy experiments use hop-limited BFS instead.
    """
    return csgraph.connected_components(matrix, directed=False, return_labels=True)


def connected_pair_fraction(matrix: sparse.spmatrix) -> float:
    """Share of ordered vertex pairs ``(u, v)``, ``u != v``, joined by a path.

    ``Σ_C |C|(|C|−1) / (n(n−1))`` over the connected components ``C``.
    Component sizes stay below ``2**26``, so every product and the sum
    are exact in float64 and the quotient is correctly rounded.
    """
    n = matrix.shape[0]
    if n < 2:
        return 0.0
    _, labels = connected_components(matrix)
    sizes = np.bincount(labels).astype(np.float64)
    return float((sizes * (sizes - 1)).sum() / (n * (n - 1)))


def largest_component_nodes(matrix: sparse.csr_matrix) -> np.ndarray:
    """Vertex ids of the largest (weakly) connected component."""
    _, labels = connected_components(matrix)
    counts = np.bincount(labels)
    return np.flatnonzero(labels == counts.argmax())
