"""B-dominating paths and the dominated graph ``B ⊙ A``.

Definition 1 of the paper: a path is *B-dominated* when every hop (edge)
has at least one endpoint in the broker set ``B``.  Equivalently, the path
lives inside the **dominated graph** — the spanning subgraph that keeps
exactly the edges incident to ``B``.  Section 5.2 writes this as the
operator ``B ⊙ A`` erasing all adjacency entries whose row *and* column
both fall outside ``B``.

This module is the one static owner of that operator: the edge rule
(:func:`dominated_edge_mask`), the builder (:func:`dominated_adjacency`;
call ``.to_scipy()`` for SciPy's kernels), its component labels
(:func:`dominated_components`) and the Definition-1 checker
(:func:`is_dominating_path`).  Questions about a broker set that grows or
shrinks one vertex at a time go to
:class:`repro.core.engine.DominationEngine` instead.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.graph.csr import CSRAdjacency, build_csr, connected_components


def broker_mask(graph: ASGraph, brokers: Iterable[int]) -> np.ndarray:
    """Boolean indicator array of the broker set."""
    mask = np.zeros(graph.num_nodes, dtype=bool)
    for v in brokers:
        if not 0 <= v < graph.num_nodes:
            raise AlgorithmError(f"broker id {v} out of range")
        mask[v] = True
    return mask


def dominated_edge_mask(graph: ASGraph, mask: np.ndarray) -> np.ndarray:
    """Which undirected edges survive ``B ⊙ A`` (>= 1 endpoint in B)."""
    return mask[graph.edge_src] | mask[graph.edge_dst]


def dominated_adjacency(
    graph: ASGraph, brokers: Iterable[int] | np.ndarray
) -> CSRAdjacency:
    """The dominated graph ``B ⊙ A`` as a symmetric :class:`CSRAdjacency`.

    ``brokers`` is a collection of ids or a boolean mask.  Any path in
    this graph is B-dominated by construction, so l-hop E2E connectivity
    under the brokerage scheme is plain BFS reachability here.
    """
    mask = (
        np.asarray(brokers, dtype=bool)
        if isinstance(brokers, np.ndarray) and brokers.dtype == bool
        else broker_mask(graph, brokers)
    )
    keep = dominated_edge_mask(graph, mask)
    return build_csr(graph.num_nodes, graph.edge_src[keep], graph.edge_dst[keep])


def dominated_components(
    graph: ASGraph, brokers: Iterable[int] | np.ndarray
) -> np.ndarray:
    """Connected-component label of every vertex in ``B ⊙ A``.

    Vertices outside ``B ∪ N(B)`` are isolated and get labels of their own.
    """
    _, labels = connected_components(dominated_adjacency(graph, brokers).to_scipy())
    return labels


def is_dominating_path(graph_or_mask, path: Sequence[int], brokers=None) -> bool:
    """Check Definition 1 directly on an explicit vertex sequence.

    Accepts either ``(graph, path, brokers)`` or ``(mask, path)`` where
    ``mask`` is a boolean broker indicator.  The path must be non-empty
    with every vertex in range, and in graph form every hop must be an
    edge of the graph; :class:`AlgorithmError` otherwise.  A single vertex
    is trivially dominated (there are no hops).
    """
    graph = graph_or_mask if isinstance(graph_or_mask, ASGraph) else None
    if graph is not None:
        if brokers is None:
            raise AlgorithmError("brokers required when passing a graph")
        mask = broker_mask(graph, brokers)
    else:
        mask = np.asarray(graph_or_mask, dtype=bool)
    if len(path) == 0:
        raise AlgorithmError("path must contain at least one vertex")
    for v in path:
        if not 0 <= v < len(mask):
            raise AlgorithmError(f"path vertex {v} out of range [0, {len(mask)})")
    hops = list(zip(path[:-1], path[1:]))
    if graph is not None:
        for a, b in hops:
            if b not in graph.neighbors(a):
                raise AlgorithmError(f"({a}, {b}) is not an edge of the graph")
    return all(mask[a] or mask[b] for a, b in hops)


def brokers_mutually_connected(graph: ASGraph, brokers: Sequence[int]) -> bool:
    """Do all brokers share one component of the dominated graph?

    This is the structural condition that makes the MCBG guarantee hold:
    when true, every pair in ``B ∪ N(B)`` has a B-dominated path (reach a
    broker in one dominated hop, then travel between brokers inside the
    dominated graph).
    """
    brokers = list(brokers)
    if len(brokers) <= 1:
        return True
    labels = dominated_components(graph, brokers)
    return bool((labels[brokers] == labels[brokers[0]]).all())
