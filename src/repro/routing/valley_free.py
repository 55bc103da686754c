"""Valley-free (Gao-Rexford) path semantics.

A path is *valley-free* when it climbs customer→provider links, crosses at
most one peer link, then descends provider→customer links — the export
rules rational ASes follow.  :func:`is_valley_free` checks one explicit
path, as :func:`repro.core.domination.is_dominating_path` does for
B-domination; the tests use it to check the BGP simulator's routes.
Valley-free *reachability* is a policy curve
(:func:`repro.routing.policies.policy_connectivity_curve` under
``BUSINESS``), which runs on the bit-parallel kernel.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.types import Relationship

# Path-grammar states.
_UP, _PEAK, _DOWN = 0, 1, 2


def _edge_relationship_lookup(graph: ASGraph) -> dict[tuple[int, int], int]:
    """Map ordered pair -> hop type: +1 uphill (c2p), -1 downhill, 0 peer.

    IXP membership edges are treated as peering (settlement-free).
    """
    lookup: dict[tuple[int, int], int] = {}
    for u, v, r in zip(graph.edge_src, graph.edge_dst, graph.edge_rels):
        u, v, r = int(u), int(v), int(r)
        if r == int(Relationship.CUSTOMER_TO_PROVIDER):
            lookup[(u, v)] = +1  # customer -> provider: uphill
            lookup[(v, u)] = -1  # provider -> customer: downhill
        else:
            lookup[(u, v)] = 0
            lookup[(v, u)] = 0
    return lookup


def is_valley_free(graph: ASGraph, path: Sequence[int]) -> bool:
    """Check the valley-free property of an explicit vertex path.

    Grammar: ``uphill* (peer)? downhill*``.  Single-vertex paths are
    trivially valid; unknown edges raise :class:`AlgorithmError`.
    """
    if len(path) == 0:
        raise AlgorithmError("path must contain at least one vertex")
    if len(path) == 1:
        return True
    lookup = _edge_relationship_lookup(graph)
    state = _UP
    for a, b in zip(path[:-1], path[1:]):
        hop = lookup.get((int(a), int(b)))
        if hop is None:
            raise AlgorithmError(f"({a}, {b}) is not an edge of the graph")
        if hop == +1:
            if state != _UP:
                return False  # climbing after the peak is a valley
        elif hop == 0:
            if state != _UP:
                return False  # at most one peer hop, only at the peak
            state = _PEAK
        else:  # downhill
            state = _DOWN
    return True
