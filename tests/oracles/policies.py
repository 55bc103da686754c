"""Reference policy reachability: dense hop loops and a Python product BFS.

:func:`valley_free_reach_counts` (BUSINESS and STRICT_BUSINESS) and
:func:`brokered_directional_reach_counts` (DIRECTIONAL) are the dense
``sparse @ dense`` loops that :func:`repro.routing.policies.policy_connectivity_curve`
replaced with one product-graph call of the bit-parallel kernel;
:func:`policy_curve_totals` runs them behind the same coalition draw and
source sample.  :func:`product_bfs` and :func:`valley_free_reachable` are
the per-source Python BFS over (vertex, state) that the BGP tests use as
the valley-free reachability oracle.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.routing.policies import (
    DirectionalPolicy,
    PolicyMatrices,
    build_policy_matrices,
    coalition_edges,
)
from repro.types import Relationship
from repro.utils.rng import SeedLike, ensure_rng

# Product-graph states.
_UP, _PEAK, _DOWN = 0, 1, 2


def valley_free_reach_counts(
    mats: PolicyMatrices,
    sources: np.ndarray,
    max_hops: int,
    *,
    peer_transit: bool = True,
    batch_size: int = 128,
) -> np.ndarray:
    """Vertices reachable within ``1..max_hops`` policy-compliant hops.

    Product-graph BFS over states UP (still climbing), DOWN (crossed the
    peak) and TERM (absorbing).  Transitions per hop:

    * UP   --up-->        UP
    * UP   --peer-->      DOWN when ``peer_transit`` (classic valley-free:
      the single peer hop is the peak), else TERM (strict: a peer link
      only delivers to the peer itself, and only traffic still inside the
      sender's cone — i.e. from the UP state — may use it, making the
      strict regime a subset of classic valley-free)
    * any  --down-->      DOWN
    * UP/DOWN --coalition--> same state
    * TERM: no outgoing hops

    Returns shape ``(len(sources), max_hops)`` cumulative reach counts
    excluding the source itself.
    """
    n = mats.up.shape[0]
    up_t = mats.up.T.tocsr()
    down_t = mats.down.T.tocsr()
    peer_t = mats.peer.T.tocsr()
    coal_t = mats.coalition.T.tocsr()
    has_coal = coal_t.nnz > 0
    counts = np.zeros((len(sources), max_hops), dtype=np.int64)
    for start in range(0, len(sources), batch_size):
        batch = sources[start : start + batch_size]
        b = len(batch)
        vis_up = np.zeros((n, b), dtype=bool)
        vis_dn = np.zeros((n, b), dtype=bool)
        vis_tm = np.zeros((n, b), dtype=bool)
        vis_up[batch, np.arange(b)] = True
        f_up, f_dn = vis_up.copy(), np.zeros((n, b), dtype=bool)
        for hop in range(max_hops):
            if not (f_up.any() or f_dn.any()):
                counts[start : start + b, hop:] = counts[
                    start : start + b, hop - 1 : hop
                ]
                break
            fu = f_up.astype(np.float32)
            fd = f_dn.astype(np.float32)
            new_up = (up_t @ fu) > 0
            new_dn = (down_t @ (fu + fd)) > 0
            new_tm = np.zeros((n, b), dtype=bool)
            if peer_transit:
                new_dn |= (peer_t @ fu) > 0
            else:
                new_tm = (peer_t @ fu) > 0
            if has_coal:
                new_up |= (coal_t @ fu) > 0
                new_dn |= (coal_t @ fd) > 0
            f_up = new_up & ~vis_up
            f_dn = new_dn & ~vis_dn
            vis_tm |= new_tm
            vis_up |= f_up
            vis_dn |= f_dn
            counts[start : start + b, hop] = (
                (vis_up | vis_dn | vis_tm).sum(axis=0) - 1
            )
            # The source starts as visited in UP; its own column is always
            # true, hence the "- 1".
    return counts


def brokered_directional_reach_counts(
    mats: PolicyMatrices,
    sources: np.ndarray,
    max_hops: int,
    *,
    batch_size: int = 128,
) -> np.ndarray:
    """Reach counts under the DIRECTIONAL (SLA-endpoint) policy.

    Position-aware BFS: hop 1 may use *any* dominated edge (the source's
    first-hop SLA); interior hops may only climb customer→provider links
    or cross coalition edges; the final hop may again use any dominated
    edge (the destination is billed by the coalition).  A vertex counts as
    reached within ``l`` hops when it is interior-occupiable within ``l``
    hops or adjacent to a vertex interior-occupiable within ``l − 1``.
    """
    n = mats.up.shape[0]
    int_t = (mats.up + mats.coalition).T.tocsr()
    any_mat = mats.up + mats.down + mats.peer + mats.coalition
    any_t = any_mat.T.tocsr()
    counts = np.zeros((len(sources), max_hops), dtype=np.int64)
    for start in range(0, len(sources), batch_size):
        batch = sources[start : start + batch_size]
        b = len(batch)
        vis_int = np.zeros((n, b), dtype=bool)
        vis_all = np.zeros((n, b), dtype=bool)
        vis_int[batch, np.arange(b)] = True
        vis_all |= vis_int
        f_int = vis_int.copy()
        for hop in range(max_hops):
            if not f_int.any():
                counts[start : start + b, hop:] = counts[
                    start : start + b, hop - 1 : hop
                ]
                break
            fi = f_int.astype(np.float32)
            reached_any = (any_t @ fi) > 0  # terminal (or first) hop
            if hop == 0:
                # The first hop grants interior occupancy anywhere the
                # source can hand traffic to under its own SLA.
                new_int = reached_any & ~vis_int
            else:
                new_int = ((int_t @ fi) > 0) & ~vis_int
            vis_all |= reached_any
            vis_int |= new_int
            counts[start : start + b, hop] = (vis_all | vis_int).sum(axis=0) - 1
            f_int = new_int
    return counts


def policy_curve_totals(
    graph: ASGraph,
    brokers: list[int] | None,
    *,
    policy: DirectionalPolicy,
    bidirectional_fraction: float = 0.0,
    max_hops: int,
    num_sources: int | None = None,
    seed: SeedLike = 0,
) -> tuple[np.ndarray, int]:
    """Per-hop reach totals and the source count of a policy curve.

    ``totals / (num_sources * (n - 1))`` are the curve's fractions.
    """
    n = graph.num_nodes
    coal_mask = None
    if bidirectional_fraction > 0.0:
        coal_mask = coalition_edges(
            graph, brokers, bidirectional_fraction, seed=seed
        )
    mats = build_policy_matrices(graph, brokers, coalition_edge_mask=coal_mask)
    if num_sources is None or num_sources >= n:
        sources = np.arange(n)
    else:
        rng = ensure_rng(seed)
        sources = rng.choice(n, size=num_sources, replace=False)
    if policy is DirectionalPolicy.DIRECTIONAL:
        counts = brokered_directional_reach_counts(mats, sources, max_hops)
    else:
        counts = valley_free_reach_counts(
            mats,
            sources,
            max_hops,
            peer_transit=(policy is DirectionalPolicy.BUSINESS),
        )
    return counts.sum(axis=0), len(sources)


def product_bfs(graph: ASGraph, source: int) -> np.ndarray:
    """Shortest valley-free hop distances from ``source`` (-1 unreachable).

    BFS over (vertex, state) with state transitions:
    UP --uphill--> UP; UP --peer--> PEAK; any --downhill--> DOWN;
    PEAK/DOWN accept only downhill.
    """
    n = graph.num_nodes
    if not 0 <= source < n:
        raise AlgorithmError(f"source {source} out of range")
    rels = graph.edge_rels
    # Build per-vertex outgoing hop lists once: (neighbor, hop_type).
    # Vectorized alternative is possible but this search is test-scale.
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, r in zip(graph.edge_src, graph.edge_dst, rels):
        u, v, r = int(u), int(v), int(r)
        if r == int(Relationship.CUSTOMER_TO_PROVIDER):
            out[u].append((v, +1))
            out[v].append((u, -1))
        else:
            out[u].append((v, 0))
            out[v].append((u, 0))
    dist = np.full((n, 3), -1, dtype=np.int64)
    dist[source, _UP] = 0
    frontier = [(source, _UP)]
    depth = 0
    while frontier:
        depth += 1
        nxt: list[tuple[int, int]] = []
        for u, state in frontier:
            for v, hop in out[u]:
                if hop == +1 and state == _UP:
                    new_state = _UP
                elif hop == 0 and state == _UP:
                    new_state = _PEAK
                elif hop == -1:
                    new_state = _DOWN
                else:
                    continue
                if dist[v, new_state] == -1:
                    dist[v, new_state] = depth
                    nxt.append((v, new_state))
        frontier = nxt
    best = np.full(n, -1, dtype=np.int64)
    for v in range(n):
        reachable = dist[v][dist[v] >= 0]
        if len(reachable):
            best[v] = reachable.min()
    best[source] = 0
    return best


def valley_free_reachable(graph: ASGraph, source: int) -> np.ndarray:
    """Boolean mask of vertices with a valley-free path from ``source``."""
    return product_bfs(graph, source) >= 0
