"""Business-relationship routing policies (Section 6.2, Figs. 5b/5c).

The selection algorithms assume every link of a B-dominated path is usable
in both directions and in any position.  Section 6.2 asks what survives
when ASes obey their existing business relationships.  We model that with
the standard Gao-Rexford *valley-free* semantics:

* a policy-compliant path climbs customer→provider links, crosses **at
  most one** peer (or IXP) link, then descends provider→customer links;
* under the BUSINESS policy the brokered connectivity counts only pairs
  joined by a path that is both **B-dominated and valley-free** — broker
  chains hopping across several peering links (the norm for hub-heavy
  broker sets) become invalid, which is Fig. 5c's sharp collapse;
* Fig. 5b's repair converts a random fraction of the *inter-broker* links
  into **coalition edges**: the coalition renegotiates internal contracts
  (e.g., to settlement-free peering with mutual transit), making those
  links usable in any direction and any path position without affecting
  the valley-free state.

Reachability under these semantics is a BFS on a 3-state product graph
(UP, after-peer, DOWN), vectorized as one sparse-matrix product per hop
type and level, so policy evaluation scales like the rest of the engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.connectivity import ConnectivityCurve
from repro.core.domination import broker_mask, dominated_edge_mask
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.types import Relationship
from repro.utils.rng import SeedLike, ensure_rng


class DirectionalPolicy(enum.Enum):
    """How business relationships restrict brokered paths."""

    #: Every dominated edge usable freely (the selection-time assumption).
    FREE = "free"
    #: Classic Gao-Rexford valley-free constraint: up*, <=1 peer, down*.
    BUSINESS = "business"
    #: Strict reading of peering contracts: a peer/IXP link delivers only
    #: to the peer itself (no transit through it), so it can only be the
    #: *last* hop of a path.
    STRICT_BUSINESS = "strict-business"
    #: The paper's Fig. 5c regime ("the previously assumed bidirectional
    #: routing policy becomes directional").  First and last hops are free
    #: — the endpoints pay the coalition directly ("B can charge from both
    #: the customer AS and the destination", Fig. 6) and first-hop SLAs are
    #: the one thing plain BGP already provides.  *Interior* hops must be
    #: compensated by existing contracts: only customer→provider traversal
    #: (the customer already pays for transit) or renegotiated coalition
    #: edges are usable.  Peering gives no third-party transit.  This
    #: collapses connectivity sharply and recovers strongly when a
    #: fraction of inter-broker links is renegotiated (Fig. 5b).
    DIRECTIONAL = "directional"


@dataclass(frozen=True)
class PolicyMatrices:
    """Hop-type adjacency matrices restricted to dominated edges.

    ``up[u, v] = 1`` means ``u -> v`` is a customer→provider hop, ``down``
    its reverse, ``peer`` a (symmetric) peering/IXP hop, and ``coalition``
    a (symmetric) renegotiated inter-broker hop usable in any state.
    """

    up: sparse.csr_matrix
    down: sparse.csr_matrix
    peer: sparse.csr_matrix
    coalition: sparse.csr_matrix


def inter_broker_edge_mask(graph: ASGraph, brokers: list[int]) -> np.ndarray:
    """Undirected edges whose *both* endpoints are brokers."""
    mask = broker_mask(graph, brokers)
    return mask[graph.edge_src] & mask[graph.edge_dst]


def build_policy_matrices(
    graph: ASGraph,
    brokers: list[int] | None,
    *,
    coalition_edge_mask: np.ndarray | None = None,
) -> PolicyMatrices:
    """Split the (dominated) edge set by hop type.

    ``brokers=None`` keeps every edge (policy-compliant free routing);
    otherwise only edges with >= 1 broker endpoint survive, so paths in
    the product graph are B-dominated by construction.
    """
    n = graph.num_nodes
    src, dst, rels = graph.edge_src, graph.edge_dst, graph.edge_rels
    keep = np.ones(graph.num_edges, dtype=bool)
    if brokers is not None:
        keep = dominated_edge_mask(graph, broker_mask(graph, brokers))
    coal = (
        np.zeros(graph.num_edges, dtype=bool)
        if coalition_edge_mask is None
        else coalition_edge_mask.astype(bool)
    )
    c2p = (rels == int(Relationship.CUSTOMER_TO_PROVIDER)) & keep & ~coal
    pp = (rels != int(Relationship.CUSTOMER_TO_PROVIDER)) & keep & ~coal
    co = coal & keep

    def _mat(s: np.ndarray, d: np.ndarray) -> sparse.csr_matrix:
        data = np.ones(len(s), dtype=np.int8)
        m = sparse.coo_matrix((data, (s, d)), shape=(n, n)).tocsr()
        m.sum_duplicates()
        return m

    def _sym(mask_: np.ndarray) -> sparse.csr_matrix:
        return _mat(
            np.concatenate([src[mask_], dst[mask_]]),
            np.concatenate([dst[mask_], src[mask_]]),
        )

    return PolicyMatrices(
        up=_mat(src[c2p], dst[c2p]),  # customer stored first
        down=_mat(dst[c2p], src[c2p]),
        peer=_sym(pp),
        coalition=_sym(co),
    )


def _valley_free_reach_counts(
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


def _brokered_directional_reach_counts(
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


def coalition_edges(
    graph: ASGraph,
    brokers: list[int],
    fraction: float,
    *,
    seed: SeedLike = 0,
) -> np.ndarray:
    """Randomly pick ``fraction`` of inter-broker edges for renegotiation.

    Returns a boolean mask over the undirected edge list (Fig. 5b's "30 %
    changes at its inter-broker connections").
    """
    if not 0.0 <= fraction <= 1.0:
        raise AlgorithmError(f"fraction must be in [0, 1], got {fraction}")
    inter = np.flatnonzero(inter_broker_edge_mask(graph, brokers))
    converted = np.zeros(graph.num_edges, dtype=bool)
    if len(inter) and fraction > 0.0:
        take = int(round(fraction * len(inter)))
        if take:
            rng = ensure_rng(seed)
            converted[rng.choice(inter, size=take, replace=False)] = True
    return converted


def policy_connectivity_curve(
    graph: ASGraph,
    brokers: list[int] | None,
    *,
    policy: DirectionalPolicy = DirectionalPolicy.BUSINESS,
    bidirectional_fraction: float = 0.0,
    max_hops: int = 10,
    num_sources: int | None = None,
    seed: SeedLike = 0,
) -> ConnectivityCurve:
    """l-hop E2E connectivity under a routing policy.

    ``policy=FREE`` reduces to the standard (undirected) evaluation.
    Under ``BUSINESS`` the curve counts pairs joined by a B-dominated
    valley-free path; ``bidirectional_fraction`` applies the Fig. 5b
    coalition-edge conversion first (requires ``brokers``).

    The reported ``saturated`` value of a BUSINESS curve is its value at
    ``max_hops`` — directed/policy reachability has no cheap component
    decomposition, and the curves flatten well before 10 hops on
    (0.99, 4)-graphs.
    """
    n = graph.num_nodes
    if n < 2:
        raise AlgorithmError("connectivity requires at least two vertices")
    if policy is DirectionalPolicy.FREE:
        from repro.core.connectivity import connectivity_curve

        return connectivity_curve(
            graph, brokers, max_hops=max_hops, num_sources=num_sources, seed=seed
        )
    coal_mask = None
    if bidirectional_fraction > 0.0:
        if brokers is None:
            raise AlgorithmError(
                "bidirectional_fraction requires an explicit broker set"
            )
        coal_mask = coalition_edges(
            graph, brokers, bidirectional_fraction, seed=seed
        )
    mats = build_policy_matrices(graph, brokers, coalition_edge_mask=coal_mask)
    if num_sources is None or num_sources >= n:
        sources = np.arange(n)
        exact = True
    else:
        rng = ensure_rng(seed)
        sources = rng.choice(n, size=num_sources, replace=False)
        exact = False
    if policy is DirectionalPolicy.DIRECTIONAL:
        counts = _brokered_directional_reach_counts(mats, sources, max_hops)
    else:
        counts = _valley_free_reach_counts(
            mats,
            sources,
            max_hops,
            peer_transit=(policy is DirectionalPolicy.BUSINESS),
        )
    fractions = counts.sum(axis=0) / (len(sources) * (n - 1))
    return ConnectivityCurve(
        fractions=fractions.astype(np.float64),
        saturated=float(fractions[-1]),
        max_hops=max_hops,
        num_sources=len(sources),
        exact=exact,
    )
