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

Reachability under these semantics is a BFS on a product graph of
(vertex, state): UP and DOWN for BUSINESS, plus an absorbing TERM for
STRICT_BUSINESS, and SRC → INT → TERM for DIRECTIONAL.  The product graph
is one sparse block matrix, and the bit-parallel kernel
(:func:`repro.graph.bitset.bitset_hop_reach` with ``states``) searches
it, so policy curves run on the same engine as every other curve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.connectivity import ConnectivityCurve, connectivity_curve
from repro.core.domination import broker_mask, dominated_edge_mask
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.graph.bitset import bitset_hop_reach
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


def _product_matrix(
    mats: PolicyMatrices, policy: DirectionalPolicy
) -> tuple[sparse.csr_matrix, int]:
    """One sparse block matrix over (state, vertex) for ``policy``'s BFS.

    Block ``[i][j]`` holds the hops that move from state ``i`` to state
    ``j``; the walk starts in state 0.

    * BUSINESS (UP, DOWN): UP→UP climbs or crosses a coalition edge; the
      single peer hop (or any descent) is the peak, UP→DOWN; DOWN→DOWN
      descends or crosses a coalition edge.
    * STRICT_BUSINESS (UP, DOWN, TERM): as BUSINESS, but a peer hop only
      delivers to the peer itself, UP→TERM, and TERM has no hops.
    * DIRECTIONAL (SRC, INT, TERM): the source's first hop may use any
      dominated edge, SRC→INT; interior hops only climb or cross coalition
      edges, INT→INT; the last hop may use any edge again, INT→TERM.
    """
    up, down, peer, coal = mats.up, mats.down, mats.peer, mats.coalition
    # ``bmat`` infers each block row's and column's size from its blocks,
    # so a state nothing enters (SRC) or leaves (TERM) needs an explicit
    # all-zero block.
    zero = sparse.csr_matrix(up.shape, dtype=up.dtype)
    if policy is DirectionalPolicy.BUSINESS:
        blocks = [[up + coal, down + peer], [None, down + coal]]
    elif policy is DirectionalPolicy.STRICT_BUSINESS:
        blocks = [
            [up + coal, down, peer],
            [None, down + coal, None],
            [None, None, zero],
        ]
    else:
        anyhop = up + down + peer + coal
        blocks = [
            [zero, anyhop, None],
            [None, up + coal, anyhop],
            [None, None, zero],
        ]
    return sparse.bmat(blocks, format="csr"), len(blocks)


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

    Every policy runs as one call of the bit-parallel kernel on the
    policy's (state, vertex) product graph.
    """
    n = graph.num_nodes
    if n < 2:
        raise AlgorithmError("connectivity requires at least two vertices")
    if max_hops < 1:
        raise AlgorithmError(f"max_hops must be >= 1, got {max_hops}")
    if num_sources is not None and num_sources < 1:
        raise AlgorithmError(f"num_sources must be >= 1, got {num_sources}")
    if not 0.0 <= bidirectional_fraction <= 1.0:
        raise AlgorithmError(
            "bidirectional_fraction must be in [0, 1], got "
            f"{bidirectional_fraction}"
        )
    if policy is DirectionalPolicy.FREE:
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
    product, states = _product_matrix(mats, policy)
    # State 0 occupies product ids 0..n-1, so base ids are start ids.
    totals = bitset_hop_reach(
        product, sources, max_hops, aggregate=True, states=states
    )
    fractions = totals / (len(sources) * (n - 1))
    return ConnectivityCurve(
        fractions=fractions.astype(np.float64),
        saturated=float(fractions[-1]),
        max_hops=max_hops,
        num_sources=len(sources),
        exact=exact,
    )
