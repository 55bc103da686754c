"""First-class attributed multigraph over the AS/IXP node universe.

*Investigating the Potential of the Inter-IXP Multigraph* shows the real
inter-domain substrate is not a simple graph: two networks meeting at
several exchanges (or over both a transit contract and a public fabric)
have several **parallel links** with heterogeneous capacity and latency.
The :class:`ASGraph` deliberately models the paper's simple topology —
its constructor rejects duplicate edges — so this module adds the layer
underneath capacity-aware provisioning:

* :class:`MultiGraph` — parallel **edge instances** with stable integer
  edge ids, each carrying :class:`~repro.graph.asgraph.EdgeAttributes`
  (``capacity_gbps`` / ``latency_ms`` / ``link_kind``) plus the usual
  business relationship, over the same node metadata an
  :class:`ASGraph` carries;
* :meth:`MultiGraph.simplify` — the projection onto a simple
  :class:`ASGraph` that every pre-existing algorithm (domination,
  connectivity, greedy selection, the engine) runs on.  The projection
  is *provably conservative*: it keeps the first instance of every
  parallel class in first-occurrence order, so a multigraph lifted from
  a simple graph simplifies back to a byte-identical topology (equal
  ``digest()``), and the differential suite pins every algorithm to the
  pre-refactor simple-graph results;
* :func:`synthesize_edge_attributes` — vectorized seeded attribute
  synthesis (the NumPy replacement for the per-edge Python loop in
  ``routing.qos.synthesize_link_metrics``).

Collapse semantics of ``simplify``: a bundle of parallel instances
between the same endpoints aggregates to one simple edge whose capacity
is the **sum** of instance capacities (the bundle's aggregate provision)
and whose latency is the **minimum** (traffic takes the best member);
the relationship and link kind come from the representative (first)
instance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.exceptions import GraphValidationError
from repro.graph.asgraph import ASGraph, EdgeAttributes
from repro.graph.csr import MultiCSRAdjacency, build_multi_csr
from repro.types import LinkKind, NodeKind, Relationship
from repro.utils.rng import SeedLike, ensure_rng

__all__ = [
    "MultiGraph",
    "SimplifiedView",
    "synthesize_edge_attributes",
]


@dataclass(frozen=True)
class SimplifiedView:
    """The simple-graph projection of a :class:`MultiGraph`.

    ``graph`` is the collapsed :class:`ASGraph`; ``edge_of_instance``
    maps every multigraph edge-instance id to the simple edge index it
    collapsed into, and ``representative`` maps each simple edge back to
    the (first-seen) instance id that named it.  ``group_sizes[e]`` is
    the number of parallel instances behind simple edge ``e``.
    """

    graph: ASGraph
    edge_of_instance: np.ndarray
    representative: np.ndarray
    group_sizes: np.ndarray


@dataclass(frozen=True)
class MultiGraph:
    """Attributed multigraph: parallel edges with stable instance ids.

    Build instances with :meth:`from_arrays` (validating) or
    :meth:`from_asgraph` (lifting a simple graph); the edge-instance id
    of row ``i`` is simply ``i``, and it stays valid for the lifetime of
    the (immutable) multigraph — attribute arrays, the multi-CSR slots
    and the admission layer's residual-capacity accounting all index by
    it.
    """

    num_nodes_: int
    kinds: np.ndarray
    tiers: np.ndarray
    categories: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_rels: np.ndarray
    attrs: EdgeAttributes
    names: tuple[str, ...] = field(default=())

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        num_nodes: int,
        src: np.ndarray | Sequence[int],
        dst: np.ndarray | Sequence[int],
        *,
        attrs: EdgeAttributes,
        relationships: np.ndarray | Sequence[int] | None = None,
        kinds: np.ndarray | Sequence[int] | None = None,
        tiers: np.ndarray | Sequence[int] | None = None,
        categories: np.ndarray | Sequence[int] | None = None,
        names: Sequence[str] | None = None,
    ) -> "MultiGraph":
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise GraphValidationError(
                f"src/dst must be 1-D and aligned: {src.shape} vs {dst.shape}"
            )
        m = len(src)
        if m and (
            min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= num_nodes
        ):
            raise GraphValidationError(
                f"edge endpoint out of range [0, {num_nodes})"
            )
        if np.any(src == dst):
            raise GraphValidationError("self-loops are not allowed in a MultiGraph")
        if len(attrs) != m:
            raise GraphValidationError(
                f"attrs must carry {m} rows, got {len(attrs)}"
            )
        if relationships is None:
            rels = np.full(m, int(Relationship.PEER_TO_PEER), dtype=np.uint8)
        else:
            rels = np.asarray(relationships, dtype=np.uint8)
            if rels.shape != (m,):
                raise GraphValidationError(
                    f"relationships must have shape ({m},), got {rels.shape}"
                )
        if kinds is None:
            kinds_arr = np.full(num_nodes, int(NodeKind.AS), dtype=np.uint8)
        else:
            kinds_arr = np.asarray(kinds, dtype=np.uint8)
            if kinds_arr.shape != (num_nodes,):
                raise GraphValidationError(
                    f"kinds must have shape ({num_nodes},), got {kinds_arr.shape}"
                )
        if tiers is None:
            tiers_arr = np.zeros(num_nodes, dtype=np.uint8)
        else:
            tiers_arr = np.asarray(tiers, dtype=np.uint8)
        if categories is None:
            categories_arr = np.zeros(num_nodes, dtype=np.uint8)
        else:
            categories_arr = np.asarray(categories, dtype=np.uint8)
        if names is not None and len(names) != num_nodes:
            raise GraphValidationError(
                f"names must have length {num_nodes}, got {len(names)}"
            )
        return cls(
            num_nodes_=num_nodes,
            kinds=kinds_arr,
            tiers=tiers_arr,
            categories=categories_arr,
            edge_src=src,
            edge_dst=dst,
            edge_rels=rels,
            attrs=attrs,
            names=tuple(names) if names is not None else (),
        )

    @classmethod
    def from_asgraph(
        cls, graph: ASGraph, attrs: EdgeAttributes | None = None
    ) -> "MultiGraph":
        """Lift a simple graph: one instance per edge, ids = edge indices.

        ``attrs`` defaults to the graph's own ``edge_attrs``; a graph
        carrying neither is rejected because a multigraph without
        capacities cannot feed the admission layer.
        """
        if attrs is None:
            attrs = graph.edge_attrs
        if attrs is None:
            raise GraphValidationError(
                "from_asgraph needs edge attributes: pass attrs= or attach "
                "them to the graph via with_edge_attrs()"
            )
        if len(attrs) != graph.num_edges:
            raise GraphValidationError(
                f"attrs must carry {graph.num_edges} rows, got {len(attrs)}"
            )
        return cls(
            num_nodes_=graph.num_nodes,
            kinds=graph.kinds,
            tiers=graph.tiers,
            categories=graph.categories,
            edge_src=graph.edge_src,
            edge_dst=graph.edge_dst,
            edge_rels=graph.edge_rels,
            attrs=attrs,
            names=graph.names,
        )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.num_nodes_

    @property
    def num_edge_instances(self) -> int:
        """Parallel edge instances, each counted once (undirected)."""
        return len(self.edge_src)

    @cached_property
    def multi_adj(self) -> MultiCSRAdjacency:
        """Symmetric parallel-edge CSR with per-slot instance ids."""
        return build_multi_csr(
            self.num_nodes_, self.edge_src, self.edge_dst, symmetric=True
        )

    def digest(self) -> str:
        """Domain-tagged SHA-256 content digest.

        Covers node metadata, the full instance arrays and every
        attribute array, behind a ``multigraph:v1`` tag — so a multigraph
        can never collide with the :class:`ASGraph` digest of its own
        simplified projection, and two multigraphs differing only in one
        instance's capacity digest differently.
        """
        h = hashlib.sha256()
        h.update(b"multigraph:v1")
        arrays = (
            self.kinds,
            self.tiers,
            self.categories,
            self.edge_src,
            self.edge_dst,
            self.edge_rels,
            *self.attrs.digest_arrays(),
        )
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            h.update(str(arr.dtype).encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        h.update(json.dumps(list(self.names)).encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # The simple-graph projection
    # ------------------------------------------------------------------
    @cached_property
    def _grouping(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(edge_of_instance, representative, group_sizes) — see simplify."""
        m = self.num_edge_instances
        lo = np.minimum(self.edge_src, self.edge_dst)
        hi = np.maximum(self.edge_src, self.edge_dst)
        key = lo * np.int64(self.num_nodes_) + hi
        # First-occurrence order: sort unique keys by the index of their
        # first instance so a parallel-free multigraph keeps the exact
        # edge order of the underlying ASGraph edge list.
        uniq, first, inverse, counts = np.unique(
            key, return_index=True, return_inverse=True, return_counts=True
        )
        order = np.argsort(first, kind="stable")
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[order] = np.arange(len(uniq), dtype=np.int64)
        edge_of_instance = rank[inverse].astype(np.int64)
        representative = first[order].astype(np.int64)
        group_sizes = counts[order].astype(np.int64)
        return edge_of_instance, representative, group_sizes

    def simplify(self, *, annotate: bool = True) -> SimplifiedView:
        """Collapse parallel instances into a simple :class:`ASGraph`.

        The projection keeps the representative (first-seen) instance of
        every parallel class, in first-occurrence order and with its
        original orientation and relationship — so when the multigraph
        has no parallel edges the projected graph is **byte-identical**
        (equal ``digest()``) to ``ASGraph.from_edges`` over the same
        arrays, and every topology algorithm produces bit-identical
        output on either.

        With ``annotate=True`` (the default) the projected graph carries
        aggregated :class:`EdgeAttributes` — capacity summed over each
        bundle, latency the bundle minimum, kind from the representative;
        ``annotate=False`` returns the bare topology (whose digest then
        matches the historical unannotated graph exactly).
        """
        edge_of_instance, representative, group_sizes = self._grouping
        n_simple = len(representative)
        edges = np.stack(
            [self.edge_src[representative], self.edge_dst[representative]],
            axis=1,
        )
        attrs = None
        if annotate:
            capacity = np.zeros(n_simple, dtype=np.float64)
            np.add.at(capacity, edge_of_instance, self.attrs.capacity_gbps)
            latency = np.full(n_simple, np.inf, dtype=np.float64)
            np.minimum.at(latency, edge_of_instance, self.attrs.latency_ms)
            attrs = EdgeAttributes(
                capacity_gbps=capacity,
                latency_ms=latency,
                link_kind=self.attrs.link_kind[representative],
            )
        graph = ASGraph.from_edges(
            self.num_nodes_,
            edges,
            kinds=self.kinds,
            tiers=self.tiers,
            categories=self.categories,
            relationships=self.edge_rels[representative],
            names=self.names if self.names else None,
            edge_attrs=attrs,
        )
        return SimplifiedView(
            graph=graph,
            edge_of_instance=edge_of_instance,
            representative=representative,
            group_sizes=group_sizes,
        )

    def best_instance_per_edge(
        self,
        min_capacity_gbps: float = 0.0,
        *,
        capacity_gbps: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Min-latency instance of every simple edge above a capacity floor.

        Returns ``(instance_id, latency_ms)`` arrays indexed by simple
        edge; edges whose every parallel instance falls below the floor
        get instance ``-1`` and latency ``inf``.  The floor applies to
        ``capacity_gbps`` (one entry per instance, e.g. a residual
        vector), the instances' own capacity by default.  This is the
        "min-latency-over-max-capacity" selection rule the QoS router
        applies across parallel edges, vectorized over the whole edge
        set.
        """
        if capacity_gbps is None:
            capacity_gbps = self.attrs.capacity_gbps
        elif len(capacity_gbps) != self.num_edge_instances:
            raise GraphValidationError(
                f"capacity array carries {len(capacity_gbps)} instances, "
                f"multigraph has {self.num_edge_instances}"
            )
        edge_of_instance, representative, _ = self._grouping
        n_simple = len(representative)
        ok = capacity_gbps >= min_capacity_gbps
        latency = np.where(ok, self.attrs.latency_ms, np.inf)
        best_latency = np.full(n_simple, np.inf, dtype=np.float64)
        np.minimum.at(best_latency, edge_of_instance, latency)
        # Deterministic winner: the smallest instance id achieving the
        # bundle's best latency.
        achieves = latency == best_latency[edge_of_instance]
        best_instance = np.full(n_simple, np.iinfo(np.int64).max, dtype=np.int64)
        ids = np.arange(self.num_edge_instances, dtype=np.int64)
        np.minimum.at(
            best_instance, edge_of_instance[achieves], ids[achieves]
        )
        best_instance[~np.isfinite(best_latency)] = -1
        return best_instance, best_latency

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n_simple = len(self._grouping[1])
        return (
            f"MultiGraph(n={self.num_nodes_}, instances="
            f"{self.num_edge_instances} over {n_simple} simple edges)"
        )


def synthesize_edge_attributes(
    graph: ASGraph,
    *,
    seed: SeedLike = 0,
    src: np.ndarray | None = None,
    dst: np.ndarray | None = None,
    rels: np.ndarray | None = None,
    link_kind: np.ndarray | None = None,
) -> EdgeAttributes:
    """Vectorized seeded capacity/latency/kind synthesis.

    By default annotates ``graph``'s own canonical edge list; pass
    ``src``/``dst``/``rels`` to annotate an extended instance list (the
    parallel IXP-fabric instances the multigraph generators add).  Ranges
    follow the historical ``synthesize_link_metrics`` model —

    * IXP membership links: metro-area fabrics — 0.5-3 ms, 10-100 Gbps;
    * peering links: 2-25 ms, 10-100 Gbps;
    * customer/provider circuits: 5-60 ms, 1-40 Gbps with capacity
      loosely increasing in the provider's degree —

    but drawn in one vectorized pass per relationship class, so a
    347k-edge full-scale annotation is a few array operations rather
    than 347k RNG round-trips.
    """
    rng = ensure_rng(seed)
    if src is None:
        src, dst, rels = graph.edge_src, graph.edge_dst, graph.edge_rels
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    rels = np.asarray(rels, dtype=np.uint8)
    m = len(src)
    degrees = graph.degrees()

    latency = np.empty(m, dtype=np.float64)
    capacity = np.empty(m, dtype=np.float64)
    kind = np.empty(m, dtype=np.uint8)

    member = rels == int(Relationship.IXP_MEMBERSHIP)
    peer = rels == int(Relationship.PEER_TO_PEER)
    c2p = ~member & ~peer

    # One uniform draw per edge per quantity keeps the stream layout
    # independent of the relationship mix.
    u_lat = rng.random(m)
    u_cap = rng.random(m)

    latency[member] = 0.5 + 2.5 * u_lat[member]
    capacity[member] = 10.0 + 90.0 * u_cap[member]
    kind[member] = int(LinkKind.IXP_PORT)

    latency[peer] = 2.0 + 23.0 * u_lat[peer]
    capacity[peer] = 10.0 + 90.0 * u_cap[peer]
    kind[peer] = int(LinkKind.PRIVATE_PEERING)

    latency[c2p] = 5.0 + 55.0 * u_lat[c2p]
    provider_deg = degrees[dst[c2p]].astype(np.float64)
    scale = 1.0 + 39.0 * np.minimum(provider_deg / max(degrees.max(), 1), 1.0)
    capacity[c2p] = 1.0 + (scale - 1.0) * u_cap[c2p]
    kind[c2p] = int(LinkKind.TRANSIT_CIRCUIT)

    if link_kind is not None:
        kind = np.asarray(link_kind, dtype=np.uint8)
    return EdgeAttributes(
        capacity_gbps=capacity, latency_ms=latency, link_kind=kind
    )
