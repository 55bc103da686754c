"""Brokered path establishment: stitching, SLAs, broker-only statistics.

This is the *data-plane view* of the brokerage scheme: given a broker set
``B``, a :class:`BrokerRouter` answers path requests with B-dominated
routes, models the SLA a customer signs with the coalition, and reports
which routes needed non-broker "employee" ASes (the economic model's hired
transits, Fig. 6's AS 5).

Fig. 5a's headline — *more than 90 % of E2E connections can be carried by
the 3,540-alliance solely* — is reproduced by
:func:`broker_only_fraction`, which measures how often a shortest
B-dominated path exists whose interior vertices are all brokers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engine import DominationEngine
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.graph.csr import bfs_parents, build_csr
from repro.graph.multigraph import MultiGraph
from repro.routing.qos import MultiQoSPath, MultiQoSRouter
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class ServiceLevelAgreement:
    """Terms a customer AS signs with the broker coalition.

    Prices are per unit traffic volume, mirroring Section 7's model: the
    coalition charges both endpoints ``price`` and guarantees an E2E path
    of at most ``max_hops`` hops dominated by the coalition.
    """

    customer: int
    price: float
    max_hops: int = 8

    def __post_init__(self) -> None:
        if self.price < 0:
            raise AlgorithmError("SLA price must be non-negative")
        if self.max_hops < 1:
            raise AlgorithmError("SLA max_hops must be >= 1")


@dataclass(frozen=True)
class BrokeredRoute:
    """A route served by the brokerage."""

    source: int
    destination: int
    path: list[int]
    #: Interior vertices that are not brokers — the "employees" the
    #: coalition must hire (and pay) to complete this route.
    hired_transits: list[int] = field(default_factory=list)

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    @property
    def broker_only(self) -> bool:
        """True when no non-broker interior vertex was needed."""
        return not self.hired_transits


class BrokerRouter:
    """Serves B-dominated routes over a fixed topology and broker set.

    The dominated adjacency, broker mask, and broker-interior adjacency
    all come from a :class:`~repro.core.engine.DominationEngine` snapshot,
    so the data plane and the selection algorithms share one definition
    of ``B ⊙ A``.  :meth:`from_engine` builds a router over a *degraded*
    engine (failed nodes, cut links) — routes then use only alive edges.
    """

    def __init__(self, graph: ASGraph, brokers: list[int]) -> None:
        if not brokers:
            raise AlgorithmError("broker set must be non-empty")
        for b in brokers:
            if not 0 <= int(b) < graph.num_nodes:
                raise AlgorithmError(f"broker id {b} out of range")
        self._init_from_engine(
            DominationEngine(graph, dict.fromkeys(int(b) for b in brokers))
        )

    @classmethod
    def from_engine(cls, engine: DominationEngine) -> "BrokerRouter":
        """Router over the engine's *current* (possibly degraded) state.

        The router is a snapshot: later engine mutations do not update it.
        """
        if not engine.brokers():
            raise AlgorithmError("broker set must be non-empty")
        router = cls.__new__(cls)
        router._init_from_engine(engine)
        return router

    @classmethod
    def over_multigraph(
        cls, multigraph: MultiGraph, brokers: list[int]
    ) -> "BrokerRouter":
        """Router over a multigraph's dominated simplified view.

        Hop-count routes (:meth:`route`) behave exactly as on the simple
        projection; :meth:`route_demand` additionally serves guaranteed-
        bandwidth requests by picking, on every hop, the min-latency
        parallel instance whose capacity meets the demand.
        """
        if not brokers:
            raise AlgorithmError("broker set must be non-empty")
        engine = DominationEngine(
            multigraph.simplify().graph,
            dict.fromkeys(int(b) for b in brokers),
        )
        router = cls.from_engine(engine)
        router._multigraph = multigraph
        router._engine = engine
        return router

    def route_demand(
        self,
        source: int,
        destination: int,
        demand_gbps: float,
        *,
        residual_gbps=None,
    ) -> MultiQoSPath | None:
        """Min-latency dominated route meeting a bandwidth demand.

        Only available on routers built via :meth:`over_multigraph`.
        ``residual_gbps`` (per edge instance) routes against currently
        *unreserved* capacity — the admission layer threads its residual
        accounting through here.
        """
        if self._multigraph is None or self._engine is None:
            raise AlgorithmError(
                "capacity-aware routing needs a multigraph; build the "
                "router with BrokerRouter.over_multigraph()"
            )
        return MultiQoSRouter(
            self._multigraph,
            demand_gbps=demand_gbps,
            engine=self._engine,
            residual_gbps=residual_gbps,
        ).path(source, destination)

    def _init_from_engine(self, engine: DominationEngine) -> None:
        n = engine.num_nodes
        self._graph = engine.graph
        self._num_nodes = n
        self._brokers = engine.brokers()
        self._mask = engine.effective_broker_mask().copy()
        self._multigraph: MultiGraph | None = None
        self._engine: DominationEngine | None = None
        src, dst = engine.dominated_alive_edges()
        self._dominated = build_csr(n, src, dst)
        # Broker-interior adjacency: edges whose *interior use* is free for
        # the coalition — both endpoints brokers, or one endpoint broker
        # and the other an endpoint of the route (handled at query time by
        # allowing the first/last hop to leave the broker sub-adjacency).
        keep = self._mask[src] & self._mask[dst]
        self._broker_adj = build_csr(n, src[keep], dst[keep])

    @property
    def brokers(self) -> list[int]:
        return list(self._brokers)

    def route(self, source: int, destination: int) -> BrokeredRoute | None:
        """Shortest B-dominated route, or ``None`` when not serveable.

        Prefers a *broker-only* route (interior vertices all brokers) of
        equal length when one exists; otherwise returns the shortest
        dominated route and reports which interior vertices must be hired.
        """
        n = self._num_nodes
        if not (0 <= source < n and 0 <= destination < n):
            raise AlgorithmError("source/destination out of range")
        if source == destination:
            return BrokeredRoute(source, destination, [source])
        parent = bfs_parents(self._dominated, source)
        if parent[destination] == -1:
            return None
        path = [destination]
        while path[-1] != source:
            path.append(int(parent[path[-1]]))
        path.reverse()
        # Try to upgrade to a broker-only route of the same length: route
        # source -> (broker neighbourhood) ... -> destination where all
        # interior vertices are brokers.
        broker_path = self._broker_only_path(source, destination)
        if broker_path is not None and len(broker_path) <= len(path):
            path = broker_path
        hired = [v for v in path[1:-1] if not self._mask[v]]
        return BrokeredRoute(source, destination, path, hired_transits=hired)

    def _broker_only_path(self, source: int, destination: int) -> list[int] | None:
        """Shortest path whose interior is entirely inside the broker set."""
        # BFS over brokers, seeded by the source's broker neighbours.  An
        # endpoint-to-broker edge is dominated by definition, so the
        # dominated adjacency holds exactly the gate edges we need.
        seeds = [
            int(v) for v in self._dominated.neighbors(source) if self._mask[v]
        ]
        if self._mask[source]:
            seeds.append(source)
        if not seeds:
            return None
        dest_gate = set(
            int(v)
            for v in self._dominated.neighbors(destination)
            if self._mask[v]
        )
        if self._mask[destination]:
            dest_gate.add(destination)
        if not dest_gate:
            return None
        parent = {s: source for s in seeds}
        frontier = list(dict.fromkeys(seeds))
        hit: int | None = None
        for s in frontier:
            if s in dest_gate:
                hit = s
                break
        while frontier and hit is None:
            nxt: list[int] = []
            for u in frontier:
                for w in self._broker_adj.neighbors(u):
                    w = int(w)
                    if w in parent or w == source:
                        continue
                    parent[w] = u
                    if w in dest_gate:
                        hit = w
                        break
                    nxt.append(w)
                if hit is not None:
                    break
            frontier = nxt
        if hit is None:
            return None
        path = [hit]
        while path[-1] != source:
            path.append(parent[path[-1]])
        path.reverse()
        if path[-1] != destination:
            path.append(destination)
        if path[0] != source:  # pragma: no cover - defensive
            raise AlgorithmError("path reconstruction failed")
        return path

    def serve(self, sla: ServiceLevelAgreement, destination: int) -> BrokeredRoute | None:
        """Serve a route under an SLA's hop bound (``None`` = SLA breach)."""
        route = self.route(sla.customer, destination)
        if route is None or route.hops > sla.max_hops:
            return None
        return route


def broker_only_fraction(
    graph: ASGraph,
    brokers: list[int],
    *,
    num_pairs: int = 2000,
    seed: SeedLike = 0,
) -> float:
    """Fraction of serveable pairs carried without hiring non-brokers.

    Samples random *serveable* pairs (a B-dominated path exists) and
    checks whether a broker-only route of equal-or-shorter length exists —
    Fig. 5a's ">90 % of E2E connections use only broker-set nodes".
    """
    router = BrokerRouter(graph, brokers)
    rng = ensure_rng(seed)
    n = graph.num_nodes
    served = 0
    broker_only = 0
    attempts = 0
    max_attempts = num_pairs * 20
    while served < num_pairs and attempts < max_attempts:
        attempts += 1
        u, v = rng.integers(n), rng.integers(n)
        if u == v:
            continue
        route = router.route(int(u), int(v))
        if route is None:
            continue
        served += 1
        if route.broker_only:
            broker_only += 1
    if served == 0:
        return 0.0
    return broker_only / served
