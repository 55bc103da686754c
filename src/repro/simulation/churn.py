"""Topology churn and incremental broker-set maintenance.

The Internet the coalition serves is not static: ~4-6 % of ASes appear
or disappear per year and peering links churn continuously.  A broker
set selected once decays; re-running selection from scratch on every
BGP update is the non-starter the paper's centralized design avoids.
This module provides the dynamic machinery:

* :func:`generate_churn_trace` — a reproducible stream of topology
  deltas (stub AS arrivals with providers, AS departures, peering link
  births/deaths) consistent with the generator's structural model;
* :class:`IncrementalBrokerSet` — maintains a broker set under that
  stream: applies deltas to a :class:`repro.core.engine.DominationEngine`,
  tracks the covered set incrementally, and *patches* the broker set
  (greedy, budgeted) when coverage drops below a target — the repair is
  O(affected neighbourhood), not O(graph);
  Repairs recruit through
  :func:`repro.resilience.healing.best_coverage_candidate`, the same
  scan the SLA self-healer uses.

The invariant tests assert that the incrementally maintained coverage
always equals a from-scratch recomputation on the current topology; a
from-scratch maintainer over adjacency sets lives in
``tests/oracles/churn.py`` as the differential reference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.engine import DominationEngine
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.resilience.healing import best_coverage_candidate
from repro.types import NodeKind
from repro.utils.rng import SeedLike, ensure_rng


class ChurnKind(enum.Enum):
    AS_ARRIVAL = "as-arrival"
    AS_DEPARTURE = "as-departure"
    LINK_UP = "link-up"
    LINK_DOWN = "link-down"


@dataclass(frozen=True)
class ChurnEvent:
    """One topology delta.

    ``node`` is set for arrivals/departures; ``endpoints`` for link
    events.  Arrivals carry the new AS's chosen neighbours.
    """

    kind: ChurnKind
    node: int | None = None
    endpoints: tuple[int, int] | None = None
    neighbors: tuple[int, ...] = ()


@dataclass(frozen=True)
class ChurnTrace:
    """A reproducible event stream over a base topology."""

    base: ASGraph
    events: list[ChurnEvent]


def generate_churn_trace(
    graph: ASGraph,
    *,
    num_events: int = 200,
    arrival_fraction: float = 0.3,
    departure_fraction: float = 0.2,
    link_up_fraction: float = 0.3,
    seed: SeedLike = 0,
) -> ChurnTrace:
    """Sample a plausible churn stream.

    Arrivals are stub ASes buying from 1-2 existing transit-ish nodes
    (degree-preferential); departures remove random low-degree stubs
    (hubs do not vanish overnight); link events toggle peering edges.
    Fractions must sum to <= 1; the remainder are LINK_DOWN events.
    """
    total = arrival_fraction + departure_fraction + link_up_fraction
    if total > 1.0 + 1e-9:
        raise AlgorithmError("event fractions must sum to <= 1")
    rng = ensure_rng(seed)
    n = graph.num_nodes
    degrees = graph.degrees().astype(np.float64)
    events: list[ChurnEvent] = []
    next_node = n
    active = set(range(n))
    draws = rng.random(num_events)
    for i in range(num_events):
        r = draws[i]
        if r < arrival_fraction:
            count = int(rng.integers(1, 3))
            pool = np.fromiter(active, dtype=np.int64)
            weights = degrees[pool % n] + 1.0
            weights /= weights.sum()
            neighbors = tuple(
                int(x) for x in rng.choice(pool, size=min(count, len(pool)),
                                           replace=False, p=weights)
            )
            events.append(
                ChurnEvent(ChurnKind.AS_ARRIVAL, node=next_node, neighbors=neighbors)
            )
            active.add(next_node)
            next_node += 1
        elif r < arrival_fraction + departure_fraction:
            # Remove a low-degree original stub that is still active.
            stubs = [
                v for v in active
                if v < n and degrees[v] <= 3 and graph.kinds[v] == int(NodeKind.AS)
            ]
            if not stubs:
                continue
            victim = int(stubs[int(rng.integers(len(stubs)))])
            active.discard(victim)
            events.append(ChurnEvent(ChurnKind.AS_DEPARTURE, node=victim))
        elif r < total:
            pool = np.fromiter(active, dtype=np.int64)
            u, v = rng.choice(pool, size=2, replace=False)
            events.append(
                ChurnEvent(ChurnKind.LINK_UP, endpoints=(int(u), int(v)))
            )
        else:
            if graph.num_edges == 0:
                continue
            e = int(rng.integers(graph.num_edges))
            events.append(
                ChurnEvent(
                    ChurnKind.LINK_DOWN,
                    endpoints=(int(graph.edge_src[e]), int(graph.edge_dst[e])),
                )
            )
    return ChurnTrace(base=graph, events=events)


@dataclass
class RepairStats:
    """Bookkeeping of the maintenance loop."""

    events_applied: int = 0
    repairs_triggered: int = 0
    brokers_added: int = 0
    brokers_retired: int = 0


class IncrementalBrokerSet:
    """Maintains broker coverage under topology churn.

    ``coverage_target`` is the fraction of live vertices that must stay
    covered; when churn pushes coverage below it, the maintainer adds the
    highest-gain candidates adjacent to the covered region (the MaxSG
    rule) until the target holds or ``max_brokers`` is reached.  Brokers
    that depart the topology are retired automatically.

    All state lives in one :class:`~repro.core.engine.DominationEngine`:
    each delta patches the covered mask in O(affected neighbourhood) and
    :meth:`coverage_fraction` is an O(1) counter read.  Departures cut
    the node's live links before failing it, so an id that later
    re-arrives comes back bare.  Repairs scan candidates in sorted order
    (ties break to the smallest id, as in the self-healing loop), so a
    seeded trace replays to a bit-identical broker set.
    """

    def __init__(
        self,
        graph: ASGraph,
        brokers: list[int],
        *,
        coverage_target: float = 0.9,
        max_brokers: int | None = None,
    ) -> None:
        if not 0.0 < coverage_target <= 1.0:
            raise AlgorithmError("coverage_target must be in (0, 1]")
        self._brokers = set(int(b) for b in brokers)
        if not self._brokers:
            raise AlgorithmError("broker set must be non-empty")
        self._engine = DominationEngine(graph, sorted(self._brokers))
        # External id -> engine id, for traces whose arrival ids do not
        # line up with the engine's dense allocation (and the reverse map
        # for reporting).  Empty for generator-produced traces.
        self._alias: dict[int, int] = {}
        self._rev: dict[int, int] = {}
        self._target = coverage_target
        self._max_brokers = max_brokers if max_brokers is not None else len(
            self._brokers
        ) * 2
        self.stats = RepairStats()

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def brokers(self) -> list[int]:
        return sorted(self._brokers)

    @property
    def engine(self) -> DominationEngine:
        """The backing mutable domination state."""
        return self._engine

    def covered_set(self) -> set[int]:
        rev = self._rev
        return {
            rev.get(int(v), int(v))
            for v in np.flatnonzero(self._engine.covered_view)
        }

    def coverage_fraction(self) -> float:
        return self._engine.coverage_fraction()

    def _engine_id(self, node: int) -> int:
        return self._alias.get(node, node)

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply(self, event: ChurnEvent) -> None:
        """Absorb one delta, retiring/repairing brokers as needed."""
        engine = self._engine
        if event.kind is ChurnKind.AS_ARRIVAL:
            assert event.node is not None
            node = int(event.node)
            eng = self._engine_id(node)
            if 0 <= eng < engine.num_nodes:
                # A known id re-arrives: revive it (bare — its links were
                # cut on departure) and attach the new neighbours.
                if not engine.is_alive(eng):
                    engine.restore_node(eng)
                for u in event.neighbors:
                    engine.add_link(eng, self._engine_id(int(u)))
            else:
                neighbors = tuple(
                    self._engine_id(int(u)) for u in event.neighbors
                )
                eng = engine.add_node(neighbors)
                if eng != node:
                    self._alias[node] = eng
                    self._rev[eng] = node
        elif event.kind is ChurnKind.AS_DEPARTURE:
            assert event.node is not None
            node = int(event.node)
            eng = self._engine_id(node)
            known = 0 <= eng < engine.num_nodes
            if node in self._brokers:
                self._brokers.discard(node)
                if known:
                    engine.remove_broker(eng)
                self.stats.brokers_retired += 1
            if known and engine.is_alive(eng):
                for u in [int(x) for x in engine.alive_neighbors(eng)]:
                    engine.cut_link(eng, u)
                engine.fail_node(eng)
        elif event.kind is ChurnKind.LINK_UP:
            assert event.endpoints is not None
            u, v = (self._engine_id(int(x)) for x in event.endpoints)
            if 0 <= u < engine.num_nodes and 0 <= v < engine.num_nodes:
                engine.add_link(u, v)
        elif event.kind is ChurnKind.LINK_DOWN:
            assert event.endpoints is not None
            u, v = (self._engine_id(int(x)) for x in event.endpoints)
            if (
                0 <= u < engine.num_nodes
                and 0 <= v < engine.num_nodes
                and engine.is_alive(u)
                and engine.is_alive(v)
            ):
                engine.cut_link(u, v)
        self.stats.events_applied += 1
        if self.coverage_fraction() < self._target:
            self._repair()

    def run(self, trace: ChurnTrace) -> RepairStats:
        """Apply a whole trace; returns the accumulated statistics."""
        for event in trace.events:
            self.apply(event)
        return self.stats

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def _repair(self) -> None:
        """Greedy patching until the target holds (MaxSG rule).

        Each patch recruits :func:`best_coverage_candidate` — the vertex
        adjacent to the covered region (keeping the dominating-path
        invariant) that covers the most uncovered vertices.
        """
        self.stats.repairs_triggered += 1
        engine = self._engine
        while (
            len(self._brokers) < self._max_brokers
            and engine.coverage_fraction() < self._target
            and (engine.alive_view & ~engine.covered_view).any()
        ):
            best = best_coverage_candidate(
                engine, excluded={self._engine_id(b) for b in self._brokers}
            )
            if best is None:
                break
            engine.add_broker(best)
            self._brokers.add(self._rev.get(best, best))
            self.stats.brokers_added += 1

    # ------------------------------------------------------------------
    # Export for verification
    # ------------------------------------------------------------------
    def snapshot(self) -> ASGraph:
        """Materialize the current topology as an immutable ASGraph.

        Node ids are re-packed densely; used by tests to verify the
        incremental coverage against a from-scratch computation.
        """
        engine = self._engine
        alive = [int(v) for v in np.flatnonzero(engine.alive_view)]
        index = {v: i for i, v in enumerate(alive)}
        edges = [(index[u], index[v]) for u, v in engine.alive_edges()]
        return ASGraph.from_edges(len(alive), edges)

    def snapshot_brokers(self) -> list[int]:
        """Broker ids re-packed to match :meth:`snapshot`."""
        engine = self._engine
        alive = [int(v) for v in np.flatnonzero(engine.alive_view)]
        index = {v: i for i, v in enumerate(alive)}
        roster = sorted(self._engine_id(b) for b in self._brokers)
        return [index[b] for b in roster if b in index]
