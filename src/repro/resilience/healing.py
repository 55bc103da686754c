"""SLA monitoring and budgeted self-healing of the broker set.

The coalition sells a guarantee — saturated E2E connectivity — so the
natural SLA is *stay within a threshold of the pre-fault baseline*.
:class:`SelfHealingBrokerSet` absorbs :class:`FaultEvent` deltas, keeps
the degraded topology and broker roster, and, whenever connectivity
falls below the SLA, runs a budgeted greedy *repair*: the same
connected-growth patching rule as
:class:`repro.simulation.churn.IncrementalBrokerSet`, but driven by the
connectivity SLA instead of a coverage target, and with a per-incident
spare budget (a coalition cannot recruit unbounded replacements
overnight).

Everything is deterministic: candidate scans are sorted, ties break to
the smallest id, and no RNG is consulted — so a seeded fault schedule
replays to bit-identical broker sets and repair records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import DominationEngine
from repro.exceptions import AlgorithmError, ResilienceError
from repro.graph.asgraph import ASGraph
from repro.resilience.faults import FaultEvent, FaultKind


def best_coverage_candidate(
    engine: DominationEngine, *, excluded: set[int]
) -> int | None:
    """Highest coverage-gain recruit under the MaxSG connected-growth rule.

    Candidates are the covered region and its frontier (so the dominated
    region keeps growing connectedly), falling back to uncovered
    vertices when faults have detached whole regions; a dead vertex
    gains 0, so it is never picked.  ``excluded`` vertices (current
    brokers, crashed brokers, pending recruits) are never eligible.
    Deterministic: candidates scan in ascending id and ties break to the
    smallest id.  Shared by the SLA self-healer, the convergence
    simulator's repair planner and the churn maintainer
    (``IncrementalBrokerSet._repair``), so all three make identical
    recruiting decisions.
    """
    covered = engine.covered_view
    candidates: set[int] = set()
    for v in np.flatnonzero(covered):
        v = int(v)
        candidates.add(v)
        candidates.update(int(u) for u in engine.alive_neighbors(v))
    candidates -= excluded
    if not candidates:
        candidates = set(int(v) for v in np.flatnonzero(~covered)) - excluded
    best, best_gain = None, 0
    for c in sorted(candidates):
        gain = engine.marginal_gain(c)
        if gain > best_gain:
            best, best_gain = c, gain
    return best


def best_bridge_candidate(
    engine: DominationEngine,
    *,
    excluded: set[int],
    current: float,
    probe_limit: int = 20,
) -> int | None:
    """Fallback when no recruit gains coverage: bridge components.

    Full coverage does not imply a connected dominated graph — link cuts
    can split it while every vertex still touches a broker.  A new
    broker then helps by dominating the edges *around* itself, so the
    top-``probe_limit`` highest-degree non-excluded vertices are scored
    by their actual connectivity delta.  The engine answers each probe
    in O(deg) from its union-find (``connectivity_if_added``) instead of
    a full dominated-graph rebuild per probe.
    """
    alive_degrees = engine.alive_degrees()
    degrees = {
        v: int(alive_degrees[v]) for v in range(engine.num_nodes)
        if v not in excluded
    }
    if not degrees:
        return None
    probes = sorted(degrees, key=lambda v: (-degrees[v], v))[:probe_limit]
    best, best_value = None, current
    for c in probes:
        value = engine.connectivity_if_added(c)
        if value > best_value + 1e-15:
            best, best_value = c, value
    return best


@dataclass(frozen=True)
class SlaPolicy:
    """When to repair and how much repair is allowed.

    ``threshold`` is relative: the SLA is violated when saturated
    connectivity drops below ``threshold × baseline``.  Each violation
    may recruit at most ``repair_budget`` replacement brokers, and the
    whole campaign at most ``max_total_added`` (``None`` = unbounded).
    """

    threshold: float = 0.9
    repair_budget: int = 5
    max_total_added: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise AlgorithmError("SLA threshold must be in (0, 1]")
        if self.repair_budget < 0:
            raise AlgorithmError("repair_budget must be >= 0")


@dataclass(frozen=True)
class RepairRecord:
    """One SLA-triggered repair incident."""

    step: int
    before: float
    after: float
    added: tuple[int, ...]
    healed: bool


class SelfHealingBrokerSet:
    """Broker set + degraded topology under a fault stream.

    All state lives in one :class:`~repro.core.engine.DominationEngine`:
    faults and repairs patch it per event (O(affected neighborhood))
    instead of rebuilding masks, and connectivity probes after a repair
    are O(1) pair-sum queries against its union-find.  Crashed brokers
    are parked in a ``down`` set: they stop dominating edges but may
    return via ``BROKER_UP`` (flapping), at which point they resume
    service — replacements recruited meanwhile simply stay.
    """

    def __init__(
        self,
        graph: ASGraph,
        brokers: list[int],
        *,
        policy: SlaPolicy | None = None,
    ) -> None:
        self._graph = graph
        brokers = sorted(dict.fromkeys(int(b) for b in brokers))
        if not brokers:
            raise AlgorithmError("broker set must be non-empty")
        for b in brokers:
            if not 0 <= b < graph.num_nodes:
                raise AlgorithmError(f"broker id {b} out of range")
        self.policy = policy or SlaPolicy()
        self._engine = DominationEngine(graph, brokers)
        self._active = set(brokers)
        self._down: set[int] = set()
        self.added: list[int] = []
        self.repairs: list[RepairRecord] = []
        self.baseline = self.connectivity()

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def active_brokers(self) -> list[int]:
        return sorted(self._active)

    @property
    def down_brokers(self) -> list[int]:
        return sorted(self._down)

    @property
    def sla_target(self) -> float:
        return self.policy.threshold * self.baseline

    @property
    def engine(self) -> DominationEngine:
        """The backing mutable domination state."""
        return self._engine

    def connectivity(self) -> float:
        """Saturated connectivity of the degraded dominated graph."""
        return self._engine.saturated_connectivity()

    def covered_mask(self) -> np.ndarray:
        """Vertices covered by the active brokers on the degraded topology."""
        return self._engine.covered_view.copy()

    # ------------------------------------------------------------------
    # Fault application
    # ------------------------------------------------------------------
    def apply(self, event: FaultEvent) -> None:
        """Absorb one fault delta (no SLA check — see :meth:`maybe_repair`).

        A malformed event — a broker event without a ``node``, a link
        cut without ``endpoints`` — raises a structured
        :class:`~repro.exceptions.ResilienceError` instead of tripping a
        bare assertion.
        """
        if event.kind is FaultKind.BROKER_DOWN:
            if event.node is None:
                raise ResilienceError(
                    "BROKER_DOWN event carries no node", step=event.step
                )
            if event.node in self._active:
                self._active.discard(event.node)
                self._down.add(event.node)
                self._engine.remove_broker(event.node)
        elif event.kind is FaultKind.BROKER_UP:
            if event.node is None:
                raise ResilienceError(
                    "BROKER_UP event carries no node", step=event.step
                )
            if event.node in self._down:
                self._down.discard(event.node)
                self._active.add(event.node)
                self._engine.add_broker(event.node)
        elif event.kind is FaultKind.LINK_CUT:
            if event.endpoints is None:
                raise ResilienceError(
                    "LINK_CUT event carries no endpoints", step=event.step
                )
            u, v = event.endpoints
            self._engine.cut_link(int(u), int(v))

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def recruit(self, broker: int) -> bool:
        """Activate ``broker`` directly, bypassing the SLA check.

        The install path of the convergence simulator, where *planning*
        (a checkpointed dry run of the repair rule) and *installation*
        (this call, after the control-plane latency elapses) happen at
        different times.  Returns ``False`` when the vertex is already
        an active or crashed broker.
        """
        broker = int(broker)
        if broker in self._active or broker in self._down:
            return False
        self._active.add(broker)
        self._engine.add_broker(broker)
        self.added.append(broker)
        return True

    def maybe_repair(self, step: int, *, current: float | None = None) -> RepairRecord | None:
        """Check the SLA and, if violated, run one budgeted repair.

        ``current`` short-circuits the connectivity probe when the caller
        already measured it.  Returns the :class:`RepairRecord`, or
        ``None`` when the SLA holds.
        """
        value = self.connectivity() if current is None else current
        if value >= self.sla_target:
            return None
        before = value
        added: list[int] = []
        budget = self.policy.repair_budget
        if self.policy.max_total_added is not None:
            budget = min(budget, self.policy.max_total_added - len(self.added))
        while budget > 0 and value < self.sla_target:
            candidate = self._best_candidate()
            if candidate is None:
                candidate = self._best_bridge(value)
            if candidate is None:
                break
            self._active.add(candidate)
            self._engine.add_broker(candidate)
            self.added.append(candidate)
            added.append(candidate)
            budget -= 1
            value = self.connectivity()
        record = RepairRecord(
            step=step,
            before=before,
            after=value,
            added=tuple(added),
            healed=value >= self.sla_target,
        )
        self.repairs.append(record)
        return record

    def _best_candidate(self) -> int | None:
        """Delegates to :func:`best_coverage_candidate`; crashed brokers
        are not eligible — they are down, not for hire."""
        return best_coverage_candidate(
            self._engine, excluded=self._active | self._down
        )

    def _best_bridge(self, current: float, *, probe_limit: int = 20) -> int | None:
        """Delegates to :func:`best_bridge_candidate` over non-brokers."""
        return best_bridge_candidate(
            self._engine,
            excluded=self._active | self._down,
            current=current,
            probe_limit=probe_limit,
        )
