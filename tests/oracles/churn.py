"""From-scratch churn maintainer over adjacency sets.

:class:`repro.simulation.churn.IncrementalBrokerSet` keeps its state in
a :class:`~repro.core.engine.DominationEngine`.  The reference below
applies the same events with the same repair rule to plain adjacency
sets and rebuilds the covered set on every query.  The differential
property and the engine speedup benchmark require identical brokers,
coverage and statistics from both.
"""

from __future__ import annotations

from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.simulation.churn import ChurnEvent, ChurnKind, ChurnTrace, RepairStats


class MutableTopology:
    """Adjacency-set view of an ASGraph that absorbs topology deltas.

    The reference maintainer's whole topology state: a mutable adjacency
    with node/link add/remove and an ``alive`` set, without rebuilding
    the immutable :class:`ASGraph`.
    """

    def __init__(self, graph: ASGraph) -> None:
        self.adjacency: dict[int, set[int]] = {
            v: set(int(x) for x in graph.neighbors(v)) for v in range(graph.num_nodes)
        }
        self.alive: set[int] = set(range(graph.num_nodes))

    def add_node(self, node: int, neighbors: tuple[int, ...]) -> None:
        self.adjacency.setdefault(node, set())
        self.alive.add(node)
        for u in neighbors:
            if u in self.alive and u != node:
                self.adjacency[node].add(u)
                self.adjacency.setdefault(u, set()).add(node)

    def remove_node(self, node: int) -> set[int]:
        """Remove and return the ex-neighbours (they may lose coverage)."""
        if node not in self.alive:
            return set()
        self.alive.discard(node)
        neighbors = self.adjacency.pop(node, set())
        for u in neighbors:
            self.adjacency.get(u, set()).discard(node)
        return neighbors

    def add_link(self, u: int, v: int) -> bool:
        if u == v or u not in self.alive or v not in self.alive:
            return False
        if v in self.adjacency[u]:
            return False
        self.adjacency[u].add(v)
        self.adjacency[v].add(u)
        return True

    def remove_link(self, u: int, v: int) -> bool:
        if u not in self.alive or v not in self.alive:
            return False
        if v not in self.adjacency.get(u, set()):
            return False
        self.adjacency[u].discard(v)
        self.adjacency[v].discard(u)
        return True


class IncrementalBrokerSetReference:
    """From-scratch maintainer over a :class:`MutableTopology`.

    Same events, same repair rule, same outputs as
    :class:`IncrementalBrokerSet`, but every :meth:`coverage_fraction`
    rebuilds the covered set from the broker roster — O(Σ deg(B)) per
    query instead of O(1).  Kept as the differential-testing oracle and
    the baseline the engine speedup benchmark measures against.
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
        self._topo = MutableTopology(graph)
        self._brokers = set(int(b) for b in brokers)
        if not self._brokers:
            raise AlgorithmError("broker set must be non-empty")
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

    def covered_set(self) -> set[int]:
        covered: set[int] = set()
        for b in self._brokers:
            if b in self._topo.alive:
                covered.add(b)
                covered |= self._topo.adjacency.get(b, set())
        return covered & self._topo.alive

    def coverage_fraction(self) -> float:
        alive = len(self._topo.alive)
        return len(self.covered_set()) / alive if alive else 0.0

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply(self, event: ChurnEvent) -> None:
        """Absorb one delta, retiring/repairing brokers as needed."""
        if event.kind is ChurnKind.AS_ARRIVAL:
            assert event.node is not None
            self._topo.add_node(event.node, event.neighbors)
        elif event.kind is ChurnKind.AS_DEPARTURE:
            assert event.node is not None
            self._topo.remove_node(event.node)
            if event.node in self._brokers:
                self._brokers.discard(event.node)
                self.stats.brokers_retired += 1
        elif event.kind is ChurnKind.LINK_UP:
            assert event.endpoints is not None
            self._topo.add_link(*event.endpoints)
        elif event.kind is ChurnKind.LINK_DOWN:
            assert event.endpoints is not None
            self._topo.remove_link(*event.endpoints)
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
        """Greedy patching until the target holds (MaxSG rule)."""
        self.stats.repairs_triggered += 1
        alive = self._topo.alive
        while (
            len(self._brokers) < self._max_brokers
            and self.coverage_fraction() < self._target
        ):
            covered = self.covered_set()
            uncovered = alive - covered
            if not uncovered:
                break
            candidates: set[int] = set()
            for v in covered:
                candidates.add(v)
                candidates |= self._topo.adjacency.get(v, set())
            candidates -= self._brokers
            candidates &= alive
            if not candidates:
                candidates = uncovered
            best, best_gain = None, 0
            for c in sorted(candidates):
                closed = (self._topo.adjacency.get(c, set()) | {c}) & alive
                gain = len(closed - covered)
                if gain > best_gain:
                    best, best_gain = c, gain
            if best is None:
                break
            self._brokers.add(best)
            self.stats.brokers_added += 1

    # ------------------------------------------------------------------
    # Export for verification
    # ------------------------------------------------------------------
    def snapshot(self) -> ASGraph:
        """Materialize the current topology as an immutable ASGraph."""
        alive = sorted(self._topo.alive)
        index = {v: i for i, v in enumerate(alive)}
        edges = []
        for u in alive:
            for v in self._topo.adjacency.get(u, set()):
                if u < v and v in index:
                    edges.append((index[u], index[v]))
        return ASGraph.from_edges(len(alive), edges)

    def snapshot_brokers(self) -> list[int]:
        """Broker ids re-packed to match :meth:`snapshot`."""
        alive = sorted(self._topo.alive)
        index = {v: i for i, v in enumerate(alive)}
        return [index[b] for b in sorted(self._brokers) if b in index]
