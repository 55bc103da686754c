"""Incremental domination/coverage engine.

Every consumer of broker-set state used to rebuild it its own way: the
selection kernels kept grow-only covered masks, ``robustness.py``
recomputed dominated matrices per failure point, and the healing /
churn layers rebuilt adjacency sets after every event.  The
:class:`DominationEngine` consolidates all of that into one mutable,
CSR-backed state that supports the paper's dynamic experiments at the
cost of the *affected neighborhood* per event instead of the whole
graph:

* **broker roster** — which vertices are currently selected;
* **hit counts** — ``hits[v]`` = number of *effective* brokers (broker
  AND alive) in the closed alive-neighborhood of ``v``, matching
  :func:`repro.core.robustness.broker_hit_counts` exactly;
* **covered mask** — ``covered[v] = alive[v] and hits[v] > 0``, i.e.
  the paper's coverage ``f(B) = |B ∪ N(B)|`` generalized to a mutable
  topology;
* **dominated-subgraph connectivity** — saturated connectivity of
  ``B ⊙ A`` maintained by a lazy union-find over dominated alive
  edges with an exact integer pair-sum.

Mutations (``add_broker`` / ``remove_broker`` / ``fail_node`` /
``restore_node`` / ``cut_link`` / ``restore_link`` / ``add_link`` /
``add_node``) update hit counts by walking only the incident edges.
Monotone-growth mutations also patch the union-find incrementally;
shrinking mutations mark it dirty and the next connectivity query
rebuilds it from the current dominated edge set (one SciPy
connected-components pass), after which O(1) queries resume.

Undo is a delta log: :meth:`checkpoint` returns a token and
:meth:`rollback` replays inverse operations in reverse order.  The log
only records between ``checkpoint()`` and ``rollback()`` so unbounded
event streams (churn) pay nothing for it.

:meth:`verify` recomputes the full state from scratch and raises if
any maintained quantity diverges — the property suite drives random
operation interleavings against it.

Numerical contract: connectivity is computed as ``pair_sum / (n*(n-1))``
where ``pair_sum = Σ_C |C|(|C|-1)`` is maintained as an exact Python/
NumPy integer.  Component sizes are bounded by ``n < 2**26`` here, so
every product is exactly representable in float64 and the division is
bit-identical to the historical
:func:`repro.core.connectivity.saturated_connectivity` path.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.graph.csr import connected_components

__all__ = ["DominationEngine"]


_EMPTY = np.empty(0, dtype=np.int64)


class DominationEngine:
    """Mutable broker/coverage/connectivity state over one topology.

    Parameters
    ----------
    graph:
        The base topology.  Node ids ``0..graph.num_nodes-1`` are the
        initial universe; :meth:`add_node` can extend it (churn
        arrivals).
    brokers:
        Optional initial broker set (duplicates are ignored).
    """

    def __init__(self, graph: ASGraph, brokers=()) -> None:
        self._graph = graph
        n = graph.num_nodes
        self._n_base = n
        self._num_nodes = n
        self._num_alive = n
        self._covered_alive = 0

        self._indptr = graph.adj.indptr
        self._indices = graph.adj.indices
        self._base_src = graph.edge_src
        self._base_dst = graph.edge_dst
        self._edge_alive = np.ones(len(self._base_src), dtype=bool)

        # Residual-capacity accounting over base edges — enabled when the
        # graph carries edge attributes (a simplified multigraph or an
        # annotated ASGraph).  ``reserve``/``release`` mutate ``_reserved``
        # and participate in the same checkpoint/rollback log as topology
        # mutations.
        if graph.edge_attrs is not None:
            self._capacity: np.ndarray | None = (
                graph.edge_attrs.capacity_gbps.copy()
            )
            self._reserved: np.ndarray | None = np.zeros(
                len(self._base_src), dtype=np.float64
            )
        else:
            self._capacity = None
            self._reserved = None

        cap = max(n, 1)
        self._broker = np.zeros(cap, dtype=bool)
        self._alive = np.ones(cap, dtype=bool)
        self._hits = np.zeros(cap, dtype=np.int64)
        self._covered = np.zeros(cap, dtype=bool)

        # Extension edges (churn LINK_UP between pairs with no base edge).
        self._ext_src: list[int] = []
        self._ext_dst: list[int] = []
        self._ext_alive: list[bool] = []
        self._ext_adj: dict[int, dict[int, int]] = {}

        # While the topology is pristine (no dead nodes, no cut edges,
        # no extension edges, no added nodes) the vectorized CSR fast
        # paths apply; any topology mutation clears the flag for good.
        self._simple = True

        # Lazy per-vertex incidence over base edges and (u, v) -> edge id
        # index; built on first topology mutation that needs them.
        self._inc_indptr: np.ndarray | None = None
        self._inc_eids: np.ndarray | None = None
        self._edge_index: dict[tuple[int, int], int] | None = None

        # Lazy union-find over dominated alive edges.
        self._dsu_parent: np.ndarray | None = None
        self._dsu_size: np.ndarray | None = None
        self._dsu_dirty = True
        self._pair_sum = 0

        # Delta log for checkpoint/rollback.
        self._log: list[tuple] = []
        self._logging = False
        self._suspend_log = False

        # Mutation listeners (the serving tier's label repairer).  Each
        # is called with ``(op, args)`` after every applied mutation —
        # including the inverse mutations a rollback replays, so a
        # subscriber sees the same state trajectory the engine does.
        self._listeners: list = []

        for b in brokers:
            self.add_broker(int(b))

    @classmethod
    def from_multigraph(cls, multigraph, brokers=()) -> "DominationEngine":
        """Build an engine over a multigraph's **simplified view**.

        Domination, coverage and connectivity are parallel-edge-blind (a
        bundle of links dominates exactly what one link dominates), so
        the engine runs on :meth:`MultiGraph.simplify` — with aggregated
        per-edge capacities, which enables the residual-capacity state
        (:meth:`reserve` / :meth:`release`) over bundle totals.
        """
        return cls(multigraph.simplify().graph, brokers)

    # ------------------------------------------------------------------
    # Read-only views and simple queries
    # ------------------------------------------------------------------

    @property
    def graph(self) -> ASGraph:
        return self._graph

    @property
    def num_nodes(self) -> int:
        """Allocated universe size (base nodes + churn arrivals)."""
        return self._num_nodes

    @property
    def num_alive(self) -> int:
        return self._num_alive

    @property
    def covered_view(self) -> np.ndarray:
        """Covered mask over the allocated universe.  Do not mutate."""
        return self._covered[: self._num_nodes]

    @property
    def broker_view(self) -> np.ndarray:
        """Broker roster mask over the allocated universe.  Do not mutate."""
        return self._broker[: self._num_nodes]

    @property
    def alive_view(self) -> np.ndarray:
        """Alive mask over the allocated universe.  Do not mutate."""
        return self._alive[: self._num_nodes]

    @property
    def hits_view(self) -> np.ndarray:
        """Per-vertex effective-broker hit counts.  Do not mutate."""
        return self._hits[: self._num_nodes]

    def brokers(self) -> list[int]:
        """Sorted broker roster (includes brokers on dead nodes)."""
        return [int(v) for v in np.flatnonzero(self.broker_view)]

    def is_broker(self, v: int) -> bool:
        return bool(self._broker[v])

    def is_alive(self, v: int) -> bool:
        return bool(self._alive[v])

    def is_covered(self, v: int) -> bool:
        return bool(self._covered[v])

    def coverage(self) -> int:
        """``f(B)`` over the live universe: covered AND alive vertices."""
        return self._covered_alive

    def coverage_fraction(self) -> float:
        if self._num_alive == 0:
            return 0.0
        return self._covered_alive / self._num_alive

    def effective_broker_mask(self) -> np.ndarray:
        """Brokers that actually dominate: broker AND alive."""
        return self.broker_view & self.alive_view

    def marginal_gain(self, v: int) -> int:
        """Newly covered vertices if ``v`` were added as a broker.

        Bit-identical to the historical ``CoverageOracle.marginal_gain``
        on a pristine topology; on a mutated topology it counts over
        alive edges and alive endpoints only.  A dead vertex gains 0.
        """
        self._check_vertex(v)
        if self._simple:
            neigh = self._indices[self._indptr[v] : self._indptr[v + 1]]
            gain = 0 if self._covered[v] else 1
            return gain + int(np.count_nonzero(~self._covered[neigh]))
        if not self._alive[v]:
            return 0
        nbrs = self.alive_neighbors(v)
        gain = 0 if self._covered[v] else 1
        if len(nbrs):
            gain += int(np.count_nonzero(~self._covered[nbrs]))
        return gain

    def alive_neighbors(self, v: int) -> np.ndarray:
        """Neighbors of ``v`` across alive edges to alive endpoints."""
        self._check_vertex(v)
        if self._simple:
            return self._indices[self._indptr[v] : self._indptr[v + 1]]
        out: list[int] = []
        for eid in self._incident_base(v):
            if not self._edge_alive[eid]:
                continue
            u = int(self._base_src[eid])
            if u == v:
                u = int(self._base_dst[eid])
            if self._alive[u]:
                out.append(u)
        for u, eid in self._ext_adj.get(v, {}).items():
            if self._ext_alive[eid] and self._alive[u]:
                out.append(u)
        return np.asarray(out, dtype=np.int64) if out else _EMPTY

    # ------------------------------------------------------------------
    # Broker mutations
    # ------------------------------------------------------------------

    def add_broker(self, v: int) -> np.ndarray:
        """Add ``v`` to the roster; return the newly covered vertex ids.

        A no-op (empty return) if ``v`` is already a broker.  Adding a
        dead vertex is an error — restore it first.
        """
        self._check_vertex(v)
        if self._broker[v]:
            return _EMPTY
        if not self._alive[v]:
            raise AlgorithmError(f"cannot add dead vertex {v} as broker")
        self._broker[v] = True
        if self._simple:
            neigh = self._indices[self._indptr[v] : self._indptr[v + 1]]
            fresh = neigh[~self._covered[neigh]]
            self._hits[v] += 1
            self._hits[neigh] += 1
            self._covered[fresh] = True
            newly = fresh
            if not self._covered[v]:
                self._covered[v] = True
                newly = np.append(fresh, v)
            self._covered_alive += len(newly)
            if self._dsu_parent is not None and not self._dsu_dirty:
                for u in neigh:
                    self._union(v, int(u))
            self._record("add_broker", v)
            return np.sort(newly)
        newly_list: list[int] = []
        self._hits[v] += 1
        if not self._covered[v]:
            self._covered[v] = True
            self._covered_alive += 1
            newly_list.append(v)
        nbrs = self.alive_neighbors(v)
        for u in nbrs:
            u = int(u)
            self._hits[u] += 1
            if not self._covered[u]:
                self._covered[u] = True
                self._covered_alive += 1
                newly_list.append(u)
        if self._dsu_parent is not None and not self._dsu_dirty:
            for u in nbrs:
                self._union(v, int(u))
        self._record("add_broker", v)
        return np.sort(np.asarray(newly_list, dtype=np.int64)) if newly_list else _EMPTY

    def remove_broker(self, v: int) -> np.ndarray:
        """Drop ``v`` from the roster; return the newly uncovered ids."""
        self._check_vertex(v)
        if not self._broker[v]:
            return _EMPTY
        self._broker[v] = False
        if not self._alive[v]:
            # A dead broker contributed nothing; only the roster changes.
            self._record("remove_broker", v)
            return _EMPTY
        if self._dsu_parent is not None:
            self._dsu_dirty = True
        if self._simple:
            neigh = self._indices[self._indptr[v] : self._indptr[v + 1]]
            self._hits[v] -= 1
            self._hits[neigh] -= 1
            lost = neigh[self._hits[neigh] == 0]
            self._covered[lost] = False
            newly = lost
            if self._hits[v] == 0:
                self._covered[v] = False
                newly = np.append(lost, v)
            self._covered_alive -= len(newly)
            self._record("remove_broker", v)
            return np.sort(newly)
        newly_list: list[int] = []
        self._hits[v] -= 1
        if self._hits[v] == 0:
            self._covered[v] = False
            self._covered_alive -= 1
            newly_list.append(v)
        for u in self.alive_neighbors(v):
            u = int(u)
            self._hits[u] -= 1
            if self._hits[u] == 0:
                self._covered[u] = False
                self._covered_alive -= 1
                newly_list.append(u)
        self._record("remove_broker", v)
        return np.sort(np.asarray(newly_list, dtype=np.int64)) if newly_list else _EMPTY

    # ------------------------------------------------------------------
    # Topology mutations
    # ------------------------------------------------------------------

    def fail_node(self, v: int) -> bool:
        """Take vertex ``v`` down (its incident edges carry nothing)."""
        self._check_vertex(v)
        if not self._alive[v]:
            return False
        self._simple = False
        if self._broker[v]:
            # Neighbors lose this broker's contribution.
            for u in self.alive_neighbors(v):
                u = int(u)
                self._hits[u] -= 1
                if self._hits[u] == 0:
                    self._covered[u] = False
                    self._covered_alive -= 1
        if self._covered[v]:
            self._covered[v] = False
            self._covered_alive -= 1
        self._hits[v] = 0
        self._alive[v] = False
        self._num_alive -= 1
        if self._dsu_parent is not None:
            self._dsu_dirty = True
        self._record("fail_node", v)
        return True

    def restore_node(self, v: int) -> bool:
        """Bring vertex ``v`` back up; alive incident edges revive."""
        self._check_vertex(v)
        if self._alive[v]:
            return False
        self._simple = False
        self._alive[v] = True
        self._num_alive += 1
        dsu_live = self._dsu_parent is not None and not self._dsu_dirty
        hits = 1 if self._broker[v] else 0
        for u in self.alive_neighbors(v):
            u = int(u)
            if self._broker[u]:
                hits += 1
            if self._broker[v]:
                self._hits[u] += 1
                if not self._covered[u]:
                    self._covered[u] = True
                    self._covered_alive += 1
            if dsu_live and (self._broker[v] or self._broker[u]):
                self._union(v, int(u))
        self._hits[v] = hits
        if hits > 0:
            self._covered[v] = True
            self._covered_alive += 1
        self._record("restore_node", v)
        return True

    def cut_link(self, u: int, v: int) -> bool:
        """Kill the edge between ``u`` and ``v`` (base or extension)."""
        self._check_vertex(u)
        self._check_vertex(v)
        eid, is_ext = self._find_edge(u, v)
        if eid is None:
            return False
        alive = self._ext_alive[eid] if is_ext else bool(self._edge_alive[eid])
        if not alive:
            return False
        self._simple = False
        if self._alive[u] and self._alive[v]:
            self._drop_edge_contribution(u, v)
            if self._dsu_parent is not None:
                self._dsu_dirty = True
        if is_ext:
            self._ext_alive[eid] = False
        else:
            self._edge_alive[eid] = False
        self._record("cut", u, v)
        return True

    def restore_link(self, u: int, v: int) -> bool:
        """Revive a previously cut edge between ``u`` and ``v``."""
        self._check_vertex(u)
        self._check_vertex(v)
        eid, is_ext = self._find_edge(u, v)
        if eid is None:
            return False
        alive = self._ext_alive[eid] if is_ext else bool(self._edge_alive[eid])
        if alive:
            return False
        self._simple = False
        if is_ext:
            self._ext_alive[eid] = True
        else:
            self._edge_alive[eid] = True
        if self._alive[u] and self._alive[v]:
            self._add_edge_contribution(u, v)
        self._record("restore", u, v)
        return True

    def add_link(self, u: int, v: int) -> bool:
        """Add an edge between alive vertices ``u`` and ``v``.

        Matches ``MutableTopology.add_link`` semantics: returns False
        for self-loops, dead/unallocated endpoints, or an existing alive
        edge.  A previously cut edge between the pair is revived instead
        of duplicated.
        """
        if u == v:
            return False
        if not (0 <= u < self._num_nodes and 0 <= v < self._num_nodes):
            return False
        if not (self._alive[u] and self._alive[v]):
            return False
        eid, is_ext = self._find_edge(u, v)
        if eid is not None:
            alive = self._ext_alive[eid] if is_ext else bool(self._edge_alive[eid])
            if alive:
                return False
            return self.restore_link(u, v)
        self._simple = False
        eid = len(self._ext_src)
        self._ext_src.append(int(u))
        self._ext_dst.append(int(v))
        self._ext_alive.append(True)
        self._ext_adj.setdefault(int(u), {})[int(v)] = eid
        self._ext_adj.setdefault(int(v), {})[int(u)] = eid
        self._add_edge_contribution(u, v)
        self._record("new_ext", u, v)
        return True

    def add_node(self, neighbors=()) -> int:
        """Allocate a new alive vertex and link it to ``neighbors``.

        Links to dead or unallocated neighbors are skipped, matching
        ``MutableTopology.add_node``.  Returns the new vertex id.
        """
        self._simple = False
        v = self._num_nodes
        self._ensure_capacity(v + 1)
        self._num_nodes = v + 1
        self._alive[v] = True
        self._broker[v] = False
        self._hits[v] = 0
        self._covered[v] = False
        self._num_alive += 1
        # The union-find arrays are sized to the old universe; drop them.
        self._dsu_parent = None
        self._dsu_size = None
        self._dsu_dirty = True
        self._record("add_node", v)
        for u in neighbors:
            self.add_link(v, int(u))
        return v

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------

    def saturated_connectivity(self) -> float:
        """Saturated connectivity of the dominated subgraph ``B ⊙ A``.

        O(1) when the union-find is clean; otherwise one rebuild from
        the current dominated alive edge set.
        """
        n = self._num_nodes
        if n < 2:
            return 0.0
        if self._dsu_parent is None or self._dsu_dirty:
            self._rebuild_dsu()
        return self._pair_sum / (n * (n - 1))

    def connectivity_if_added(self, v: int) -> float:
        """Saturated connectivity if ``v`` were made a broker — O(deg(v)).

        Non-mutating probe: the only new dominated edges are those
        incident to ``v``, so the affected components are exactly those
        of ``{v} ∪ N_alive(v)``.
        """
        self._check_vertex(v)
        n = self._num_nodes
        if n < 2:
            return 0.0
        if self._dsu_parent is None or self._dsu_dirty:
            self._rebuild_dsu()
        if not self._alive[v]:
            return self._pair_sum / (n * (n - 1))
        roots = {self._find(v)}
        for u in self.alive_neighbors(v):
            roots.add(self._find(int(u)))
        merged = 0
        before = 0
        for r in roots:
            s = int(self._dsu_size[r])
            merged += s
            before += s * (s - 1)
        pair_sum = self._pair_sum + merged * (merged - 1) - before
        return pair_sum / (n * (n - 1))

    def component_labels(self) -> np.ndarray:
        """Canonical component labels of the dominated subgraph ``B ⊙ A``.

        Each vertex is labelled with the *smallest vertex id* in its
        component, so the labelling is independent of union-find
        internals and mutation history: two engines represent the same
        dominated-graph partition iff their label arrays are equal.
        Dead and isolated vertices are singleton components labelled by
        themselves.  Used by the convergence layer to compare the
        event-driven simulator's quiescent state against a state-based
        replay of the same schedule.
        """
        n = self._num_nodes
        if self._dsu_parent is None or self._dsu_dirty:
            self._rebuild_dsu()
        roots = np.fromiter(
            (self._find(v) for v in range(n)), dtype=np.int64, count=n
        )
        ids = np.arange(n, dtype=np.int64)
        mins = ids.copy()
        np.minimum.at(mins, roots, ids)
        return mins[roots]

    # ------------------------------------------------------------------
    # Dominated-subgraph exports
    # ------------------------------------------------------------------

    def dominated_base_edge_mask(self) -> np.ndarray:
        """Mask over the *base* edge list: alive edges with an effective
        broker endpoint and both endpoints alive."""
        eff = self._broker & self._alive
        keep = (
            self._edge_alive
            & self._alive[self._base_src]
            & self._alive[self._base_dst]
            & (eff[self._base_src] | eff[self._base_dst])
        )
        return keep

    def dominated_alive_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays of every dominated alive edge (base + ext)."""
        keep = self.dominated_base_edge_mask()
        src = [self._base_src[keep]]
        dst = [self._base_dst[keep]]
        if self._ext_src:
            eff = self._broker & self._alive
            es, ed = [], []
            for eid, (s, d) in enumerate(zip(self._ext_src, self._ext_dst)):
                if not self._ext_alive[eid]:
                    continue
                if not (self._alive[s] and self._alive[d]):
                    continue
                if eff[s] or eff[d]:
                    es.append(s)
                    ed.append(d)
            src.append(np.asarray(es, dtype=np.int64))
            dst.append(np.asarray(ed, dtype=np.int64))
        return np.concatenate(src), np.concatenate(dst)

    def alive_degrees(self) -> np.ndarray:
        """Per-vertex degree counting alive edges between alive endpoints."""
        n = self._num_nodes
        keep = (
            self._edge_alive
            & self._alive[self._base_src]
            & self._alive[self._base_dst]
        )
        degrees = np.bincount(self._base_src[keep], minlength=n)
        degrees += np.bincount(self._base_dst[keep], minlength=n)
        for eid, (s, d) in enumerate(zip(self._ext_src, self._ext_dst)):
            if self._ext_alive[eid] and self._alive[s] and self._alive[d]:
                degrees[s] += 1
                degrees[d] += 1
        return degrees.astype(np.int64)

    def alive_edges(self) -> list[tuple[int, int]]:
        """Sorted ``(u, v)`` pairs (``u < v``) of alive edges between
        alive endpoints, base and extension alike."""
        keep = (
            self._edge_alive
            & self._alive[self._base_src]
            & self._alive[self._base_dst]
        )
        pairs = [
            (int(min(s, d)), int(max(s, d)))
            for s, d in zip(self._base_src[keep], self._base_dst[keep])
        ]
        for eid, (s, d) in enumerate(zip(self._ext_src, self._ext_dst)):
            if self._ext_alive[eid] and self._alive[s] and self._alive[d]:
                pairs.append((min(s, d), max(s, d)))
        pairs.sort()
        return pairs

    # ------------------------------------------------------------------
    # Residual link capacity (annotated graphs only)
    # ------------------------------------------------------------------

    @property
    def has_capacity_state(self) -> bool:
        """True when the underlying graph carries edge attributes."""
        return self._capacity is not None

    def _require_capacity(self) -> tuple[np.ndarray, np.ndarray]:
        if self._capacity is None or self._reserved is None:
            raise AlgorithmError(
                "graph carries no edge attributes; build the engine from an "
                "annotated ASGraph or via DominationEngine.from_multigraph"
            )
        return self._capacity, self._reserved

    def residual_capacity(self) -> np.ndarray:
        """Unreserved Gbps per base edge (a fresh array, safe to mutate)."""
        capacity, reserved = self._require_capacity()
        return capacity - reserved

    def reserved_view(self) -> np.ndarray:
        """Read-only view of the per-edge reserved Gbps."""
        _, reserved = self._require_capacity()
        view = reserved.view()
        view.flags.writeable = False
        return view

    def _coerce_reservation(
        self, edge_ids, amounts
    ) -> tuple[np.ndarray, np.ndarray]:
        edge_ids = np.atleast_1d(np.asarray(edge_ids, dtype=np.int64))
        amounts = np.atleast_1d(np.asarray(amounts, dtype=np.float64))
        if amounts.shape != edge_ids.shape:
            raise AlgorithmError(
                f"edge_ids/amounts shape mismatch: {edge_ids.shape} vs "
                f"{amounts.shape}"
            )
        m = len(self._base_src)
        if len(edge_ids) and (edge_ids.min() < 0 or edge_ids.max() >= m):
            raise AlgorithmError(f"edge id out of range [0, {m})")
        if len(amounts) and ((amounts <= 0).any() or not np.isfinite(amounts).all()):
            raise AlgorithmError("reservation amounts must be positive and finite")
        return edge_ids, amounts

    def reserve(self, edge_ids, amounts) -> None:
        """Atomically reserve ``amounts`` Gbps on base edges ``edge_ids``.

        Vectorized and all-or-nothing: repeated edge ids accumulate, and
        if *any* edge would exceed its capacity (or is currently cut)
        the whole reservation is rejected with an :class:`AlgorithmError`
        and no state changes.  Logged for :meth:`rollback` like every
        other mutation.
        """
        capacity, reserved = self._require_capacity()
        edge_ids, amounts = self._coerce_reservation(edge_ids, amounts)
        if not self._edge_alive[edge_ids].all():
            raise AlgorithmError("cannot reserve capacity on a cut link")
        demand = np.zeros(len(capacity), dtype=np.float64)
        np.add.at(demand, edge_ids, amounts)
        touched = np.flatnonzero(demand)
        over = reserved[touched] + demand[touched] > capacity[touched] + 1e-9
        if over.any():
            bad = int(touched[np.argmax(over)])
            raise AlgorithmError(
                f"insufficient residual capacity on edge {bad}: "
                f"{capacity[bad] - reserved[bad]:.3f} Gbps free, "
                f"{demand[bad]:.3f} Gbps requested"
            )
        reserved[touched] += demand[touched]
        self._record("reserve", edge_ids.copy(), amounts.copy())

    def release(self, edge_ids, amounts) -> None:
        """Release previously reserved capacity (inverse of :meth:`reserve`).

        Atomic like :meth:`reserve`: releasing more than is currently
        reserved on any edge rejects the whole call.
        """
        capacity, reserved = self._require_capacity()
        edge_ids, amounts = self._coerce_reservation(edge_ids, amounts)
        refund = np.zeros(len(capacity), dtype=np.float64)
        np.add.at(refund, edge_ids, amounts)
        touched = np.flatnonzero(refund)
        if (refund[touched] > reserved[touched] + 1e-9).any():
            raise AlgorithmError("cannot release more capacity than is reserved")
        reserved[touched] = np.maximum(reserved[touched] - refund[touched], 0.0)
        self._record("release", edge_ids.copy(), amounts.copy())

    # ------------------------------------------------------------------
    # Checkpoint / rollback
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Start (or mark a point in) the undo log; returns a token."""
        self._logging = True
        return len(self._log)

    def rollback(self, token: int) -> None:
        """Undo every mutation after ``token`` (in reverse order).

        Inverses restore *observable* state exactly: hit counts, covered
        mask, alive masks, roster, and the universe size (a rolled-back
        :meth:`add_node` is deallocated, so the connectivity denominator
        shrinks back too).  Internal bookkeeping such as dead
        extension-edge records may differ, which :meth:`verify` treats
        as equivalent.
        """
        if token < 0 or token > len(self._log):
            raise AlgorithmError(f"invalid rollback token {token}")
        self._suspend_log = True
        try:
            while len(self._log) > token:
                entry = self._log.pop()
                op = entry[0]
                if op == "add_broker":
                    self.remove_broker(entry[1])
                elif op == "remove_broker":
                    if self._alive[entry[1]]:
                        self.add_broker(entry[1])
                    else:
                        # Mirror of the dead-roster-flip branch: a dead
                        # broker contributes nothing, so only the roster
                        # bit comes back.
                        self._broker[entry[1]] = True
                elif op == "fail_node":
                    self.restore_node(entry[1])
                elif op == "restore_node":
                    self.fail_node(entry[1])
                elif op == "cut":
                    self.restore_link(entry[1], entry[2])
                elif op in ("restore", "new_ext"):
                    self.cut_link(entry[1], entry[2])
                elif op == "add_node":
                    self._deallocate_node(entry[1])
                elif op in ("reserve", "release"):
                    # Apply the inverse delta directly: the public methods
                    # re-validate against *current* aliveness, which may
                    # legitimately differ mid-rollback.  LIFO order makes
                    # the inverse always consistent.
                    ids, amts = entry[1], entry[2]
                    _, reserved = self._require_capacity()
                    delta = np.zeros(len(reserved), dtype=np.float64)
                    np.add.at(delta, ids, amts)
                    if op == "reserve":
                        np.maximum(reserved - delta, 0.0, out=reserved)
                        self._record("release", ids, amts)
                    else:
                        reserved += delta
                        self._record("reserve", ids, amts)
                else:  # pragma: no cover - defensive
                    raise AlgorithmError(f"unknown log entry {op!r}")
        finally:
            self._suspend_log = False
        if self._dsu_parent is not None:
            self._dsu_dirty = True

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(self) -> bool:
        """Recompute all maintained state from scratch; raise on drift."""
        n = self._num_nodes
        alive = self._alive[:n]
        eff = self._broker[:n] & alive
        hits = np.zeros(n, dtype=np.int64)
        hits[eff] += 1
        keep = (
            self._edge_alive & alive[self._base_src] & alive[self._base_dst]
        )
        src = self._base_src[keep]
        dst = self._base_dst[keep]
        np.add.at(hits, dst, eff[src].astype(np.int64))
        np.add.at(hits, src, eff[dst].astype(np.int64))
        for eid, (s, d) in enumerate(zip(self._ext_src, self._ext_dst)):
            if not self._ext_alive[eid] or not (alive[s] and alive[d]):
                continue
            if eff[s]:
                hits[d] += 1
            if eff[d]:
                hits[s] += 1
        covered = alive & (hits > 0)
        if not np.array_equal(hits, self._hits[:n]):
            raise AlgorithmError("engine hit counts diverged from recomputation")
        if not np.array_equal(covered, self._covered[:n]):
            raise AlgorithmError("engine covered mask diverged from recomputation")
        if int(np.count_nonzero(covered)) != self._covered_alive:
            raise AlgorithmError("engine covered-alive counter diverged")
        if int(np.count_nonzero(alive)) != self._num_alive:
            raise AlgorithmError("engine alive counter diverged")
        if n >= 2:
            expected = self._from_scratch_connectivity()
            got = self.saturated_connectivity()
            if got != expected:
                raise AlgorithmError(
                    "engine connectivity diverged from recomputation: "
                    f"{got!r} != {expected!r}"
                )
        if self._capacity is not None and self._reserved is not None:
            if (self._reserved < -1e-9).any():
                raise AlgorithmError("negative reserved capacity")
            if (self._reserved > self._capacity + 1e-9).any():
                raise AlgorithmError("reserved capacity exceeds link capacity")
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._num_nodes:
            raise AlgorithmError(
                f"vertex {v} out of range for universe of {self._num_nodes}"
            )

    def _deallocate_node(self, v: int) -> None:
        """Reverse :meth:`add_node` during rollback.

        The LIFO undo order guarantees ``v`` is the newest vertex and
        every later mutation touching it has already been undone, so at
        this point it is alive, non-broker, uncovered, with zero hits
        and all its extension edges cut.  Returning the id to the
        unallocated pool shrinks the universe — and the connectivity
        denominator — back to the pre-``add_node`` value.  The dead
        extension-edge records are purged from the adjacency so a later
        allocation reusing the id cannot revive them.
        """
        if v != self._num_nodes - 1:  # pragma: no cover - defensive
            raise AlgorithmError(
                f"cannot deallocate vertex {v}; newest is {self._num_nodes - 1}"
            )
        self._simple = False
        for u, eid in self._ext_adj.pop(v, {}).items():
            peer = self._ext_adj.get(u)
            if peer is not None:
                peer.pop(v, None)
                if not peer:
                    del self._ext_adj[u]
            self._ext_alive[eid] = False
        if self._covered[v]:  # pragma: no cover - defensive
            self._covered_alive -= 1
        if self._alive[v]:
            self._num_alive -= 1
        self._broker[v] = False
        self._alive[v] = False
        self._hits[v] = 0
        self._covered[v] = False
        self._num_nodes = v
        # The union-find arrays are sized to the grown universe; drop them.
        self._dsu_parent = None
        self._dsu_size = None
        self._dsu_dirty = True
        for listener in self._listeners:
            listener("deallocate_node", (v,))

    def _ensure_capacity(self, n: int) -> None:
        cap = len(self._broker)
        if n <= cap:
            return
        new_cap = max(n, cap * 2)
        for name in ("_broker", "_alive", "_hits", "_covered"):
            old = getattr(self, name)
            grown = np.zeros(new_cap, dtype=old.dtype)
            grown[: len(old)] = old
            setattr(self, name, grown)

    def _ensure_incidence(self) -> None:
        if self._inc_indptr is not None:
            return
        m = len(self._base_src)
        ends = np.concatenate([self._base_src, self._base_dst])
        eids = np.concatenate([np.arange(m), np.arange(m)])
        order = np.argsort(ends, kind="stable")
        self._inc_eids = eids[order]
        counts = np.bincount(ends, minlength=self._n_base)
        indptr = np.zeros(self._n_base + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self._inc_indptr = indptr

    def _incident_base(self, v: int) -> np.ndarray:
        if v >= self._n_base:
            return _EMPTY
        self._ensure_incidence()
        return self._inc_eids[self._inc_indptr[v] : self._inc_indptr[v + 1]]

    def _find_edge(self, u: int, v: int) -> tuple[int | None, bool]:
        """Locate the edge record for the pair: (edge id, is_extension)."""
        eid = self._ext_adj.get(u, {}).get(v)
        if eid is not None:
            return eid, True
        if self._edge_index is None:
            self._edge_index = {
                (int(min(s, d)), int(max(s, d))): i
                for i, (s, d) in enumerate(zip(self._base_src, self._base_dst))
            }
        key = (min(u, v), max(u, v))
        base = self._edge_index.get(key)
        if base is not None:
            return int(base), False
        return None, False

    def _drop_edge_contribution(self, u: int, v: int) -> None:
        """Coverage updates for removing one alive edge between alive
        endpoints (the edge record itself is flipped by the caller)."""
        if self._broker[u]:
            self._hits[v] -= 1
            if self._hits[v] == 0:
                self._covered[v] = False
                self._covered_alive -= 1
        if self._broker[v]:
            self._hits[u] -= 1
            if self._hits[u] == 0:
                self._covered[u] = False
                self._covered_alive -= 1

    def _add_edge_contribution(self, u: int, v: int) -> None:
        """Coverage (and clean union-find) updates for one new alive
        edge between alive endpoints."""
        dominated = False
        if self._broker[u]:
            dominated = True
            self._hits[v] += 1
            if not self._covered[v]:
                self._covered[v] = True
                self._covered_alive += 1
        if self._broker[v]:
            dominated = True
            self._hits[u] += 1
            if not self._covered[u]:
                self._covered[u] = True
                self._covered_alive += 1
        if dominated and self._dsu_parent is not None and not self._dsu_dirty:
            self._union(u, v)

    def _record(self, op: str, *args) -> None:
        if self._logging and not self._suspend_log:
            self._log.append((op, *args))
        for listener in self._listeners:
            listener(op, args)

    # -- mutation listeners --------------------------------------------

    def subscribe(self, listener) -> "Callable[[], None]":
        """Call ``listener(op, args)`` after every applied mutation.

        The stream is the engine's own mutation vocabulary
        (``add_broker`` / ``remove_broker`` / ``fail_node`` /
        ``restore_node`` / ``cut`` / ``restore`` / ``new_ext`` /
        ``add_node`` / ``deallocate_node``); rollbacks surface as the
        inverse mutations they replay.  Listeners must not mutate the
        engine.  Returns an unsubscribe callable.
        """
        self._listeners.append(listener)

        def unsubscribe() -> None:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

        return unsubscribe

    # -- union-find ----------------------------------------------------

    def _find(self, x: int) -> int:
        parent = self._dsu_parent
        root = x
        while parent[root] != root:
            root = int(parent[root])
        while parent[x] != root:
            parent[x], x = root, int(parent[x])
        return root

    def _union(self, a: int, b: int) -> None:
        ra = self._find(a)
        rb = self._find(b)
        if ra == rb:
            return
        size = self._dsu_size
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        sa = int(size[ra])
        sb = int(size[rb])
        self._pair_sum += (sa + sb) * (sa + sb - 1) - sa * (sa - 1) - sb * (sb - 1)
        self._dsu_parent[rb] = ra
        size[ra] = sa + sb

    def _rebuild_dsu(self) -> None:
        n = self._num_nodes
        src, dst = self.dominated_alive_edges()
        if len(src):
            mat = sparse.coo_matrix(
                (np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n)
            )
            _, labels = connected_components(mat)
        else:
            labels = np.arange(n)
        _, rep, counts = np.unique(labels, return_index=True, return_counts=True)
        parent = rep[labels].astype(np.int64)
        size = np.ones(n, dtype=np.int64)
        size[rep] = counts
        self._dsu_parent = parent
        self._dsu_size = size
        self._pair_sum = int(np.sum(counts * (counts - 1)))
        self._dsu_dirty = False

    def _from_scratch_connectivity(self) -> float:
        """Independent recomputation used by :meth:`verify` — mirrors
        :func:`repro.core.connectivity.saturated_connectivity`."""
        n = self._num_nodes
        if n < 2:
            return 0.0
        src, dst = self.dominated_alive_edges()
        if len(src) == 0:
            return 0.0
        mat = sparse.coo_matrix(
            (np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n)
        )
        _, labels = connected_components(mat)
        sizes = np.bincount(labels).astype(np.float64)
        return float((sizes * (sizes - 1)).sum() / (n * (n - 1)))
