"""Exact hub-label repair under engine churn.

:class:`LabelRepairer` subscribes to :meth:`DominationEngine.subscribe`;
a mutation only marks the index dirty, and the next query (or explicit
``sync()``) repairs it.  After every ``sync()`` the index equals the
**canonical** labeling (see :mod:`repro.serving.labels`) of the current
dominated subgraph in the index's own rank order.

**Ranks are fixed.**  A vertex keeps its rank while dead, so a break
followed by its heal restores the labels byte for byte.  A vertex never
ranked (dead when the repairer started, or new from ``add_node``) gets
one past the largest rank ever assigned, so alive ranks stay distinct.

**One repair path.**  ``sync()`` diffs the dominated edges as sorted
int64 keys (removed E−, added E+, born and died vertices), then:

1. finds the *affected hubs* A.  Every born or died vertex is in A.  A
   hub ``h`` alive on both sides joins A when, at some delta edge
   ``(x, y)`` (each edge is tested in both orientations):

   - the edge was **removed**, is tight from ``h`` in the old graph,
     ``d_old(h, y) = d_old(h, x) + 1``, with ``y`` alive after, and
     ``d_new(h, y) ≠ d_old(h, y)``, or ``h ∉ L_old(x)`` and ``h``
     outranks ``y``;
   - the edge was **added**, is tight from ``h`` in the new graph with
     ``y`` alive before, and ``d_old(h, y) ≠ d_new(h, y)``, or
     ``h ∈ L(y)`` and ``h ∉ L(x)``.

   Distances are BFS rows from every delta endpoint in both graphs
   (:func:`repro.graph.csr.bfs_rows`, in bounded chunks; the graph is
   undirected, so the row from ``y`` holds ``d(h, y)`` for every ``h``).
   The repairer keeps the CSR of its current edges, so a sync builds one
   graph, the new one.  The removed-edge test reads ``L_old(x)`` before
   step 2 drops the labels of died vertices; the added-edge test runs
   after step 2 has labeled born vertices, when ``L(y)`` of a ``y`` alive
   before is still its old label;
2. applies the delta to the neighbour lists, drops the labels of died
   vertices and labels each born ``x`` from the definition: a BFS from
   ``x`` carries ``m(v) = min(rank v, m(parents))`` down the levels and
   ``x`` gets ``(h, d(x, h))`` for every ``h`` with ``m(h) = rank h``;
3. re-sweeps each ``h`` in A, in rank order, deleting through the hub →
   vertex index the entries of ``h`` it no longer reaches (all if dead).

*Why this is exact.*  Fix a hub ``h`` alive on both sides that no delta
edge marks.  The entries of ``h`` are ``d(h, v)`` on the vertices ``v``
with ``s(v) = [h ∈ L(v)] = 1``, where ``s(h) = 1`` and, for ``v ≠ h``,
``s(v) = [h outranks v] ∧ (AND of s(p) over v's parents p)``, the
neighbours of ``v`` one step closer to ``h``.  On the vertices alive on
both sides:

- *No distance from* ``h`` *changes.*  If ``d(h, v)`` dropped, a new
  shortest ``h–v`` path uses an added edge (else it was an old path).
  The last added edge ``(x, y)`` on it is tight in the new graph, and
  the old edges after it keep ``y`` alive before.  As ``h`` is unmarked,
  ``d_old(h, y) = d_new(h, y)``, so those old edges give
  ``d_old(h, v) ≤ d_new(h, v)``.  Symmetrically, if ``d(h, v)`` grew,
  the last removed edge on an old shortest path is tight in the old
  graph with its far end alive after.
- *No bit* ``s(v)`` *changes*, by induction on the BFS level from
  ``h``.  With distances fixed, ``v`` gains a parent only across an
  added tight edge and loses one only across a removed tight edge, with
  ``v`` as the far end.  Losing a parent ``p`` can turn ``s(v)`` only
  from 0 to 1, and only if ``s(p) = 0`` and ``h`` outranks ``v``: the
  removed-edge flip.  Gaining ``p`` can turn it only from 1 to 0, and
  only if ``s(p) = 0``: the added-edge flip, with ``s(p)`` read from the
  new label if ``p`` was born.  The parents' bits, one level closer to
  ``h``, are unchanged by induction.

So the unmarked hubs keep exactly their canonical entries (born and
died vertices are relabeled in step 2).  A canonical ``L(h)`` holds only
hubs that outrank ``h``, so a re-sweep in rank order prunes only against
labels already repaired and adds exactly the fresh build's entries for
``h``.  Any superset of A is exact too.
"""

from __future__ import annotations

from bisect import insort

import numpy as np
from scipy import sparse

from repro.graph.csr import UNREACHABLE, bfs_rows
from repro.obs import metrics as _metrics
from repro.serving.labels import KEY_SHIFT, HubLabelIndex, _snapshot, key_endpoints

__all__ = ["LabelRepairer"]

#: Delta edges per BFS block: at most ``4 * BFS_CHUNK`` distance rows
#: of the universe (two endpoints, two graphs) are held at once.
BFS_CHUNK = 16


class LabelRepairer:
    """Keeps one :class:`HubLabelIndex` synchronized with one engine."""

    def __init__(self, engine, index: HubLabelIndex | None = None) -> None:
        self._engine = engine
        self.index = index if index is not None else HubLabelIndex.build(engine)
        _, self._alive, self._keys = _snapshot(engine)
        self._graph = _key_graph(self.index.n, self._keys)
        # Vertices dead now are unranked until their first birth.
        self._ranked = self.index.alive.copy()
        self._next_rank = int(self.index.rank[self._ranked].max(initial=-1)) + 1
        self._dirty = False
        self._unsubscribe = engine.subscribe(self._on_mutation)

    @property
    def engine(self):
        return self._engine

    @property
    def dirty(self) -> bool:
        return self._dirty

    def close(self) -> None:
        """Stop observing the engine (idempotent)."""
        self._unsubscribe()

    def _on_mutation(self, op: str, args: tuple) -> None:
        self._dirty = True

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------

    def sync(self) -> bool:
        """Repair the index up to the engine's current state.

        Returns True when any repair work ran (False = clean no-op).
        """
        if not self._dirty:
            return False
        self._dirty = False
        n, alive, keys = _snapshot(self._engine)
        index = self.index
        if n > index.n:
            index._extend(n)
            self._ranked = np.pad(self._ranked, (0, n - len(self._ranked)))
            self._graph = _key_graph(n, self._keys)
        # A universe that shrinks (a rolled-back add_node) leaves its top
        # ids dead: the index never shrinks.
        alive = np.pad(alive, (0, index.n - len(alive)))
        old_alive = np.pad(self._alive, (0, index.n - len(self._alive)))
        old_keys, old_graph = self._keys, self._graph
        removed = np.setdiff1d(old_keys, keys, assume_unique=True)
        added = np.setdiff1d(keys, old_keys, assume_unique=True)
        born = np.flatnonzero(alive & ~old_alive)
        died = np.flatnonzero(old_alive & ~alive)
        self._alive, self._keys = alive, keys
        if not (len(removed) or len(added) or len(born) or len(died)):
            return False
        self._graph = _key_graph(index.n, keys)
        affected = np.zeros(index.n, dtype=bool)
        affected[born] = affected[died] = True
        _mark(index, affected, removed, old_graph, self._graph, alive,
              _parent_lost)
        self._apply(alive, removed, added, born, died)
        _mark(index, affected, added, self._graph, old_graph, old_alive,
              _parent_gained)
        hubs = np.flatnonzero(affected)
        for h in hubs[np.argsort(index.rank[hubs])].tolist():
            index._pruned_bfs(h)
        shrinking = bool(len(removed) or len(died))
        _metrics.add_counter("serving.repair.scoped_rebuilds" if shrinking
                             else "serving.repair.incremental_patches")
        _metrics.add_counter("serving.repair.hubs_swept", len(hubs))
        _metrics.add_counter("serving.repair.edges_added", len(added))
        _metrics.add_counter("serving.repair.edges_removed", len(removed))
        return True

    def _apply(self, alive, removed, added, born, died) -> None:
        """Apply the delta to the adjacency, aliveness, ranks and the
        labels of born and died vertices."""
        index = self.index
        adj = index.adj
        for u, v in zip(*(a.tolist() for a in key_endpoints(removed))):
            adj[u].remove(v)
            adj[v].remove(u)
        for u, v in zip(*(a.tolist() for a in key_endpoints(added))):
            insort(adj[u], v)
            insort(adj[v], u)
        index.alive = alive
        for v in died.tolist():
            index._set_label(v, {})
        fresh = born[~self._ranked[born]]
        index.rank[fresh] = self._next_rank + np.arange(len(fresh))
        self._next_rank += len(fresh)
        self._ranked[fresh] = True
        rank = index.rank.tolist()
        for x in born.tolist():
            index._set_label(x, _canonical_label(adj, rank, x))


def _mark(index: HubLabelIndex, affected: np.ndarray, delta: np.ndarray,
          tight_in, other, far_alive: np.ndarray, flips) -> None:
    """Flag every hub ``h`` from which a ``delta`` edge ``(x, y)`` is
    tight in the graph ``tight_in``, with ``y`` alive in ``far_alive``,
    where ``d(h, y)`` differs in the graph ``other`` or
    ``flips(index, x, y)`` holds: step 1's test, run on both
    orientations of every edge."""
    for start in range(0, len(delta), BFS_CHUNK):
        a, b = key_endpoints(delta[start:start + BFS_CHUNK])
        ends, at = np.unique(np.concatenate([a, b]), return_inverse=True)
        here, there = bfs_rows(tight_in, ends), bfs_rows(other, ends)
        at_a, at_b = at[:len(a)], at[len(a):]
        for x, y, at_x, at_y in ((a, b, at_a, at_b), (b, a, at_b, at_a)):
            dx, dy = here[at_x], here[at_y]
            tight = (dx != UNREACHABLE) & (dy == dx + 1) & far_alive[y][:, None]
            if tight.any():
                moved = there[at_y] != dy
                affected |= (tight & (moved | flips(index, x, y))).any(axis=0)


def _parent_lost(index: HubLabelIndex, x: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
    """Row ``i``: the hubs whose bit at ``y[i]`` can turn on when it
    loses the parent ``x[i]``: ``h ∉ L_old(x)`` and ``h`` outranks ``y``."""
    rank = index.rank
    return ~_holding(index, x) & (rank < rank[y][:, None])


def _parent_gained(index: HubLabelIndex, x: np.ndarray,
                   y: np.ndarray) -> np.ndarray:
    """Row ``i``: the hubs whose bit at ``y[i]`` can turn off when it
    gains the parent ``x[i]``: ``h ∈ L(y)`` and ``h ∉ L(x)``."""
    return _holding(index, y) & ~_holding(index, x)


def _holding(index: HubLabelIndex, vertices: np.ndarray) -> np.ndarray:
    """Row ``i`` flags the hubs in the label of ``vertices[i]``."""
    held = np.zeros((len(vertices), index.n), dtype=bool)
    for row, v in zip(held, vertices.tolist()):
        row[list(index.hub_dists[v])] = True
    return held


def _key_graph(n: int, keys: np.ndarray) -> sparse.csr_matrix:
    """The undirected graph of ``keys`` on ``n`` vertices, as the float64
    CSR that :func:`bfs_rows` searches without a copy."""
    lo, hi = key_endpoints(keys)
    arcs = np.sort(np.concatenate([keys, (hi << KEY_SHIFT) | lo]))
    tail, head = key_endpoints(arcs)
    indptr = np.searchsorted(tail, np.arange(n + 1)).astype(np.int32)
    return sparse.csr_matrix(
        (np.ones(len(arcs)), head.astype(np.int32), indptr), shape=(n, n)
    )


def _canonical_label(adj: list[list[int]], rank: list[int],
                     x: int) -> dict[int, int]:
    """``L(x)`` from the definition: BFS levels from ``x`` carrying the
    least rank on any shortest path so far; ``h`` is a hub of ``x`` iff
    that least rank is its own."""
    label = {}
    least = {x: rank[x]}
    seen = {x}
    d = 0
    while least:
        nxt: dict[int, int] = {}
        for v, m in least.items():
            if m == rank[v]:
                label[v] = d
            for u in adj[v]:
                if u not in seen and m < nxt.get(u, m + 1):
                    nxt[u] = m
        seen.update(nxt)
        least = {u: min(m, rank[u]) for u, m in nxt.items()}
        d += 1
    return label
