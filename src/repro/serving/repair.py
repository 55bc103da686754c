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

1. finds the *affected hubs* A: every born or died vertex; every ``h``
   from which a removed edge ``(a, b)`` is tight in the old graph,
   ``d(h, b) = d(h, a) + 1``, with ``b`` alive after the delta; every
   ``h`` from which an added edge is tight in the new graph with its
   far end alive before.  Distances come from unweighted BFS from the
   delta's endpoints (``scipy.sparse.csgraph``), in bounded chunks;
2. applies the delta to the neighbour lists, drops the labels of died
   vertices and labels each born ``x`` from the definition: a BFS from
   ``x`` carries ``m(v) = min(rank v, m(parents))`` down the levels and
   ``x`` gets ``(h, d(x, h))`` for every ``h`` with ``m(h) = rank h``;
3. re-sweeps each ``h`` in A, in rank order, deleting through the hub →
   vertex index the entries of ``h`` it no longer reaches (all if dead).

*Why this is exact.*  Whether ``h ∈ L(v)`` depends only on the set of
shortest ``h–v`` paths, which the delta changes only if an old shortest
path crosses a removed element or a new one crosses an added element.
Walking such a path from ``h`` toward ``v`` reaches a tight delta edge
whose far end is alive on both sides (the edge out of the last born or
died vertex on it, else the first delta edge) unless ``v`` itself was
born or died, which step 2 covers.  So hubs outside A keep exactly their
canonical entries.  A canonical ``L(h)`` holds only hubs that outrank
``h``, so a re-sweep in rank order prunes only against labels already
repaired and adds exactly the fresh build's entries for ``h``.  Any
superset of A is exact too.
"""

from __future__ import annotations

from bisect import insort

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import shortest_path

from repro.obs import metrics as _metrics
from repro.serving.labels import HubLabelIndex, _snapshot, key_endpoints

__all__ = ["LabelRepairer"]

#: Delta edges per BFS block: at most ``2 * BFS_CHUNK`` distance rows
#: of the universe are held at once.
BFS_CHUNK = 16


class LabelRepairer:
    """Keeps one :class:`HubLabelIndex` synchronized with one engine."""

    def __init__(self, engine, index: HubLabelIndex | None = None) -> None:
        self._engine = engine
        self.index = index if index is not None else HubLabelIndex.build(engine)
        _, self._alive, self._keys = _snapshot(engine)
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
        # A universe that shrinks (a rolled-back add_node) leaves its top
        # ids dead: the index never shrinks.
        alive = np.pad(alive, (0, index.n - len(alive)))
        old_alive = np.pad(self._alive, (0, index.n - len(self._alive)))
        old_keys = self._keys
        removed = np.setdiff1d(old_keys, keys, assume_unique=True)
        added = np.setdiff1d(keys, old_keys, assume_unique=True)
        born = np.flatnonzero(alive & ~old_alive)
        died = np.flatnonzero(old_alive & ~alive)
        self._alive, self._keys = alive, keys
        if not (len(removed) or len(added) or len(born) or len(died)):
            return False
        affected = np.zeros(index.n, dtype=bool)
        affected[born] = affected[died] = True
        _mark_tight(affected, old_keys, removed, alive)
        _mark_tight(affected, keys, added, old_alive)
        self._apply(alive, removed, added, born, died)
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


def _mark_tight(affected: np.ndarray, keys: np.ndarray, delta: np.ndarray,
                far_alive: np.ndarray) -> None:
    """Flag every hub from which some ``delta`` edge is tight in the
    graph of ``keys``, with its far end alive in ``far_alive``."""
    if not len(delta):
        return
    n = len(affected)
    lo, hi = key_endpoints(keys)
    graph = sparse.csr_matrix(
        (np.ones(len(keys), dtype=np.int8), (lo, hi)), shape=(n, n)
    )
    for start in range(0, len(delta), BFS_CHUNK):
        a, b = key_endpoints(delta[start:start + BFS_CHUNK])
        sources, rows = np.unique(np.concatenate([a, b]), return_inverse=True)
        dist = shortest_path(graph, directed=False, unweighted=True,
                             indices=sources)
        with np.errstate(invalid="ignore"):  # inf - inf: both unreachable
            step = dist[rows[len(a):]] - dist[rows[: len(a)]]
        affected |= ((step == 1) & far_alive[b][:, None]).any(axis=0)
        affected |= ((step == -1) & far_alive[a][:, None]).any(axis=0)


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
