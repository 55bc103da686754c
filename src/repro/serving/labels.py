"""2-hop hub labels over the broker-dominated subgraph.

The serving tier answers "is ``(src, dst)`` B-dominated-connected within
``l`` hops, and via which path?" without a BFS per query.  The index is
a *pruned landmark labeling* (Akiba–Iwata–Yoshida) of the dominated
subgraph ``B ⊙ A`` — the alive edges with an effective broker endpoint,
the edges a broker can stitch a path over:

* every alive vertex has a distinct **rank** (lower = earlier hub).  A
  fresh build ranks by dominated degree, descending, id as tie-break;
  the repairer keeps ranks fixed afterwards;
* the labels are **canonical** for the ranks: ``h ∈ L(v)``, with value
  ``d(h, v)``, iff ``h`` outranks every other vertex on every shortest
  ``h–v`` path.  So ``L(v)`` holds only hubs that outrank ``v`` (and
  ``v``), and depends on nothing but the graph and the ranks;
* one **pruned BFS** per root, in rank order, produces exactly those
  labels.  Adjacency is sorted neighbour lists.  A sweep spreads the
  root's label into an index-wide scratch list, ``tmp[h] = d(root, h)``,
  so a vertex ``v`` at level ``d`` is covered — neither labeled nor
  expanded — iff one pass over ``L(v)`` finds ``tmp[h] + d(h, v) <= d``.
  The sweep records the vertices it labeled in ``hub_vertices[root]``,
  so a re-sweep deletes the entries it no longer reaches without a scan;
* a query merges two labels: ``dist(s, t) = min over common hubs h of
  d(s, h) + d(h, t)`` — exact, a few microseconds, no traversal.

Paths are unfolded on demand by walking distance-decreasing neighbours
toward the best hub.  :meth:`HubLabelIndex.verify` recomputes every
distance from scratch (one BFS per vertex) and raises on any drift, and
:meth:`HubLabelIndex.from_payload` validates cache payloads, an input
boundary, before it builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import AlgorithmError
from repro.obs import metrics as _metrics

__all__ = ["HubLabelIndex", "QueryAnswer", "UNREACHED"]

#: Sentinel hop distance for unreachable pairs (mirrors ``csr.UNREACHABLE``
#: but stays JSON-safe in service responses).
UNREACHED = -1

#: An edge ``(u, v)``, ``u < v``, is the int64 key ``u << KEY_SHIFT | v``:
#: sorted keys are lexicographically sorted edges, whatever the universe.
KEY_SHIFT = 32

#: Scratch distance of a hub outside the current root's label.
_FAR = 1 << 40


@dataclass(frozen=True)
class QueryAnswer:
    """One resolved path query.

    ``distance`` is the exact dominated-subgraph hop distance, or
    ``None`` when the pair is not B-dominated-connected at all;
    ``reachable`` additionally folds in the hop bound when one was
    given.  ``path`` is only populated when the caller asked for it and
    the pair is reachable within the bound.
    """

    src: int
    dst: int
    reachable: bool
    distance: int | None
    path: list[int] | None = None

    def as_dict(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "reachable": self.reachable,
            "distance": UNREACHED if self.distance is None else self.distance,
            "path": self.path,
        }


def edge_keys(src, dst) -> np.ndarray:
    """Sorted unique int64 keys of the undirected edges ``src[i]–dst[i]``."""
    return np.unique(_keys(src, dst))


def _keys(src, dst) -> np.ndarray:
    """Unsorted int64 keys of the undirected edges ``src[i]–dst[i]``."""
    src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
    return (np.minimum(src, dst) << KEY_SHIFT) | np.maximum(src, dst)


def key_endpoints(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(u, v)`` endpoint arrays of edge keys, ``u < v``."""
    return keys >> KEY_SHIFT, keys & ((1 << KEY_SHIFT) - 1)


def adjacency_lists(n: int, keys: np.ndarray) -> list[list[int]]:
    """Sorted neighbour lists over ``n`` vertices of the keyed edges."""
    lo, hi = key_endpoints(keys)
    src, dst = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    flat = np.arange(n, dtype=object)[dst[order]].tolist()  # shared ints
    bounds = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    return [flat[bounds[v]:bounds[v + 1]] for v in range(n)]


def _snapshot(engine) -> tuple[int, np.ndarray, np.ndarray]:
    """``(n, alive, dominated edge keys)`` of the engine's current state.

    The engine's edge set is simple (``ASGraph.from_edges`` rejects
    duplicates and ``add_link`` revives a cut edge instead of adding a
    second one), so sorting its keys gives :func:`edge_keys`' array
    without the cost of ``np.unique``.
    """
    src, dst = engine.dominated_alive_edges()
    return engine.num_nodes, engine.alive_view.copy(), np.sort(_keys(src, dst))


class HubLabelIndex:
    """Mutable 2-hop hub-label index over one engine's dominated graph.

    Build with :meth:`build`; query with :meth:`distance` /
    :meth:`query`; let :class:`repro.serving.repair.LabelRepairer` keep
    it synchronized with engine mutations.  The index itself never
    watches the engine: the repairer edits ``adj``/``alive``/``rank``
    and re-sweeps hubs with :meth:`_pruned_bfs`.
    """

    def __init__(
        self,
        n: int,
        alive: np.ndarray,
        adj: list[list[int]],
        rank: np.ndarray,
    ) -> None:
        self.n = n
        self.alive = alive
        #: Sorted neighbour list per vertex of the dominated subgraph.
        self.adj = adj
        #: Hub order per vertex (lower = earlier hub; distinct if alive).
        self.rank = rank
        #: Per-vertex label entries as ``{hub: dist}``.
        self.hub_dists: list[dict[int, int]] = [dict() for _ in range(n)]
        #: Per hub, the vertices whose labels hold it (inverse of the above).
        self.hub_vertices: list[list[int]] = [[] for _ in range(n)]
        # Root-distance scratch of the pruned BFS (``_FAR`` between sweeps).
        self._tmp = [_FAR] * n
        # Frozen sorted-array form per vertex, rebuilt lazily.
        self._hubs: list[np.ndarray | None] = [None] * n
        self._dists: list[np.ndarray | None] = [None] * n

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, engine) -> "HubLabelIndex":
        """Canonical pruned-landmark labeling of ``engine``'s dominated
        subgraph (degree-ordered roots, earlier-label pruning)."""
        n, alive, keys = _snapshot(engine)
        # Dead vertices keep the out-of-band rank ``n``.
        index = cls(n, alive, adjacency_lists(n, keys),
                    np.full(n, n, dtype=np.int64))
        cand = np.flatnonzero(alive)
        degrees = np.bincount(np.concatenate(key_endpoints(keys)), minlength=n)
        roots = cand[np.lexsort((cand, -degrees[cand]))]
        index.rank[roots] = np.arange(len(roots), dtype=np.int64)
        for r in roots.tolist():
            index._pruned_bfs(r)
        _metrics.add_counter("serving.index.builds")
        _metrics.add_counter("serving.index.label_entries",
                             index.label_entries())
        return index

    def _pruned_bfs(self, root: int) -> None:
        """(Re)label hub ``root``: add ``(root, d)`` to every vertex the
        other hubs' labels cannot answer within its BFS level ``d``; a
        covered vertex is pruned — neither labeled nor expanded.  Old
        ``root`` entries (which never prune: ``tmp[root]`` stays far) are
        overwritten, or deleted if unreached; a dead root labels nothing.
        """
        labels, adj, tmp, hubs = self.hub_dists, self.adj, self._tmp, self._hubs
        root_label = [(h, d) for h, d in labels[root].items() if h != root]
        for h, d in root_label:
            tmp[h] = d
        stale = self.hub_vertices[root]
        swept = self.hub_vertices[root] = []
        seen = {root}
        frontier = [root] if self.alive[root] else []
        level = 0
        while frontier:
            kept = []
            for v in frontier:
                entries = labels[v]
                for h, d in entries.items():
                    if tmp[h] + d <= level:
                        break
                else:
                    entries[root] = level
                    hubs[v] = None
                    swept.append(v)
                    kept.append(v)
            frontier = []
            for v in kept:
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
            level += 1
        for h, _ in root_label:
            tmp[h] = _FAR
        if stale:
            relabeled = set(swept)
            for v in stale:
                if v not in relabeled:
                    del labels[v][root]
                    hubs[v] = None

    def _extend(self, n: int) -> None:
        """Grow the universe to ``n``; the new vertices start dead."""
        grow = n - self.n
        self.adj.extend([] for _ in range(grow))
        self.hub_dists.extend(dict() for _ in range(grow))
        self.hub_vertices.extend([] for _ in range(grow))
        self._tmp.extend([_FAR] * grow)
        self._hubs.extend([None] * grow)
        self._dists.extend([None] * grow)
        self.rank = np.concatenate([self.rank, np.full(grow, n)])
        self.alive = np.concatenate([self.alive, np.zeros(grow, dtype=bool)])
        self.n = n

    def _set_label(self, v: int, entries: dict[int, int]) -> None:
        """Replace ``L(v)`` wholesale, keeping the inverse index exact."""
        for h in self.hub_dists[v]:
            self.hub_vertices[h].remove(v)
        for h in entries:
            self.hub_vertices[h].append(v)
        self.hub_dists[v] = entries
        self._hubs[v] = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _frozen(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        if self._hubs[v] is None:
            pairs = np.asarray(sorted(self.hub_dists[v].items()),
                               dtype=np.int64).reshape(-1, 2)
            self._hubs[v], self._dists[v] = pairs[:, 0], pairs[:, 1]
        return self._hubs[v], self._dists[v]

    def distance(self, src: int, dst: int) -> int | None:
        """Exact dominated-subgraph hop distance, ``None`` if unreachable.

        Dead vertices are not in the subgraph, so any query touching one
        is unreachable — including ``src == dst``.  The merge iterates
        the smaller label dict and probes the larger, materializing no
        arrays: sub-microsecond at ~8 entries (p50 at ``small``).
        """
        self._check_vertex(src)
        self._check_vertex(dst)
        if not (self.alive[src] and self.alive[dst]):
            return None
        if src == dst:
            return 0
        e1 = self.hub_dists[src]
        e2 = self.hub_dists[dst]
        if len(e1) > len(e2):
            e1, e2 = e2, e1
        best = None
        for h, d in e1.items():
            other = e2.get(h)
            if other is not None and (best is None or d + other < best):
                best = d + other
        return best

    def best_hub(self, src: int, dst: int) -> tuple[int, int] | None:
        """``(hub, distance)`` minimizing the 2-hop sum (smallest-id tie)."""
        if not (self.alive[src] and self.alive[dst]):
            return None
        if src == dst:
            return src, 0
        e1 = self.hub_dists[src]
        e2 = self.hub_dists[dst]
        if len(e1) > len(e2):
            e1, e2 = e2, e1
        best: tuple[int, int] | None = None
        for h, d in e1.items():
            other = e2.get(h)
            if other is None:
                continue
            total = d + other
            if best is None or total < best[1] or (
                total == best[1] and h < best[0]
            ):
                best = (h, total)
        return best

    def query(
        self,
        src: int,
        dst: int,
        max_hops: int | None = None,
        *,
        with_path: bool = False,
    ) -> QueryAnswer:
        """Resolve one path query against the current labels."""
        if max_hops is not None and max_hops < 0:
            raise AlgorithmError(f"max_hops must be >= 0, got {max_hops}")
        dist = self.distance(src, dst)
        reachable = dist is not None and (max_hops is None or dist <= max_hops)
        path = self.path(src, dst) if with_path and reachable else None
        return QueryAnswer(src, dst, reachable, dist, path)

    def path(self, src: int, dst: int) -> list[int] | None:
        """A shortest dominated path, unfolded from the labels.

        Deterministic: walks distance-decreasing neighbors toward the
        best hub, taking the smallest-id neighbor at every step.  Every
        vertex on the returned path is alive and dominated (each edge of
        the dominated subgraph has an effective broker endpoint, so both
        of its endpoints are covered).
        """
        resolved = self.best_hub(src, dst)
        if resolved is None:
            return None
        hub, _ = resolved
        first = self._walk_to_hub(src, hub)
        second = self._walk_to_hub(dst, hub)
        return first + second[::-1][1:]

    def _walk_to_hub(self, v: int, hub: int) -> list[int]:
        walk = [v]
        dist = self.distance(v, hub)
        while v != hub:
            for u in self.adj[v]:
                if self.distance(u, hub) == dist - 1:
                    walk.append(u)
                    v, dist = u, dist - 1
                    break
            else:  # pragma: no cover - defends label exactness
                raise AlgorithmError(
                    f"path unfolding stuck at {v} toward hub {hub}"
                )
        return walk

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def label_entries(self) -> int:
        """Total number of ``(hub, dist)`` entries across all vertices."""
        return sum(len(entries) for entries in self.hub_dists)

    def labels_of(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted ``(hubs, dists)`` arrays of one vertex (do not mutate)."""
        self._check_vertex(v)
        return self._frozen(v)

    def _check_vertex(self, v: int) -> None:
        if not isinstance(v, (int, np.integer)) or not 0 <= v < self.n:
            raise AlgorithmError(
                f"vertex {v!r} out of range for universe of {self.n}"
            )

    def bfs_distances(self, src: int) -> np.ndarray:
        """From-scratch BFS distances over the dominated subgraph —
        the per-query oracle the labels are pinned against."""
        dist = [UNREACHED] * self.n
        if 0 <= src < self.n and self.alive[src]:
            dist[src] = 0
            queue = [src]
            for v in queue:  # grows while iterated: a FIFO
                for u in self.adj[v]:
                    if dist[u] == UNREACHED:
                        dist[u] = dist[v] + 1
                        queue.append(u)
        return np.asarray(dist, dtype=np.int64)

    def verify(self) -> bool:
        """Recompute every distance from scratch; raise on any drift.

        Mirrors :meth:`DominationEngine.verify`: one BFS per vertex is
        the oracle, and every label-derived answer must match it —
        including unreachability and dead-vertex emptiness.  The
        hub → vertex index must be the exact inverse of the labels.
        O(n * m), a debugging/testing facility exactly like the engine's.
        """
        if sorted((h, v) for v in range(self.n) for h in self.hub_dists[v]) \
                != sorted((h, v) for h in range(self.n) for v in self.hub_vertices[h]):
            raise AlgorithmError("hub_vertices is not the inverse of labels")
        for v in range(self.n):
            if not self.alive[v] and self.hub_dists[v]:
                raise AlgorithmError(f"dead vertex {v} carries labels")
            if np.any(self._frozen(v)[1] < 0):
                raise AlgorithmError(f"negative label distance at {v}")
        for s in range(self.n):
            truth = self.bfs_distances(s)
            for t in range(self.n):
                expected = int(truth[t])
                got = self.distance(s, t)
                got = UNREACHED if got is None else got
                if got != expected:
                    raise AlgorithmError(
                        f"label distance({s}, {t}) = {got} diverged from "
                        f"BFS recomputation {expected}"
                    )
        return True

    # ------------------------------------------------------------------
    # Serialization (the result-cache payload)
    # ------------------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-safe dump: labels, rank, aliveness and edge list."""
        return {
            "n": self.n,
            "dead": [int(v) for v in np.flatnonzero(~self.alive)],
            "rank": self.rank.tolist(),
            "edges": [[u, v] for u in range(self.n)
                      for v in self.adj[u] if u < v],
            "labels": [
                sorted([int(h), int(d)] for h, d in self.hub_dists[v].items())
                for v in range(self.n)
            ],
        }

    @classmethod
    def from_payload(cls, payload) -> "HubLabelIndex":
        """Rebuild a :meth:`to_payload` dump, validating it first.

        A cache file is outside input: anything that breaks the index's
        structural invariants raises :class:`AlgorithmError` naming the
        bad field.  Label *distances* are not re-derived; :meth:`verify`
        does that.
        """
        if not isinstance(payload, dict):
            payload = {}
        n = payload.get("n")
        _require(type(n) is int and n >= 0, "n", "needs an int >= 0")
        alive = np.ones(n, dtype=bool)
        alive[_ints(payload.get("dead"), "dead", n)] = False
        edges = _ints(payload.get("edges"), "edges", n, width=2)
        _require(bool(np.all(edges[:, 0] != edges[:, 1]) and alive[edges].all()),
                 "edges", "needs edges between distinct alive vertices")
        rank = _ints(payload.get("rank"), "rank")
        _require(len(rank) == n and len(np.unique(rank[alive])) == alive.sum(),
                 "rank", f"needs {n} ranks, distinct on alive vertices")
        labels = payload.get("labels")
        _require(isinstance(labels, list) and len(labels) == n, "labels",
                 f"needs {n} rows")
        index = cls(n, alive, adjacency_lists(n, edge_keys(*edges.T)), rank)
        alive_list = alive.tolist()
        for v, row in enumerate(labels):
            ok = isinstance(row, list) and all(
                isinstance(p, list) and len(p) == 2 and type(p[0]) is int
                and type(p[1]) is int and 0 <= p[0] < n and alive_list[p[0]]
                and p[1] >= 0 for p in row
            )
            entries = dict(row) if ok else {}
            _require(ok and len(entries) == len(row)
                     and (alive_list[v] or not row), "labels",
                     f"row {v} needs distinct [alive hub, dist >= 0] "
                     "pairs, and none on a dead vertex")
            index._set_label(v, entries)
        return index


def _require(ok: bool, field: str, why: str) -> None:
    if not ok:
        raise AlgorithmError(f"index payload field {field!r}: {why}")


def _ints(value, field: str, bound: int | None = None,
          width: int | None = None) -> np.ndarray:
    """``value`` as int64 rows of ``width`` ints (flat if None), each
    in ``[0, bound)`` when a bound is given."""
    shape = (0,) if width is None else (0, width)
    try:
        arr = np.asarray(value if value != [] else np.empty(shape, np.int64))
    except ValueError:  # ragged rows
        arr = np.empty(0, dtype=object)
    _require(arr.dtype.kind in "iu" and arr.shape[1:] == shape[1:]
             and arr.ndim == len(shape), field,
             "needs a list of ints" if width is None
             else f"needs a list of {width}-int rows")
    _require(bound is None or not arr.size
             or (arr.min() >= 0 and arr.max() < bound), field,
             f"needs ints in [0, {bound})")
    return arr.astype(np.int64)
