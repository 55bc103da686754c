"""Correctness oracles owned by the benchmark.

None of them calls the code path it checks: path answers are checked
against a plain BFS over the engine's dominated alive edges, admission
decisions against a per-flow first-come-first-served loop, and
connectivity curves against SciPy's breadth-first shortest paths.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

UNREACHED = -1


class DominatedGraph:
    """The dominated subgraph of one engine state, for BFS checks."""

    def __init__(self, engine) -> None:
        self.n = engine.num_nodes
        self.alive = engine.alive_view.copy()
        src, dst = engine.dominated_alive_edges()
        self.edges = {
            (min(u, v), max(u, v)) for u, v in zip(src.tolist(), dst.tolist())
        }
        self.adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        self._dist: dict[int, list[int]] = {}

    def distances(self, s: int) -> list[int]:
        dist = self._dist.get(s)
        if dist is None:
            dist = [UNREACHED] * self.n
            if self.alive[s]:
                dist[s] = 0
                frontier = deque([s])
                while frontier:
                    u = frontier.popleft()
                    for v in self.adj[u]:
                        if dist[v] == UNREACHED:
                            dist[v] = dist[u] + 1
                            frontier.append(v)
            self._dist[s] = dist
        return dist

    def check(self, query, answer: dict) -> str | None:
        """``None`` when ``answer`` is right for ``query``, else why not."""
        if not answer.get("ok"):
            return f"ok=false: {answer.get('error')}"
        if (answer.get("src"), answer.get("dst")) != (query.src, query.dst):
            return "answer names another pair"
        d = UNREACHED
        if self.alive[query.dst]:
            d = self.distances(query.src)[query.dst]
        if answer.get("distance") != d:
            return f"distance {answer.get('distance')} != BFS {d}"
        reachable = d != UNREACHED and (
            query.max_hops is None or d <= query.max_hops
        )
        if answer.get("reachable") is not reachable:
            return f"reachable {answer.get('reachable')} != {reachable}"
        path = answer.get("path")
        if not (query.want_path and reachable):
            return None if path is None else "unrequested path returned"
        if not isinstance(path, list) or len(path) != d + 1:
            return f"path {path!r} is not a {d}-hop path"
        if path[0] != query.src or path[-1] != query.dst:
            return "path endpoints differ from the query"
        for u, v in zip(path, path[1:]):
            if (min(u, v), max(u, v)) not in self.edges:
                return f"path uses ({u}, {v}), not a dominated alive edge"
        return None


def fcfs_prefix(capacity, indptr, instances, flow_paths, flow_demands,
                k: int) -> np.ndarray:
    """Admitted mask of the first ``k`` flows, one flow at a time.

    A flow is admitted iff every edge instance on its path still has
    room for its demand.  Decisions for a prefix depend only on that
    prefix, so this checks any prefix of a batch.
    """
    used = np.zeros(len(capacity), dtype=np.float64)
    admitted = np.zeros(k, dtype=bool)
    for i in range(k):
        p = int(flow_paths[i])
        edges = instances[indptr[p]:indptr[p + 1]]
        demand = float(flow_demands[i])
        if np.all(used[edges] + demand <= capacity[edges]):
            used[edges] += demand
            admitted[i] = True
    return admitted


def residual_after(capacity, indptr, instances, flow_paths, flow_demands,
                   admitted) -> np.ndarray:
    """Capacity left once every admitted flow holds its demand."""
    paths = flow_paths[admitted]
    lens = indptr[paths + 1] - indptr[paths]
    starts = np.repeat(indptr[paths], lens)
    offsets = np.arange(int(lens.sum())) - np.repeat(np.cumsum(lens) - lens, lens)
    used = np.zeros(len(capacity), dtype=np.float64)
    np.add.at(used, instances[starts + offsets], np.repeat(flow_demands[admitted], lens))
    return capacity - used


def unexplained_rejections(residual, indptr, instances, flow_paths,
                           flow_demands, admitted) -> int:
    """Rejected flows that would fit on their path after the whole batch.

    Under first come, first served an edge's free capacity only
    shrinks, so a flow rejected for lack of room on some edge still
    lacks it at the end: ``residual`` must be below its demand on at
    least one edge of its path.  This checks every flow of a batch.
    """
    rejected = np.flatnonzero(~admitted)
    paths = flow_paths[rejected]
    lens = indptr[paths + 1] - indptr[paths]
    starts = np.cumsum(lens) - lens
    entry = np.repeat(indptr[paths] - starts, lens) + np.arange(int(lens.sum()))
    short = residual[instances[entry]] < np.repeat(flow_demands[rejected], lens)
    explained = np.logical_or.reduceat(short, starts) if len(short) else short
    return int(len(rejected) - np.count_nonzero(explained))


def _matrix(n: int, src, dst) -> sparse.csr_matrix:
    return sparse.csr_matrix(
        (np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n)
    )


def component_labels(graph) -> np.ndarray:
    """Connected-component label of every vertex."""
    mat = _matrix(graph.num_nodes, graph.edge_src, graph.edge_dst)
    return csgraph.connected_components(mat, directed=False)[1]


def connectivity(graph, brokers, max_hops: int) -> tuple[list[float], float]:
    """Exact l-hop connectivity fractions and saturated connectivity.

    Edges usable under ``brokers`` are those with at least one broker
    endpoint; ``None`` means every edge.
    """
    n = graph.num_nodes
    src, dst = graph.edge_src, graph.edge_dst
    if brokers is not None:
        mask = np.zeros(n, dtype=bool)
        mask[np.asarray(brokers, dtype=np.int64)] = True
        keep = mask[src] | mask[dst]
        src, dst = src[keep], dst[keep]
    mat = _matrix(n, src, dst)
    counts = np.zeros(max_hops, dtype=np.int64)
    for lo in range(0, n, 256):
        dist = csgraph.shortest_path(
            mat, directed=False, unweighted=True,
            indices=np.arange(lo, min(n, lo + 256)),
        )
        for hops in range(1, max_hops + 1):
            counts[hops - 1] += int(np.count_nonzero((dist > 0) & (dist <= hops)))
    _, labels = csgraph.connected_components(mat, directed=False)
    sizes = np.bincount(labels).astype(np.float64)
    pairs = n * (n - 1)
    return (counts / pairs).tolist(), float((sizes * (sizes - 1)).sum() / pairs)
