"""Reference QoS searches: Python adjacency lists and heap Dijkstra.

:func:`dijkstra_qos` (over :func:`build_weighted_adjacency`'s
list-of-tuples adjacency) is the reference for
:meth:`repro.routing.qos.QoSGraph.path`, :func:`qos_coverage` for its
namesake's one multi-source SciPy search, :func:`multigraph_qos_path`
(with its own copy of the bundle rule) for
:class:`repro.routing.qos.MultiQoSRouter`, and :func:`build_path_pool`
for :func:`repro.experiments.admission.build_path_pool`.  Each rebuilds
the filtered adjacency on every call, as the replaced code did.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.engine import DominationEngine
from repro.exceptions import AlgorithmError
from repro.experiments.admission import DEMAND_CLASSES, PathPool
from repro.graph.asgraph import ASGraph
from repro.graph.multigraph import MultiGraph
from repro.routing.qos import (
    LinkMetrics,
    MultiQoSPath,
    QoSPath,
    _resolve_metrics,
)
from repro.utils.rng import SeedLike, ensure_rng


def build_weighted_adjacency(
    graph: ASGraph,
    latency: np.ndarray,
    bandwidth: np.ndarray,
    keep: np.ndarray,
    brokers: list[int] | None,
    engine: DominationEngine | None = None,
) -> list[list[tuple[int, float, float, int]]]:
    """Adjacency lists of (neighbor, latency, bandwidth, edge_id), filtered.

    ``engine`` routes over a live (possibly degraded) domination state:
    only alive base edges with an effective broker endpoint survive.
    Engine extension edges carry no metrics and are not used.
    """
    n = graph.num_nodes
    if engine is not None:
        keep = keep & engine.dominated_base_edge_mask()
    elif brokers is not None:
        dominated = DominationEngine(
            graph, dict.fromkeys(int(b) for b in brokers)
        )
        keep = keep & dominated.dominated_base_edge_mask()
    adj: list[list[tuple[int, float, float, int]]] = [[] for _ in range(n)]
    for i in np.flatnonzero(keep):
        u, v = int(graph.edge_src[i]), int(graph.edge_dst[i])
        lat, bw = float(latency[i]), float(bandwidth[i])
        adj[u].append((v, lat, bw, int(i)))
        adj[v].append((u, lat, bw, int(i)))
    return adj


def dijkstra_qos(
    graph: ASGraph,
    latency: np.ndarray,
    bandwidth: np.ndarray,
    keep: np.ndarray,
    source: int,
    target: int,
    brokers: list[int] | None,
    engine: DominationEngine | None,
) -> QoSPath | None:
    n = graph.num_nodes
    if not (0 <= source < n and 0 <= target < n):
        raise AlgorithmError("source/target out of range")
    if source == target:
        return QoSPath([source], 0.0, float("inf"))
    adj = build_weighted_adjacency(
        graph, latency, bandwidth, keep, brokers, engine=engine
    )
    dist = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    bottleneck = np.zeros(n)
    dist[source] = 0.0
    bottleneck[source] = float("inf")
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == target:
            break
        for v, lat, bw, eid in adj[u]:
            nd = d + lat
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                parent_edge[v] = eid
                bottleneck[v] = min(bottleneck[u], bw)
                heapq.heappush(heap, (nd, v))
    if not np.isfinite(dist[target]):
        return None
    path = [target]
    edge_ids: list[int] = []
    while path[-1] != source:
        edge_ids.append(int(parent_edge[path[-1]]))
        path.append(int(parent[path[-1]]))
    path.reverse()
    edge_ids.reverse()
    return QoSPath(
        path=path,
        latency_ms=float(dist[target]),
        bottleneck_gbps=float(bottleneck[target]),
        edge_ids=tuple(edge_ids),
    )


def qos_shortest_path(
    graph: ASGraph,
    metrics: LinkMetrics | None,
    source: int,
    target: int,
    *,
    brokers: list[int] | None = None,
    min_bandwidth_gbps: float = 0.0,
    engine: DominationEngine | None = None,
) -> QoSPath | None:
    """Minimum-latency (optionally B-dominated) path above a bandwidth floor.

    Classic Dijkstra over the filtered adjacency; returns ``None`` when no
    compliant path exists.  ``brokers=None`` searches the full topology —
    the baseline an SLA negotiator compares the brokered offer against.
    Passing ``engine`` routes over its live (possibly degraded) state.
    ``metrics=None`` reads the graph's own edge attributes.
    """
    metrics = _resolve_metrics(graph, metrics)
    keep = metrics.bandwidth_gbps >= min_bandwidth_gbps
    return dijkstra_qos(
        graph,
        metrics.latency_ms,
        metrics.bandwidth_gbps,
        keep,
        source,
        target,
        brokers,
        engine,
    )


def multigraph_qos_path(
    multigraph: MultiGraph,
    source: int,
    target: int,
    *,
    demand_gbps: float = 0.0,
    brokers: list[int] | None = None,
    engine: DominationEngine | None = None,
    residual_gbps: np.ndarray | None = None,
) -> MultiQoSPath | None:
    """Min-latency path over a multigraph for a bandwidth demand.

    For every bundle of parallel instances, the instance actually used is
    the minimum-latency one among those whose capacity (or, when
    ``residual_gbps`` is given, whose *residual* capacity) meets
    ``demand_gbps``; bundles with no qualifying instance drop out of the
    search entirely.  The search itself runs on the simplified view —
    pass ``engine`` (built via ``DominationEngine.from_multigraph``) to
    restrict to the live dominated subtopology.
    """
    capacity = (
        multigraph.attrs.capacity_gbps if residual_gbps is None else residual_gbps
    )
    if len(capacity) != multigraph.num_edge_instances:
        raise AlgorithmError(
            f"residual array carries {len(capacity)} instances, "
            f"multigraph has {multigraph.num_edge_instances}"
        )
    view = multigraph.simplify(annotate=False)
    edge_of_instance = view.edge_of_instance
    n_simple = view.graph.num_edges
    ok_inst = capacity >= demand_gbps
    inst_latency = np.where(ok_inst, multigraph.attrs.latency_ms, np.inf)
    best_latency = np.full(n_simple, np.inf, dtype=np.float64)
    np.minimum.at(best_latency, edge_of_instance, inst_latency)
    achieves = inst_latency == best_latency[edge_of_instance]
    best_instance = np.full(n_simple, np.iinfo(np.int64).max, dtype=np.int64)
    ids = np.arange(multigraph.num_edge_instances, dtype=np.int64)
    np.minimum.at(best_instance, edge_of_instance[achieves], ids[achieves])
    keep = np.isfinite(best_latency)
    best_instance[~keep] = -1
    bandwidth = np.where(keep, capacity[np.maximum(best_instance, 0)], 0.0)
    latency = np.where(keep, best_latency, 1.0)
    result = dijkstra_qos(
        view.graph, latency, bandwidth, keep, source, target, brokers, engine
    )
    if result is None:
        return None
    return MultiQoSPath(
        path=result.path,
        instance_ids=tuple(int(best_instance[e]) for e in result.edge_ids),
        latency_ms=result.latency_ms,
        bottleneck_gbps=result.bottleneck_gbps,
    )


def qos_coverage(
    graph: ASGraph,
    metrics: LinkMetrics | None,
    brokers: list[int] | None,
    *,
    max_latency_ms: float,
    min_bandwidth_gbps: float = 0.0,
    num_pairs: int = 500,
    seed: SeedLike = 0,
    engine: DominationEngine | None = None,
) -> float:
    """Fraction of sampled pairs servable within the QoS budget.

    The QoS analogue of l-hop connectivity: a pair counts when a
    (B-dominated) path exists with end-to-end latency ``<= max_latency_ms``
    whose every link offers ``>= min_bandwidth_gbps``.  ``metrics=None``
    reads the graph's own edge attributes.
    """
    if max_latency_ms <= 0:
        raise AlgorithmError("max_latency_ms must be positive")
    rng = ensure_rng(seed)
    n = graph.num_nodes
    metrics = _resolve_metrics(graph, metrics)
    adj = build_weighted_adjacency(
        graph,
        metrics.latency_ms,
        metrics.bandwidth_gbps,
        metrics.bandwidth_gbps >= min_bandwidth_gbps,
        brokers,
        engine=engine,
    )
    served = 0
    # One Dijkstra per sampled source, reused for several targets.
    sources = rng.integers(0, n, size=max(num_pairs // 8, 1))
    targets_per_source = max(num_pairs // len(sources), 1)
    total = 0
    for s in sources:
        s = int(s)
        dist = np.full(n, np.inf)
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u] or d > max_latency_ms:
                continue
            for v, lat, _bw, _eid in adj[u]:
                nd = d + lat
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        for t in rng.integers(0, n, size=targets_per_source):
            t = int(t)
            if t == s:
                continue
            total += 1
            if dist[t] <= max_latency_ms:
                served += 1
    return served / total if total else 0.0


def build_path_pool(
    multigraph: MultiGraph,
    engine: DominationEngine,
    *,
    num_pairs: int,
    seed: SeedLike,
    demand_floor_gbps: float = float(DEMAND_CLASSES[-1]),
    max_attempts_factor: int = 20,
) -> PathPool:
    """Sample broker-dominated min-latency paths for random endpoint pairs.

    Each path is computed at the *largest* demand class as its bandwidth
    floor, so every pooled path can statically carry any demand class —
    contention at admission time is purely about residual capacity.
    Pairs with no compliant dominated path are skipped and resampled.
    """
    if num_pairs < 1:
        raise AlgorithmError(f"num_pairs must be >= 1, got {num_pairs}")
    rng = ensure_rng(seed)
    n = multigraph.num_nodes
    indptr = [0]
    instances: list[np.ndarray] = []
    pairs: list[tuple[int, int]] = []
    latencies: list[float] = []
    attempts = 0
    max_attempts = num_pairs * max_attempts_factor
    while len(pairs) < num_pairs and attempts < max_attempts:
        attempts += 1
        s, t = int(rng.integers(n)), int(rng.integers(n))
        if s == t:
            continue
        route = multigraph_qos_path(
            multigraph, s, t, demand_gbps=demand_floor_gbps, engine=engine
        )
        if route is None:
            continue
        pairs.append((s, t))
        instances.append(np.asarray(route.instance_ids, dtype=np.int64))
        indptr.append(indptr[-1] + len(route.instance_ids))
        latencies.append(route.latency_ms)
    if not pairs:
        raise AlgorithmError(
            "no serveable pairs found; broker set too small or demand "
            "floor infeasible"
        )
    return PathPool(
        indptr=np.asarray(indptr, dtype=np.int64),
        instances=(
            np.concatenate(instances)
            if instances
            else np.zeros(0, dtype=np.int64)
        ),
        pairs=np.asarray(pairs, dtype=np.int64),
        latencies=np.asarray(latencies, dtype=np.float64),
    )
