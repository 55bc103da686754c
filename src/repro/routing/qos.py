"""QoS-attributed links and QoS-constrained brokered paths.

The broker set exists to deliver *QoS guarantees*, so the library models
the quantities an SLA would actually specify: per-link latency and
bandwidth.  This module provides

* :class:`LinkMetrics` — latency/bandwidth annotations over an
  :class:`~repro.graph.asgraph.ASGraph`'s edge list, with a synthetic
  model (intra-continental IXP fabrics are fast; crossing the transit
  hierarchy costs more);
* :func:`qos_shortest_path` — minimum-latency path subject to a
  bandwidth floor, restricted to B-dominated edges (Dijkstra on the
  filtered dominated graph);
* :func:`qos_coverage` — the fraction of pairs servable within a latency
  budget and bandwidth floor, the QoS analogue of l-hop connectivity.

This is the "computing QoS-constrained paths" capability the related
work ([7], [9], [10]) builds *inside* a known subtopology — here the
dominated graph takes that role, which is the paper's whole point: the
broker set is the subtopology you can measure and control.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.engine import DominationEngine
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.graph.multigraph import MultiGraph
from repro.types import Relationship
from repro.utils.rng import SeedLike, ensure_rng


def _metric_array(values, what: str) -> np.ndarray:
    """Coerce and validate one per-edge metric array.

    Accepts any 1-D numeric array-like (lists included — the historical
    ``__post_init__`` crashed on those with a bare ``AttributeError``),
    rejects non-numeric dtypes instead of silently comparing them, and
    allows the empty edge list (an edgeless graph is a valid topology).
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise AlgorithmError(f"{what} must be 1-D, got shape {arr.shape}")
    if not (
        np.issubdtype(arr.dtype, np.floating)
        or np.issubdtype(arr.dtype, np.integer)
    ):
        raise AlgorithmError(f"{what} must be numeric, got dtype {arr.dtype}")
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if len(arr):
        if not np.isfinite(arr).all():
            raise AlgorithmError(f"{what} must be finite")
        if (arr <= 0).any():
            raise AlgorithmError(f"{what} must be strictly positive")
    return arr


@dataclass(frozen=True)
class LinkMetrics:
    """Per-undirected-edge latency (ms) and bandwidth (Gbps) annotations.

    What the QoS functions below compute over: pass one explicitly (as
    :func:`synthesize_link_metrics` returns it; the ``ext_qos``
    experiment runs on that), or pass ``metrics=None`` to read a graph's
    own :class:`~repro.graph.asgraph.EdgeAttributes` (capacity as
    bandwidth).
    """

    latency_ms: np.ndarray
    bandwidth_gbps: np.ndarray

    def __post_init__(self) -> None:
        latency = _metric_array(self.latency_ms, "latency_ms")
        bandwidth = _metric_array(self.bandwidth_gbps, "bandwidth_gbps")
        if latency.shape != bandwidth.shape:
            raise AlgorithmError(
                "latency/bandwidth arrays must align: "
                f"{latency.shape} vs {bandwidth.shape}"
            )
        object.__setattr__(self, "latency_ms", latency)
        object.__setattr__(self, "bandwidth_gbps", bandwidth)


def _resolve_metrics(graph: ASGraph, metrics: LinkMetrics | None) -> LinkMetrics:
    """Explicit metrics win; otherwise read the graph's own attributes."""
    if metrics is not None:
        if len(metrics.latency_ms) != graph.num_edges:
            raise AlgorithmError(
                f"metrics carry {len(metrics.latency_ms)} edges, "
                f"graph has {graph.num_edges}"
            )
        return metrics
    if graph.edge_attrs is None:
        raise AlgorithmError(
            "no metrics given and the graph carries no edge attributes; "
            "pass metrics= or annotate the graph via with_edge_attrs()"
        )
    return LinkMetrics(
        latency_ms=graph.edge_attrs.latency_ms,
        bandwidth_gbps=graph.edge_attrs.capacity_gbps,
    )


def synthesize_link_metrics(
    graph: ASGraph, *, seed: SeedLike = 0
) -> LinkMetrics:
    """Generate plausible latency/bandwidth per edge.

    * IXP membership links: metro-area fabrics — 0.5-3 ms, 10-100 Gbps.
    * Peering links: 2-25 ms, 10-100 Gbps.
    * Customer/provider links: 5-60 ms (long-haul transit), 1-40 Gbps,
      with capacity loosely increasing in the provider's degree.
    """
    rng = ensure_rng(seed)
    m = graph.num_edges
    latency = np.empty(m)
    bandwidth = np.empty(m)
    degrees = graph.degrees()
    for i in range(m):
        rel = int(graph.edge_rels[i])
        if rel == int(Relationship.IXP_MEMBERSHIP):
            latency[i] = rng.uniform(0.5, 3.0)
            bandwidth[i] = rng.uniform(10.0, 100.0)
        elif rel == int(Relationship.PEER_TO_PEER):
            latency[i] = rng.uniform(2.0, 25.0)
            bandwidth[i] = rng.uniform(10.0, 100.0)
        else:
            latency[i] = rng.uniform(5.0, 60.0)
            provider = int(graph.edge_dst[i])
            scale = 1.0 + 39.0 * min(degrees[provider] / max(degrees.max(), 1), 1.0)
            bandwidth[i] = rng.uniform(1.0, scale)
    return LinkMetrics(latency_ms=latency, bandwidth_gbps=bandwidth)


@dataclass(frozen=True)
class QoSPath:
    """A latency-optimal B-dominated path meeting a bandwidth floor.

    ``edge_ids`` lists the base-edge index of every hop (aligned with the
    owning graph's canonical edge list), which is what the admission
    layer's residual-capacity accounting reserves against.
    """

    path: list[int]
    latency_ms: float
    bottleneck_gbps: float
    edge_ids: tuple[int, ...] = ()

    @property
    def hops(self) -> int:
        return len(self.path) - 1


@dataclass(frozen=True)
class MultiQoSPath:
    """A QoS path over a multigraph, pinned to concrete edge instances.

    ``instance_ids[k]`` is the parallel edge instance chosen for hop
    ``path[k] -> path[k+1]`` — the min-latency instance among those whose
    capacity meets the demand (the "min-latency-over-max-capacity" rule).
    """

    path: list[int]
    instance_ids: tuple[int, ...]
    latency_ms: float
    bottleneck_gbps: float

    @property
    def hops(self) -> int:
        return len(self.path) - 1


def _build_weighted_adjacency(
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


def _dijkstra_qos(
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
    adj = _build_weighted_adjacency(
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
    return _dijkstra_qos(
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
    result = _dijkstra_qos(
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
    adj = _build_weighted_adjacency(
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
