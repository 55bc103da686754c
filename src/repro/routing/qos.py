"""QoS-attributed links and QoS-constrained brokered paths.

The broker set exists to deliver *QoS guarantees*, so the library models
the quantities an SLA would actually specify: per-link latency and
bandwidth.  This module provides

* :class:`LinkMetrics` — latency/bandwidth annotations over an
  :class:`~repro.graph.asgraph.ASGraph`'s edge list, with a synthetic
  model (intra-continental IXP fabrics are fast; crossing the transit
  hierarchy costs more);
* :class:`QoSGraph` — the filtered, weighted dominated graph, prepared
  once as a SciPy CSR matrix and searched with
  :func:`scipy.sparse.csgraph.dijkstra`;
* :func:`qos_shortest_path` — minimum-latency path subject to a
  bandwidth floor, restricted to B-dominated edges (prepared graph,
  SciPy Dijkstra);
* :class:`MultiQoSRouter` — the same search over a multigraph's
  simplified view, pinned to concrete parallel edge instances for one
  bandwidth demand;
* :func:`qos_coverage` — the fraction of pairs servable within a latency
  budget and bandwidth floor, the QoS analogue of l-hop connectivity.

This is the "computing QoS-constrained paths" capability the related
work ([7], [9], [10]) builds *inside* a known subtopology — here the
dominated graph takes that role, which is the paper's whole point: the
broker set is the subtopology you can measure and control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from repro.core.domination import broker_mask, dominated_edge_mask
from repro.core.engine import DominationEngine
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.graph.csr import build_multi_csr
from repro.graph.multigraph import MultiGraph
from repro.types import Relationship
from repro.utils.rng import SeedLike, ensure_rng


#: Distance entries one multi-source search in :func:`qos_coverage` may
#: return (32 MB of float64): the sampled sources are searched in one
#: call unless that would exceed it.
_DISTANCES_PER_SEARCH = 1 << 22


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


def _check_floor(value: float, what: str) -> None:
    """Reject a NaN bandwidth floor: every ``>=`` against it is false, so
    it would silently drop every link."""
    if np.isnan(value):
        raise AlgorithmError(f"{what} must not be NaN")


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


class QoSGraph:
    """The filtered, weighted dominated graph, prepared for many searches.

    Built once per (metrics, bandwidth floor, broker set or engine state):
    ``keep`` masks the base edges that meet the floor, ``brokers``
    further restricts them to ``B ⊙ A`` (at least one broker endpoint)
    and ``engine`` to its live dominated base edges instead (extension
    edges carry no metrics and are not used).  The kept edges become one
    symmetric SciPy CSR matrix of latencies, with the base edge id of
    every stored entry alongside; every query is then one
    :func:`scipy.sparse.csgraph.dijkstra` call on it.
    """

    def __init__(
        self,
        graph: ASGraph,
        latency_ms: np.ndarray,
        bandwidth_gbps: np.ndarray,
        keep: np.ndarray,
        *,
        brokers: list[int] | None = None,
        engine: DominationEngine | None = None,
    ) -> None:
        if engine is not None:
            keep = keep & engine.dominated_base_edge_mask()
        elif brokers is not None:
            keep = keep & dominated_edge_mask(graph, broker_mask(graph, brokers))
        n = graph.num_nodes
        ids = np.flatnonzero(keep)
        self._adj = build_multi_csr(n, graph.edge_src[ids], graph.edge_dst[ids])
        self._edge_ids = ids[self._adj.edge_ids]
        latency = np.asarray(latency_ms, dtype=np.float64)[self._edge_ids]
        self._matrix = sparse.csr_matrix(
            (latency, self._adj.indices, self._adj.indptr), shape=(n, n)
        )
        self._bandwidth = np.asarray(bandwidth_gbps, dtype=np.float64)

    def path(self, source: int, target: int) -> QoSPath | None:
        """Minimum-latency kept path, or ``None`` when there is none."""
        n = self._adj.num_vertices
        # SciPy would silently wrap a negative index to the last vertex.
        if not (0 <= source < n and 0 <= target < n):
            raise AlgorithmError("source/target out of range")
        if source == target:
            return QoSPath([source], 0.0, float("inf"))
        dist, pred = dijkstra(
            self._matrix, directed=True, indices=source,
            return_predecessors=True,
        )
        if not np.isfinite(dist[target]):
            return None
        path = [target]
        while path[-1] != source:
            path.append(int(pred[path[-1]]))
        path.reverse()
        edge_ids = []
        for u, v in zip(path, path[1:]):
            slot = self._adj.indptr[u] + np.flatnonzero(self._adj.neighbors(u) == v)[0]
            edge_ids.append(int(self._edge_ids[slot]))
        return QoSPath(
            path=path,
            latency_ms=float(dist[target]),
            bottleneck_gbps=float(self._bandwidth[edge_ids].min()),
            edge_ids=tuple(edge_ids),
        )

    def within(self, sources: np.ndarray, max_latency_ms: float) -> np.ndarray:
        """Latency from each source to every vertex, one row per source.

        Vertices farther than ``max_latency_ms`` (the limit itself is
        kept) or unreachable read ``inf``.
        """
        sources = np.asarray(sources, dtype=np.int64)
        n = self._adj.num_vertices
        if len(sources) and (sources.min() < 0 or sources.max() >= n):
            raise AlgorithmError("source out of range")
        return dijkstra(
            self._matrix, directed=True, indices=sources, limit=max_latency_ms
        )


class MultiQoSRouter:
    """Min-latency routing over a multigraph for one bandwidth demand.

    Prepared once per (demand, capacity vector, broker set or engine
    state) and then asked any number of pairs.  For every bundle of
    parallel instances, the instance actually used is the one
    :meth:`~repro.graph.multigraph.MultiGraph.best_instance_per_edge`
    picks: the minimum-latency instance among those whose capacity (or,
    when ``residual_gbps`` is given, whose *residual* capacity) meets
    ``demand_gbps``.  Bundles with no qualifying instance drop out of the
    search, which runs on the simplified view — pass ``engine`` (built
    via ``DominationEngine.from_multigraph``) to restrict it to the live
    dominated subtopology.
    """

    def __init__(
        self,
        multigraph: MultiGraph,
        *,
        demand_gbps: float = 0.0,
        brokers: list[int] | None = None,
        engine: DominationEngine | None = None,
        residual_gbps: np.ndarray | None = None,
    ) -> None:
        _check_floor(demand_gbps, "demand_gbps")
        capacity = (
            multigraph.attrs.capacity_gbps
            if residual_gbps is None
            else np.asarray(residual_gbps, dtype=np.float64)
        )
        best_instance, best_latency = multigraph.best_instance_per_edge(
            demand_gbps, capacity_gbps=capacity
        )
        if engine is None:
            graph = multigraph.simplify(annotate=False).graph
        elif engine.graph.num_edges == len(best_instance):
            graph = engine.graph
        else:
            raise AlgorithmError(
                "engine must run over the multigraph's simplified view"
            )
        keep = best_instance >= 0
        bandwidth = np.zeros(len(best_instance), dtype=np.float64)
        bandwidth[keep] = capacity[best_instance[keep]]
        self._best_instance = best_instance
        self._graph = QoSGraph(
            graph, best_latency, bandwidth, keep, brokers=brokers, engine=engine
        )

    def path(self, source: int, target: int) -> MultiQoSPath | None:
        """Min-latency route pinned to instances, or ``None``."""
        route = self._graph.path(source, target)
        if route is None:
            return None
        return MultiQoSPath(
            path=route.path,
            instance_ids=tuple(
                int(self._best_instance[e]) for e in route.edge_ids
            ),
            latency_ms=route.latency_ms,
            bottleneck_gbps=route.bottleneck_gbps,
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

    Prepares a :class:`QoSGraph` and searches it once; returns ``None``
    when no compliant path exists.  ``brokers=None`` searches the full
    topology — the baseline an SLA negotiator compares the brokered offer
    against.  Passing ``engine`` routes over its live (possibly degraded)
    state.  ``metrics=None`` reads the graph's own edge attributes.
    """
    _check_floor(min_bandwidth_gbps, "min_bandwidth_gbps")
    metrics = _resolve_metrics(graph, metrics)
    return QoSGraph(
        graph,
        metrics.latency_ms,
        metrics.bandwidth_gbps,
        metrics.bandwidth_gbps >= min_bandwidth_gbps,
        brokers=brokers,
        engine=engine,
    ).path(source, target)


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
    reads the graph's own edge attributes.  One multi-source search
    answers every sampled source.
    """
    if not max_latency_ms > 0:
        raise AlgorithmError(
            f"max_latency_ms must be positive, got {max_latency_ms}"
        )
    if num_pairs < 1:
        raise AlgorithmError(f"num_pairs must be >= 1, got {num_pairs}")
    _check_floor(min_bandwidth_gbps, "min_bandwidth_gbps")
    rng = ensure_rng(seed)
    n = graph.num_nodes
    if n < 1:
        raise AlgorithmError("qos_coverage needs a graph with vertices")
    metrics = _resolve_metrics(graph, metrics)
    qos = QoSGraph(
        graph,
        metrics.latency_ms,
        metrics.bandwidth_gbps,
        metrics.bandwidth_gbps >= min_bandwidth_gbps,
        brokers=brokers,
        engine=engine,
    )
    sources = rng.integers(0, n, size=max(num_pairs // 8, 1))
    targets_per_source = max(num_pairs // len(sources), 1)
    block = max(1, _DISTANCES_PER_SEARCH // max(n, 1))
    served = 0
    total = 0
    for start in range(0, len(sources), block):
        chunk = sources[start:start + block]
        for s, row in zip(chunk, qos.within(chunk, max_latency_ms)):
            targets = rng.integers(0, n, size=targets_per_source)
            targets = targets[targets != s]
            total += len(targets)
            served += int(np.count_nonzero(row[targets] <= max_latency_ms))
    return served / total if total else 0.0
