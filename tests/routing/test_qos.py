"""Unit tests for QoS-attributed links and QoS-constrained paths."""

import numpy as np
import pytest

from repro.core.domination import is_dominating_path
from repro.core.maxsg import maxsg
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph, EdgeAttributes
from repro.graph.multigraph import MultiGraph
from repro.routing.qos import (
    LinkMetrics,
    MultiQoSRouter,
    qos_coverage,
    qos_shortest_path,
    synthesize_link_metrics,
)
from repro.types import LinkKind


def line_with_metrics():
    """0-1-2-3 with hand-set latencies/bandwidths."""
    g = ASGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    metrics = LinkMetrics(
        latency_ms=np.array([10.0, 20.0, 5.0]),
        bandwidth_gbps=np.array([100.0, 1.0, 100.0]),
    )
    return g, metrics


def annotated_line():
    """:func:`line_with_metrics` plus the same graph carrying those metrics
    as its own edge attributes (bandwidth as capacity)."""
    g, metrics = line_with_metrics()
    annotated = g.with_edge_attrs(EdgeAttributes(
        capacity_gbps=metrics.bandwidth_gbps,
        latency_ms=metrics.latency_ms,
        link_kind=np.full(g.num_edges, LinkKind.IXP_PORT, dtype=np.uint8),
    ))
    return g, metrics, annotated


class TestLinkMetrics:
    def test_validation(self):
        with pytest.raises(AlgorithmError):
            LinkMetrics(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(AlgorithmError):
            LinkMetrics(np.array([-1.0]), np.array([1.0]))

    def test_synthesized_shapes(self, tiny_internet):
        m = synthesize_link_metrics(tiny_internet, seed=0)
        assert len(m.latency_ms) == tiny_internet.num_edges
        assert (m.latency_ms > 0).all() and (m.bandwidth_gbps > 0).all()

    def test_ixp_links_fast(self, tiny_internet):
        from repro.types import Relationship

        m = synthesize_link_metrics(tiny_internet, seed=0)
        member = tiny_internet.edge_rels == int(Relationship.IXP_MEMBERSHIP)
        c2p = tiny_internet.edge_rels == int(Relationship.CUSTOMER_TO_PROVIDER)
        assert m.latency_ms[member].mean() < m.latency_ms[c2p].mean()

    def test_deterministic(self, tiny_internet):
        a = synthesize_link_metrics(tiny_internet, seed=5)
        b = synthesize_link_metrics(tiny_internet, seed=5)
        assert np.array_equal(a.latency_ms, b.latency_ms)


class TestQoSShortestPath:
    def test_latency_sum(self):
        g, m = line_with_metrics()
        p = qos_shortest_path(g, m, 0, 3)
        assert p.path == [0, 1, 2, 3]
        assert p.latency_ms == pytest.approx(35.0)
        assert p.bottleneck_gbps == pytest.approx(1.0)

    def test_bandwidth_floor_blocks(self):
        g, m = line_with_metrics()
        assert qos_shortest_path(g, m, 0, 3, min_bandwidth_gbps=5.0) is None
        # A NaN floor would fail every ``>=`` and block every link too;
        # it is an error, not an answer.
        with pytest.raises(AlgorithmError):
            qos_shortest_path(g, m, 0, 3, min_bandwidth_gbps=float("nan"))

    def test_same_node(self):
        g, m = line_with_metrics()
        p = qos_shortest_path(g, m, 2, 2)
        assert p.path == [2] and p.latency_ms == 0.0

    def test_prefers_low_latency_detour(self):
        g = ASGraph.from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
        m = LinkMetrics(
            latency_ms=np.array([50.0, 50.0, 1.0, 1.0]),
            bandwidth_gbps=np.ones(4),
        )
        p = qos_shortest_path(g, m, 0, 3)
        assert p.path == [0, 2, 3]

    def test_dominated_restriction(self, tiny_internet):
        m = synthesize_link_metrics(tiny_internet, seed=0)
        brokers = maxsg(tiny_internet, 25)
        p = qos_shortest_path(tiny_internet, m, 50, 60, brokers=brokers)
        if p is not None:
            assert is_dominating_path(tiny_internet, p.path, brokers=brokers)

    def test_brokered_no_faster_than_free(self, tiny_internet):
        m = synthesize_link_metrics(tiny_internet, seed=0)
        brokers = maxsg(tiny_internet, 25)
        free = qos_shortest_path(tiny_internet, m, 10, 500)
        dom = qos_shortest_path(tiny_internet, m, 10, 500, brokers=brokers)
        if free is not None and dom is not None:
            assert dom.latency_ms >= free.latency_ms - 1e-9

    def test_out_of_range(self):
        """SciPy would wrap a source of -1 to the last vertex; the guard
        in front of it must not."""
        g, m = line_with_metrics()
        for source, target in ((0, 99), (-1, 3)):
            with pytest.raises(AlgorithmError):
                qos_shortest_path(g, m, source, target)


class TestQoSCoverage:
    def test_free_at_least_brokered(self, tiny_internet):
        m = synthesize_link_metrics(tiny_internet, seed=0)
        brokers = maxsg(tiny_internet, 20)
        free = qos_coverage(
            tiny_internet, m, None, max_latency_ms=80, num_pairs=200, seed=1
        )
        dom = qos_coverage(
            tiny_internet, m, brokers, max_latency_ms=80, num_pairs=200, seed=1
        )
        assert free >= dom - 1e-9

    def test_monotone_in_latency_budget(self, tiny_internet):
        m = synthesize_link_metrics(tiny_internet, seed=0)
        lo = qos_coverage(tiny_internet, m, None, max_latency_ms=20, num_pairs=200, seed=1)
        hi = qos_coverage(tiny_internet, m, None, max_latency_ms=120, num_pairs=200, seed=1)
        assert hi >= lo

    def test_invalid_budget(self, tiny_internet):
        m = synthesize_link_metrics(tiny_internet, seed=0)
        with pytest.raises(AlgorithmError):
            qos_coverage(tiny_internet, m, None, max_latency_ms=0.0)

    def test_nan_budget_rejected(self):
        g, m = line_with_metrics()
        with pytest.raises(AlgorithmError):
            qos_coverage(g, m, None, max_latency_ms=float("nan"))
        with pytest.raises(AlgorithmError):
            qos_coverage(
                g, m, None, max_latency_ms=100.0,
                min_bandwidth_gbps=float("nan"),
            )

    def test_infinite_budget_allowed(self):
        g, m = line_with_metrics()
        cov = qos_coverage(
            g, m, None, max_latency_ms=float("inf"), num_pairs=50, seed=0
        )
        assert cov == 1.0

    @pytest.mark.parametrize("num_pairs", [0, -5])
    def test_num_pairs_below_one_rejected(self, num_pairs):
        g, m = line_with_metrics()
        with pytest.raises(AlgorithmError):
            qos_coverage(
                g, m, None, max_latency_ms=100.0, num_pairs=num_pairs
            )

    def test_budget_is_inclusive(self):
        """A pair exactly at the latency budget counts as served."""
        g = ASGraph.from_edges(2, [(0, 1)])
        m = LinkMetrics(latency_ms=[10.0], bandwidth_gbps=[1.0])
        kwargs = dict(num_pairs=16, seed=0)
        assert qos_coverage(g, m, None, max_latency_ms=10.0, **kwargs) == 1.0
        assert qos_coverage(
            g, m, None, max_latency_ms=np.nextafter(10.0, 0.0), **kwargs
        ) == 0.0


class TestLinkMetricsValidation:
    """Regression tests for the historical ``__post_init__`` crashes."""

    def test_accepts_plain_lists(self):
        m = LinkMetrics(latency_ms=[1.0, 2.0], bandwidth_gbps=[3.0, 4.0])
        assert isinstance(m.latency_ms, np.ndarray)
        assert m.latency_ms.dtype == np.float64

    def test_accepts_empty_edge_list(self):
        m = LinkMetrics(latency_ms=[], bandwidth_gbps=[])
        assert len(m.latency_ms) == 0

    def test_rejects_non_numeric_dtype(self):
        with pytest.raises(AlgorithmError):
            LinkMetrics(
                latency_ms=np.array(["fast", "slow"]),
                bandwidth_gbps=np.array([1.0, 2.0]),
            )

    def test_rejects_non_finite(self):
        with pytest.raises(AlgorithmError):
            LinkMetrics(
                latency_ms=np.array([1.0, np.nan]),
                bandwidth_gbps=np.array([1.0, 2.0]),
            )
        with pytest.raises(AlgorithmError):
            LinkMetrics(
                latency_ms=np.array([1.0, np.inf]),
                bandwidth_gbps=np.array([1.0, 2.0]),
            )

    def test_rejects_2d(self):
        with pytest.raises(AlgorithmError):
            LinkMetrics(
                latency_ms=np.ones((2, 2)), bandwidth_gbps=np.ones((2, 2))
            )

    def test_edge_attrs_adapter_round_trip(self):
        """A graph's own edge attributes answer exactly like the same
        explicit metrics: latency as latency, capacity as bandwidth."""
        g, m, annotated = annotated_line()
        for floor in (0.0, 50.0):
            explicit = qos_shortest_path(g, m, 0, 3, min_bandwidth_gbps=floor)
            from_graph = qos_shortest_path(
                annotated, None, 0, 3, min_bandwidth_gbps=floor
            )
            assert from_graph == explicit
            for budget in (12.0, 40.0):
                kwargs = dict(
                    max_latency_ms=budget, min_bandwidth_gbps=floor,
                    num_pairs=50, seed=0,
                )
                assert qos_coverage(annotated, None, None, **kwargs) == (
                    qos_coverage(g, m, None, **kwargs)
                )

    def test_metrics_none_reads_graph_attrs(self):
        g, m, annotated = annotated_line()
        with_explicit = qos_shortest_path(g, m, 0, 3)
        from_graph = qos_shortest_path(annotated, None, 0, 3)
        assert from_graph.path == with_explicit.path == [0, 1, 2, 3]
        assert from_graph.latency_ms == with_explicit.latency_ms
        assert qos_shortest_path(
            annotated, None, 0, 3, min_bandwidth_gbps=50.0
        ) is None

    def test_metrics_none_without_attrs_rejected(self):
        g, _ = line_with_metrics()
        with pytest.raises(AlgorithmError):
            qos_shortest_path(g, None, 0, 3)
        with pytest.raises(AlgorithmError):
            qos_coverage(g, None, None, max_latency_ms=10.0)

    def test_misaligned_metrics_rejected(self):
        g, _ = line_with_metrics()
        short = LinkMetrics(latency_ms=[1.0], bandwidth_gbps=[1.0])
        with pytest.raises(AlgorithmError):
            qos_shortest_path(g, short, 0, 3)


class TestQoSEdgeCases:
    def test_infeasible_bandwidth_floor_path(self):
        """A floor above every link's bandwidth leaves no path at all."""
        g, m = line_with_metrics()
        assert qos_shortest_path(g, m, 0, 3, min_bandwidth_gbps=1e6) is None

    def test_infeasible_bandwidth_floor_coverage_is_zero(self):
        g, m = line_with_metrics()
        cov = qos_coverage(
            g, m, None, max_latency_ms=1e6, min_bandwidth_gbps=1e6,
            num_pairs=50, seed=0,
        )
        assert cov == 0.0

    def test_disconnected_dominated_graph(self):
        """Brokers covering only one side leave cross-side pairs dark."""
        # Two triangles 0-1-2 and 3-4-5 with no bridge.
        g = ASGraph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        m = LinkMetrics(latency_ms=np.ones(6), bandwidth_gbps=np.ones(6))
        assert qos_shortest_path(g, m, 0, 4, brokers=[1]) is None
        # Domination by a broker in the left triangle never reaches the
        # right one, whatever the budget.
        cov = qos_coverage(
            g, m, [1], max_latency_ms=100.0, num_pairs=100, seed=3
        )
        assert cov < 1.0

    def test_zero_admissible_pairs(self):
        """A broker set dominating nothing serves nothing."""
        # Path 0-1-2-3 with the only broker isolated from the middle:
        # brokers=[0] dominates only edge 0-1.
        g, m = line_with_metrics()
        assert qos_shortest_path(g, m, 1, 3, brokers=[0]) is None
        cov = qos_coverage(
            g, m, [0], max_latency_ms=1e6, num_pairs=50, seed=0
        )
        assert cov < 1.0
        # A graph with no vertices has no pairs to sample at all.
        empty = ASGraph.from_edges(0, [])
        none = LinkMetrics(latency_ms=[], bandwidth_gbps=[])
        with pytest.raises(AlgorithmError):
            qos_coverage(empty, none, None, max_latency_ms=10.0)

    def test_nan_demand_rejected(self):
        """A NaN demand would drop every bundle; it is an error."""
        _, _, annotated = annotated_line()
        mg = MultiGraph.from_asgraph(annotated)
        assert MultiQoSRouter(mg, demand_gbps=0.5).path(0, 3).path == [0, 1, 2, 3]
        with pytest.raises(AlgorithmError):
            MultiQoSRouter(mg, demand_gbps=float("nan"))

    def test_engine_degradation_reroutes(self):
        """Cutting the direct link forces the detour (or darkness)."""
        from repro.core.engine import DominationEngine

        g = ASGraph.from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
        m = LinkMetrics(
            latency_ms=np.array([1.0, 1.0, 50.0, 50.0]),
            bandwidth_gbps=np.ones(4),
        )
        engine = DominationEngine(g, {1: None, 2: None})
        fast = qos_shortest_path(g, m, 0, 3, engine=engine)
        assert fast.path == [0, 1, 3]
        engine.cut_link(1, 3)
        slow = qos_shortest_path(g, m, 0, 3, engine=engine)
        assert slow.path == [0, 2, 3]
        assert slow.edge_ids == (2, 3)
