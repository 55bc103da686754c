"""Property-based tests for domination and connectivity invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.connectivity import connectivity_curve, saturated_connectivity
from repro.core.coverage import coverage_fraction, coverage_value
from repro.core.domination import (
    broker_mask,
    brokers_mutually_connected,
    dominated_adjacency,
    is_dominating_path,
)
from repro.core.engine import DominationEngine
from repro.core.maxsg import maxsg
from repro.core.problems import MCBGInstance
from repro.core.selector import BrokerSelector
from repro.graph.asgraph import ASGraph
from repro.graph.csr import UNREACHABLE, bfs_levels
from repro.graph.paths import hop_distribution
from tests.oracles import bfs as bfs_oracle
from tests.oracles import domination as domination_oracle


@st.composite
def random_graphs(draw, min_nodes=4, max_nodes=20):
    n = draw(st.integers(min_nodes, max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(
            st.sampled_from(possible),
            min_size=n - 1,
            max_size=min(50, len(possible)),
            unique=True,
        )
    )
    return ASGraph.from_edges(n, edges)


@st.composite
def graph_and_brokers(draw):
    g = draw(random_graphs())
    brokers = draw(
        st.lists(st.integers(0, g.num_nodes - 1), min_size=1, max_size=5, unique=True)
    )
    return g, brokers


class TestDominatedGraphProperties:
    @given(graph_and_brokers())
    @settings(max_examples=60, deadline=None)
    def test_every_dominated_edge_touches_broker(self, gb):
        g, brokers = gb
        mask = broker_mask(g, brokers)
        adj = dominated_adjacency(g, brokers)
        for u in range(g.num_nodes):
            for v in adj.neighbors(u):
                assert mask[u] or mask[v]

    @given(graph_and_brokers())
    @settings(max_examples=40, deadline=None)
    def test_bfs_paths_are_dominating(self, gb):
        """Any shortest path in the dominated graph passes Definition 1."""
        from repro.graph.csr import bfs_parents

        g, brokers = gb
        adj = dominated_adjacency(g, brokers)
        source = brokers[0]
        parent = bfs_parents(adj, source)
        dist = bfs_levels(adj, source)
        for target in range(g.num_nodes):
            if target == source or dist[target] == UNREACHABLE:
                continue
            path = [target]
            while path[-1] != source:
                path.append(int(parent[path[-1]]))
            path.reverse()
            assert is_dominating_path(g, path, brokers=brokers)

    @given(graph_and_brokers())
    @settings(max_examples=40, deadline=None)
    def test_domination_monotone_in_brokers(self, gb):
        """Growing B can only connect more pairs."""
        g, brokers = gb
        extra = (brokers[0] + 1) % g.num_nodes
        before = saturated_connectivity(g, brokers)
        after = saturated_connectivity(g, brokers + [extra])
        assert after >= before - 1e-12


class TestConnectivityProperties:
    @given(graph_and_brokers())
    @settings(max_examples=40, deadline=None)
    def test_curve_monotone_and_bounded(self, gb):
        g, brokers = gb
        curve = connectivity_curve(g, brokers, max_hops=6)
        assert np.all(np.diff(curve.fractions) >= -1e-12)
        assert 0.0 <= curve.fractions[0] <= curve.saturated + 1e-12 <= 1.0 + 1e-12

    @given(graph_and_brokers())
    @settings(max_examples=30, deadline=None)
    def test_saturated_matches_pair_bfs(self, gb):
        """Component-based saturation == per-pair dominating-path checks."""
        g, brokers = gb
        n = g.num_nodes
        count = 0
        for u in range(n):
            adj = dominated_adjacency(g, brokers)
            dist = bfs_levels(adj, u)
            count += int(np.count_nonzero(dist > 0))
        assert saturated_connectivity(g, brokers) * n * (n - 1) == pytest.approx(
            count
        )


class TestOnePathPerQuestion:
    """The static helpers, the engine and the moved references agree."""

    @given(graph_and_brokers())
    @settings(max_examples=60, deadline=None)
    def test_saturated_matches_engine(self, gb):
        g, brokers = gb
        engine = DominationEngine(g, brokers)
        assert saturated_connectivity(g, brokers) == engine.saturated_connectivity()

    @given(graph_and_brokers())
    @settings(max_examples=60, deadline=None)
    def test_mutual_connectivity_matches_bfs_reference(self, gb):
        g, brokers = gb
        assert brokers_mutually_connected(
            g, brokers
        ) == domination_oracle.brokers_mutually_connected(g, brokers)

    @given(graph_and_brokers(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_engine_gain_equals_from_scratch_difference(self, gb, data):
        """Fig. 3's gain: the O(deg v) probe is bit-identical."""
        g, brokers = gb
        outside = [v for v in range(g.num_nodes) if v not in brokers]
        c = data.draw(st.sampled_from(outside)) if outside else brokers[0]
        engine = DominationEngine(g, brokers)
        gain = engine.connectivity_if_added(c) - engine.saturated_connectivity()
        expected = saturated_connectivity(g, brokers + [c]) - saturated_connectivity(
            g, brokers
        )
        assert gain == expected

    @given(graph_and_brokers())
    @settings(max_examples=60, deadline=None)
    def test_evaluate_matches_one_shot_evaluators(self, gb):
        g, brokers = gb
        result = BrokerSelector(g).evaluate(brokers)
        assert result.coverage == coverage_value(g, brokers)
        assert result.coverage_fraction == coverage_fraction(g, brokers)
        assert result.saturated_connectivity == saturated_connectivity(g, brokers)
        assert result.mcbg_feasible == brokers_mutually_connected(g, brokers)

    @given(graph_and_brokers(), st.one_of(st.none(), st.integers(0, 4)))
    @settings(max_examples=60, deadline=None)
    def test_bfs_levels_matches_reference(self, gb, max_depth):
        g, brokers = gb
        for adj in (g.adj, dominated_adjacency(g, brokers)):
            for source in range(g.num_nodes):
                assert np.array_equal(
                    bfs_levels(adj, source, max_depth=max_depth),
                    bfs_oracle.bfs_levels(adj, source, max_depth=max_depth),
                )

    @given(
        random_graphs(min_nodes=2),
        st.one_of(st.none(), st.integers(1, 30)),
        st.integers(0, 6),
        st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_hop_distribution_matches_reference(self, g, num_sources, max_hops, seed):
        got = hop_distribution(g, num_sources=num_sources, max_hops=max_hops, seed=seed)
        cumulative, unreachable = bfs_oracle.hop_distribution(
            g, num_sources=num_sources, max_hops=max_hops, seed=seed
        )
        assert np.array_equal(got.cumulative, cumulative)
        assert got.unreachable_fraction == unreachable


class TestMaxSGProperties:
    @given(random_graphs(), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_maxsg_always_mcbg_feasible(self, g, k):
        k = min(k, g.num_nodes)
        brokers = maxsg(g, k)
        assert MCBGInstance(g, k).is_feasible_solution(brokers)

    @given(random_graphs(), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_maxsg_no_duplicates_within_budget(self, g, k):
        k = min(k, g.num_nodes)
        brokers = maxsg(g, k)
        assert len(set(brokers)) == len(brokers) <= k
