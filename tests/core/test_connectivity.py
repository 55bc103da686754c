"""Unit tests for the l-hop E2E connectivity engine."""

import numpy as np
import pytest

from repro.core.connectivity import (
    connectivity_curve,
    path_inflation,
    saturated_connectivity,
)
from repro.core.engine import DominationEngine
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph


class TestSaturated:
    def test_full_graph(self, k5):
        assert saturated_connectivity(k5, None) == 1.0

    def test_star_hub_only(self, star10):
        assert saturated_connectivity(star10, [0]) == 1.0

    def test_star_leaf_only(self, star10):
        # Broker at leaf 1: dominated edges = (0,1); component {0,1}.
        assert saturated_connectivity(star10, [1]) == pytest.approx(2 / 90)

    def test_no_brokers_means_isolated(self, star10):
        assert saturated_connectivity(star10, []) == 0.0

    def test_disconnected_graph(self, disconnected_pair):
        sat = saturated_connectivity(disconnected_pair, None)
        assert sat == pytest.approx(4 / 12)

    def test_single_vertex(self):
        g = ASGraph.from_edges(1, [])
        assert saturated_connectivity(g, None) == 0.0


class TestCurve:
    def test_path_free_curve(self, path10):
        curve = connectivity_curve(path10, None, max_hops=9)
        # at l=9 every ordered pair is connected.
        assert curve.at(9) == pytest.approx(1.0)
        assert curve.saturated == pytest.approx(1.0)
        assert curve.exact

    def test_curve_monotone_in_l(self, tiny_internet):
        curve = connectivity_curve(tiny_internet, None, max_hops=6)
        assert np.all(np.diff(curve.fractions) >= -1e-12)

    def test_curve_saturates_to_component_bound(self, tiny_internet):
        curve = connectivity_curve(tiny_internet, None, max_hops=12)
        assert curve.at(12) == pytest.approx(curve.saturated, abs=1e-9)

    def test_broker_curve_below_free(self, tiny_internet):
        brokers = list(range(10))
        free = connectivity_curve(tiny_internet, None, max_hops=5)
        dom = connectivity_curve(tiny_internet, brokers, max_hops=5)
        assert np.all(dom.fractions <= free.fractions + 1e-12)

    def test_sampled_close_to_exact(self, tiny_internet):
        exact = connectivity_curve(tiny_internet, None, max_hops=4)
        sampled = connectivity_curve(
            tiny_internet, None, max_hops=4, num_sources=300, seed=0
        )
        assert not sampled.exact
        assert abs(sampled.at(4) - exact.at(4)) < 0.05

    def test_at_clamps(self, path10):
        curve = connectivity_curve(path10, None, max_hops=3)
        assert curve.at(0) == 0.0
        assert curve.at(99) == curve.at(3)

    def test_as_rows(self, path10):
        curve = connectivity_curve(path10, None, max_hops=3)
        rows = curve.as_rows()
        assert len(rows) == 4
        assert rows[-1][0] == -1

    def test_validation(self, path10):
        with pytest.raises(AlgorithmError):
            connectivity_curve(path10, None, max_hops=0)
        with pytest.raises(AlgorithmError):
            connectivity_curve(ASGraph.from_edges(1, []), None)

    @pytest.mark.parametrize("num_sources", [0, -3])
    def test_num_sources_below_one_rejected(self, path10, num_sources):
        with pytest.raises(AlgorithmError, match="num_sources"):
            connectivity_curve(path10, None, num_sources=num_sources)

    def test_hub_reaches_all_pairs_in_two_hops(self, star10):
        assert connectivity_curve(star10, [0], max_hops=2).at(2) == pytest.approx(1.0)


class TestAgainstBruteForce:
    def test_small_graph_all_pairs(self, two_triangles):
        """Exact pairwise check of the dominated l-hop semantics."""
        import itertools

        from repro.core.domination import dominated_adjacency
        from tests.oracles.bfs import bfs_levels

        brokers = [2, 3]
        curve = connectivity_curve(two_triangles, brokers, max_hops=4)
        adj = dominated_adjacency(two_triangles, brokers)
        n = 6
        for l in range(1, 5):
            count = 0
            for u, v in itertools.permutations(range(n), 2):
                d = bfs_levels(adj, u)[v]
                if 0 < d <= l:
                    count += 1
            assert curve.at(l) == pytest.approx(count / (n * (n - 1)))


class TestInflationAndGain:
    def test_inflation_zero_for_full_set(self, tiny_internet):
        free = connectivity_curve(tiny_internet, None, max_hops=4)
        full = connectivity_curve(
            tiny_internet, list(range(tiny_internet.num_nodes)), max_hops=4
        )
        assert np.allclose(path_inflation(free, full), 0.0, atol=1e-12)

    def test_inflation_positive_for_small_set(self, tiny_internet):
        free = connectivity_curve(tiny_internet, None, max_hops=4)
        dom = connectivity_curve(tiny_internet, [0], max_hops=4)
        assert path_inflation(free, dom).max() > 0

    def test_marginal_gain_positive_for_new_hub(self, star10):
        engine = DominationEngine(star10, [1])
        gain = engine.connectivity_if_added(0) - engine.saturated_connectivity()
        assert gain > 0.9

    def test_marginal_gain_zero_for_redundant(self, star10):
        engine = DominationEngine(star10, [0])
        gain = engine.connectivity_if_added(1) - engine.saturated_connectivity()
        assert gain == pytest.approx(0.0)
