"""Unit tests for hop-distance analysis and (alpha, beta) estimation."""

import pytest

from repro.exceptions import AlgorithmError
from repro.graph.generators import complete_graph, cycle_graph, path_graph
from repro.graph.paths import (
    eccentricity_lower_bound,
    estimate_alpha_beta,
    hop_distribution,
    shortest_path,
)


class TestHopDistribution:
    def test_complete_graph_all_one_hop(self):
        dist = hop_distribution(complete_graph(6))
        assert dist.probability_within(1) == pytest.approx(1.0)
        assert dist.unreachable_fraction == 0.0

    def test_path_graph_cumulative(self):
        dist = hop_distribution(path_graph(4))
        # ordered pairs at distance 1: 6 of 12; <=2: 10 of 12; <=3: all.
        assert dist.probability_within(1) == pytest.approx(0.5)
        assert dist.probability_within(2) == pytest.approx(10 / 12)
        assert dist.probability_within(3) == pytest.approx(1.0)

    def test_sampled_subset(self, tiny_internet):
        dist = hop_distribution(tiny_internet, num_sources=50, seed=0)
        assert dist.num_sources == 50
        assert 0.9 < dist.probability_within(8) <= 1.0

    def test_quantile_hops(self):
        dist = hop_distribution(path_graph(4))
        assert dist.quantile_hops(0.5) == 1
        assert dist.quantile_hops(1.0) == 3

    def test_disconnected_unreachable_fraction(self, disconnected_pair):
        dist = hop_distribution(disconnected_pair)
        assert dist.unreachable_fraction == pytest.approx(2 / 3)

    def test_zero_hops_joins_no_pair(self):
        dist = hop_distribution(path_graph(4), max_hops=0)
        assert dist.cumulative.tolist() == [0.0]
        assert dist.unreachable_fraction == 1.0

    def test_negative_hops_rejected(self):
        with pytest.raises(AlgorithmError, match="max_hops"):
            hop_distribution(path_graph(4), max_hops=-1)


class TestAlphaBeta:
    def test_tiny_internet_is_099_4ish(self, tiny_internet):
        alpha, beta = estimate_alpha_beta(tiny_internet, alpha=0.99, seed=0)
        assert alpha >= 0.99
        assert beta <= 5

    def test_complete_graph(self):
        alpha, beta = estimate_alpha_beta(complete_graph(8), alpha=0.99)
        assert beta == 1

    def test_invalid_alpha(self, k5):
        with pytest.raises(ValueError):
            estimate_alpha_beta(k5, alpha=0.3)

    def test_unreachable_alpha_raises(self, disconnected_pair):
        with pytest.raises(ValueError):
            estimate_alpha_beta(disconnected_pair, alpha=0.99, max_hops=4)


class TestShortestPath:
    def test_path_endpoints(self, path10):
        path = shortest_path(path10, 0, 9)
        assert path == list(range(10))

    def test_same_node(self, path10):
        assert shortest_path(path10, 3, 3) == [3]

    def test_disconnected_returns_none(self, disconnected_pair):
        assert shortest_path(disconnected_pair, 0, 3) is None

    def test_cycle_takes_short_side(self, cycle8):
        path = shortest_path(cycle8, 0, 2)
        assert len(path) == 3


class TestEccentricity:
    def test_path_lower_bound(self, path10):
        assert eccentricity_lower_bound(path10, num_probes=8, seed=0) == 9

    def test_empty_graph(self):
        from repro.graph.asgraph import ASGraph

        g = ASGraph.from_edges(0, [])
        assert eccentricity_lower_bound(g) == 0
