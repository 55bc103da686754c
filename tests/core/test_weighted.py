"""Unit tests for traffic-weighted broker selection."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.coverage import coverage_value
from repro.core.domination import brokers_mutually_connected
from repro.core.engine import DominationEngine
from repro.core.greedy import lazy_greedy_max_coverage
from repro.core.maxsg import maxsg
from repro.core.robustness import redundant_greedy
from repro.core.weighted import (
    traffic_weights,
    weighted_gain,
    weighted_greedy,
    weighted_maxsg,
    weighted_saturated_connectivity,
)
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from tests import fixtures


class TestTrafficWeights:
    def test_sum_to_one(self, tiny_internet):
        w = traffic_weights(tiny_internet, seed=0)
        assert w.sum() == pytest.approx(1.0)

    def test_ixps_carry_no_traffic(self, tiny_internet):
        w = traffic_weights(tiny_internet, seed=0)
        assert np.all(w[tiny_internet.ixp_ids()] == 0.0)

    def test_heavy_tail(self, tiny_internet):
        w = traffic_weights(tiny_internet, seed=0)
        top = np.sort(w)[::-1]
        assert top[:10].sum() > 0.2  # top-10 ASes carry a big share

    def test_deterministic(self, tiny_internet):
        a = traffic_weights(tiny_internet, seed=3)
        b = traffic_weights(tiny_internet, seed=3)
        assert np.array_equal(a, b)

    def test_invalid_exponent(self, tiny_internet):
        with pytest.raises(AlgorithmError):
            traffic_weights(tiny_internet, zipf_exponent=0.0)


class TestWeightedOracle:
    """The weighted gain over the engine's covered mask."""

    def test_uniform_weights_match_unweighted(self, star10):
        w = np.ones(10)
        engine = DominationEngine(star10)
        gain = weighted_gain(engine, w)
        assert gain(0) == pytest.approx(10.0)
        engine.add_broker(0)
        assert w[engine.covered_view].sum() == pytest.approx(10.0)

    def test_marginal_matches_recompute(self, tiny_internet):
        w = traffic_weights(tiny_internet, seed=0)
        engine = DominationEngine(tiny_internet)
        gain = weighted_gain(engine, w)
        rng = np.random.default_rng(1)
        total = 0.0
        for v in rng.choice(tiny_internet.num_nodes, size=10, replace=False):
            expected = gain(int(v))
            realized = float(w[engine.add_broker(int(v))].sum())
            assert expected == pytest.approx(realized)
            total += realized
        assert w[engine.covered_view].sum() == pytest.approx(total)

    def test_shape_validation(self, star10):
        for bad in (np.ones(5), -np.ones(10)):
            with pytest.raises(AlgorithmError):
                weighted_gain(DominationEngine(star10), bad)
            with pytest.raises(AlgorithmError):
                weighted_greedy(star10, bad, 2)
            with pytest.raises(AlgorithmError):
                weighted_maxsg(star10, bad, 2)


@st.composite
def random_graphs(draw, max_nodes=30):
    n = draw(st.integers(3, max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=1,
                 max_size=min(70, len(possible)), unique=True)
    )
    return ASGraph.from_edges(n, edges)


class TestWeightedGreedy:
    @given(random_graphs(), st.integers(1, 10))
    @example(fixtures.internet("tiny", 1), 10)
    @settings(max_examples=60, deadline=None)
    def test_uniform_weights_equal_unweighted(self, graph, budget):
        """Unit weights and ``r = 1`` reduce both extensions to ``f``, so
        the shared CELF and MaxSG loops must pick the same brokers,
        ties included."""
        budget = min(budget, graph.num_nodes)
        w = np.ones(graph.num_nodes)
        lazy = lazy_greedy_max_coverage(graph, budget)
        assert weighted_greedy(graph, w, budget) == lazy
        assert redundant_greedy(graph, budget, redundancy=1) == lazy
        assert weighted_maxsg(graph, w, budget) == maxsg(graph, budget)

    def test_chases_heavy_vertices(self, path10):
        w = np.zeros(10)
        w[9] = 1.0  # all the traffic at one end
        brokers = weighted_greedy(path10, w, 1)
        assert brokers[0] in (8, 9)

    def test_budget_respected(self, tiny_internet):
        w = traffic_weights(tiny_internet, seed=0)
        assert len(weighted_greedy(tiny_internet, w, 7)) <= 7

    def test_weighted_beats_unweighted_on_traffic(self, tiny_internet):
        w = traffic_weights(tiny_internet, seed=0)
        k = 12
        unweighted = lazy_greedy_max_coverage(tiny_internet, k)
        weighted = weighted_greedy(tiny_internet, w, k)
        uw = weighted_saturated_connectivity(tiny_internet, w, unweighted)
        ww = weighted_saturated_connectivity(tiny_internet, w, weighted)
        assert ww >= uw - 1e-9


class TestWeightedMaxSG:
    def test_preserves_mcbg_guarantee(self, tiny_internet):
        w = traffic_weights(tiny_internet, seed=0)
        brokers = weighted_maxsg(tiny_internet, w, 15)
        assert brokers_mutually_connected(tiny_internet, brokers)

    def test_explicit_seed(self, path10):
        w = np.ones(10)
        brokers = weighted_maxsg(path10, w, 2, seed_vertex=5)
        assert brokers[0] == 5

    def test_close_to_weighted_greedy(self, tiny_internet):
        w = traffic_weights(tiny_internet, seed=0)
        k = 12
        greedy_cov = weighted_saturated_connectivity(
            tiny_internet, w, weighted_greedy(tiny_internet, w, k)
        )
        maxsg_cov = weighted_saturated_connectivity(
            tiny_internet, w, weighted_maxsg(tiny_internet, w, k)
        )
        assert maxsg_cov >= 0.9 * greedy_cov

    def test_invalid_seed_vertex(self, star10):
        with pytest.raises(AlgorithmError):
            weighted_maxsg(star10, np.ones(10), 2, seed_vertex=99)


class TestWeightedConnectivity:
    def test_full_graph_is_one(self, k5):
        w = np.ones(5)
        assert weighted_saturated_connectivity(k5, w, None) == pytest.approx(1.0)

    def test_zero_weights(self, star10):
        assert weighted_saturated_connectivity(star10, np.zeros(10), [0]) == 0.0

    def test_uniform_matches_unweighted(self, tiny_internet):
        from repro.core.connectivity import saturated_connectivity

        w = np.ones(tiny_internet.num_nodes)
        brokers = list(range(20))
        assert weighted_saturated_connectivity(
            tiny_internet, w, brokers
        ) == pytest.approx(saturated_connectivity(tiny_internet, brokers))

    def test_only_heavy_component_counts(self, disconnected_pair):
        w = np.array([0.5, 0.5, 0.0, 0.0])
        # component {0, 1} holds all the traffic and is internally served.
        assert weighted_saturated_connectivity(
            disconnected_pair, w, [0]
        ) == pytest.approx(1.0)
