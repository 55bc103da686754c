"""Property-based tests (hypothesis) for the coverage function and greedy."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coverage import coverage_value
from repro.core.engine import DominationEngine
from repro.core.greedy import greedy_max_coverage, lazy_greedy_max_coverage
from repro.graph.asgraph import ASGraph


@st.composite
def random_graphs(draw, min_nodes=3, max_nodes=25):
    """A random simple connected-ish graph as an ASGraph."""
    n = draw(st.integers(min_nodes, max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), min_size=1, max_size=min(60, len(possible)), unique=True)
    )
    return ASGraph.from_edges(n, edges)


@st.composite
def graph_with_brokers(draw):
    g = draw(random_graphs())
    brokers = draw(
        st.lists(st.integers(0, g.num_nodes - 1), min_size=0, max_size=6, unique=True)
    )
    return g, brokers


class TestCoverageProperties:
    @given(graph_with_brokers())
    @settings(max_examples=60, deadline=None)
    def test_monotonicity(self, gb):
        """Adding any vertex never decreases f(B)."""
        g, brokers = gb
        base = coverage_value(g, brokers)
        for v in range(g.num_nodes):
            assert coverage_value(g, brokers + [v]) >= base

    @given(graph_with_brokers(), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_submodularity(self, gb, v_seed):
        """Marginal gain shrinks as the base set grows (Lemma 3)."""
        g, brokers = gb
        v = v_seed % g.num_nodes
        small = brokers[: len(brokers) // 2]
        gain_small = coverage_value(g, small + [v]) - coverage_value(g, small)
        gain_full = coverage_value(g, brokers + [v]) - coverage_value(g, brokers)
        assert gain_small >= gain_full

    @given(graph_with_brokers())
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, gb):
        """|B| <= f(B) <= |V| for non-empty B (dedup applied)."""
        g, brokers = gb
        value = coverage_value(g, brokers)
        assert len(set(brokers)) <= value <= g.num_nodes or not brokers

    @given(graph_with_brokers())
    @settings(max_examples=40, deadline=None)
    def test_oracle_consistency(self, gb):
        """Incremental engine == from-scratch evaluation at every prefix."""
        g, brokers = gb
        engine = DominationEngine(g)
        for i, v in enumerate(brokers):
            engine.add_broker(v)
            assert engine.coverage() == coverage_value(g, brokers[: i + 1])


class TestGreedyProperties:
    @given(random_graphs(), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_lazy_equals_plain(self, g, k):
        k = min(k, g.num_nodes)
        assert lazy_greedy_max_coverage(g, k) == greedy_max_coverage(g, k)

    @given(random_graphs(), st.integers(1, 5), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_greedy_guarantee_vs_random_witness(self, g, k, seed):
        """greedy(k) >= (1 - 1/e) * f(S) for any size-k witness S.

        This is implied by Lemma 4 (f(S) <= OPT); random witnesses probe
        it without the exponential exact solve.
        """
        k = min(k, g.num_nodes)
        value = coverage_value(g, greedy_max_coverage(g, k))
        rng = np.random.default_rng(seed)
        for _ in range(5):
            witness = rng.choice(g.num_nodes, size=k, replace=False).tolist()
            assert value >= (1 - math.exp(-1)) * coverage_value(g, witness) - 1e-9

    @given(random_graphs(), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_greedy_first_pick_is_best_singleton(self, g, k):
        k = min(k, g.num_nodes)
        brokers = greedy_max_coverage(g, k)
        best_single = max(
            coverage_value(g, [v]) for v in range(g.num_nodes)
        )
        assert coverage_value(g, [brokers[0]]) == best_single
