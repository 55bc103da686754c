"""Unit tests for the coverage function f(B) = |B ∪ N(B)|."""

import numpy as np
import pytest

from repro.core.coverage import (
    coverage_fraction,
    coverage_value,
    covered_mask,
)
from repro.core.engine import DominationEngine
from repro.exceptions import AlgorithmError


class TestCoverageValue:
    def test_star_hub(self, star10):
        assert coverage_value(star10, [0]) == 10

    def test_star_leaf(self, star10):
        assert coverage_value(star10, [3]) == 2

    def test_path_middle(self, path10):
        assert coverage_value(path10, [5]) == 3

    def test_union_not_double_counted(self, path10):
        assert coverage_value(path10, [4, 5]) == 4

    def test_empty_brokers(self, path10):
        assert coverage_value(path10, []) == 0

    def test_out_of_range(self, path10):
        with pytest.raises(AlgorithmError):
            coverage_value(path10, [99])

    def test_fraction(self, star10):
        assert coverage_fraction(star10, [0]) == 1.0
        assert coverage_fraction(star10, [1]) == pytest.approx(0.2)

    def test_covered_mask(self, path10):
        mask = covered_mask(path10, [0])
        assert mask.tolist() == [True, True] + [False] * 8


class TestCoverageOracle:
    """The engine's incremental coverage queries, the ones every
    selection loop runs on, against the one-shot evaluator."""

    def test_marginal_gain_matches_direct(self, tiny_internet):
        engine = DominationEngine(tiny_internet)
        rng = np.random.default_rng(0)
        chosen = []
        for v in rng.choice(tiny_internet.num_nodes, size=12, replace=False):
            v = int(v)
            expected = coverage_value(tiny_internet, chosen + [v]) - coverage_value(
                tiny_internet, chosen
            )
            assert engine.marginal_gain(v) == expected
            engine.add_broker(v)
            chosen.append(v)

    def test_add_returns_gain(self, star10):
        engine = DominationEngine(star10)
        assert len(engine.add_broker(0)) == 10
        assert len(engine.add_broker(1)) == 0

    def test_coverage_accumulates(self, path10):
        engine = DominationEngine(path10)
        engine.add_broker(0)
        engine.add_broker(9)
        assert engine.coverage() == 4
        assert engine.brokers() == [0, 9]

    def test_uncovered_count(self, path10):
        engine = DominationEngine(path10)
        engine.add_broker(5)
        assert path10.num_nodes - engine.coverage() == 7

    def test_invalid_broker(self, path10):
        engine = DominationEngine(path10)
        with pytest.raises(AlgorithmError):
            engine.add_broker(-1)

    def test_is_covered(self, path10):
        engine = DominationEngine(path10)
        engine.add_broker(0)
        assert engine.is_covered(1)
        assert not engine.is_covered(2)


class TestSubmodularity:
    def test_diminishing_returns_explicit(self, tiny_internet):
        """f is submodular: gain of v w.r.t. A >= gain w.r.t. A ∪ B."""
        rng = np.random.default_rng(3)
        n = tiny_internet.num_nodes
        for _ in range(20):
            nodes = rng.choice(n, size=8, replace=False)
            small = list(nodes[:3])
            big = list(nodes[:6])
            v = int(nodes[7])
            gain_small = coverage_value(tiny_internet, small + [v]) - coverage_value(
                tiny_internet, small
            )
            gain_big = coverage_value(tiny_internet, big + [v]) - coverage_value(
                tiny_internet, big
            )
            assert gain_small >= gain_big

    def test_monotone(self, tiny_internet):
        rng = np.random.default_rng(4)
        n = tiny_internet.num_nodes
        nodes = rng.choice(n, size=10, replace=False).tolist()
        values = [coverage_value(tiny_internet, nodes[:k]) for k in range(1, 11)]
        assert values == sorted(values)
