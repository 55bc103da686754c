"""Differential oracle: the bitset backend vs the python reference.

The bitset backend exists purely for speed; its contract is *bit-exact*
equality with the python kernels on every input.  Hypothesis generates
random graphs (≤ 200 nodes, well past the multi-word boundary at 64) and
certifies, on every one of them:

* every registered algorithm returns the identical broker list under
  ``backend="python"`` and ``backend="bitset"`` (algorithms without a
  bitset runner exercise the fallback path, which must also be a no-op);
* the two :class:`DominationEngine` backends agree on every marginal
  gain, the covered mask and coverage counts through add/remove cycles —
  with ``engine.verify()`` as the from-scratch oracle;
* connectivity curves (exact and source-sampled), which always run on
  the bit-parallel kernel, are float-identical to the dense-product
  reference in :mod:`tests.oracles.connectivity`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import (
    bitset_greedy_max_coverage,
    bitset_lazy_greedy_max_coverage,
)
from repro.core.connectivity import connectivity_curve
from repro.core.engine import DominationEngine
from repro.core.greedy import greedy_max_coverage, lazy_greedy_max_coverage
from repro.core.maxsg import maxsg
from repro.core.registry import all_specs, run_algorithm
from tests.core.test_differential import random_graphs
from tests.oracles.connectivity import curve_fractions, saturated_fraction

BACKENDS = ("python", "bitset")


def _knobs(spec):
    """Deterministic knob values for whichever params ``spec`` declares."""
    values = {"seed": 7, "beta": 4, "degree_threshold": 0}
    return {p.name: values[p.name] for p in spec.params if p.name in values}


class TestRegistryAlgorithmsAcrossBackends:
    @given(random_graphs(max_nodes=200, max_edges=400), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_every_algorithm_bit_identical(self, graph, budget):
        budget = min(budget, graph.num_nodes)
        for spec in all_specs():
            knobs = _knobs(spec)
            results = [
                run_algorithm(
                    spec.name,
                    graph,
                    budget=budget if spec.budgeted else None,
                    backend=backend,
                    **knobs,
                )[0]
                for backend in BACKENDS
            ]
            assert results[0] == results[1], spec.name

    @given(random_graphs(max_nodes=200, max_edges=400), st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_greedy_twins_match_reference(self, graph, budget):
        """Both bitset greedy kernels reproduce their python twin exactly."""
        budget = min(budget, graph.num_nodes)
        assert bitset_greedy_max_coverage(graph, budget) == greedy_max_coverage(
            graph, budget
        )
        assert bitset_lazy_greedy_max_coverage(
            graph, budget
        ) == lazy_greedy_max_coverage(graph, budget)

    @given(random_graphs(max_nodes=120, max_edges=300), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_maxsg_matches_reference(self, graph, budget):
        budget = min(budget, graph.num_nodes)
        assert maxsg(graph, budget, backend="bitset") == maxsg(graph, budget)


class TestEngineAcrossBackends:
    @given(
        random_graphs(max_nodes=200, max_edges=400),
        st.lists(st.integers(0, 10_000), min_size=1, max_size=12),
    )
    @settings(max_examples=30, deadline=None)
    def test_gains_and_masks_track_through_mutations(self, graph, probes):
        n = graph.num_nodes
        engines = [DominationEngine(graph, backend=b) for b in BACKENDS]
        for raw in probes:
            v = raw % n
            gains = [e.marginal_gain(v) for e in engines]
            assert gains[0] == gains[1], v
            newly = [e.add_broker(v) for e in engines]
            assert np.array_equal(newly[0], newly[1])
        # Remove a middle broker: the bitset mirror must invalidate and
        # rebuild, then agree on every probe again.
        brokers = engines[0].brokers()
        victim = brokers[len(brokers) // 2]
        for e in engines:
            e.remove_broker(victim)
        for v in range(n):
            assert engines[0].marginal_gain(v) == engines[1].marginal_gain(v)
        assert np.array_equal(engines[0].covered_view, engines[1].covered_view)
        assert engines[0].coverage() == engines[1].coverage()
        for e in engines:
            assert e.verify()


class TestConnectivityAcrossBackends:
    @given(random_graphs(max_nodes=200, max_edges=400), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_exact_curves_identical(self, graph, max_hops):
        brokers = maxsg(graph, min(4, graph.num_nodes))
        for broker_set in (None, brokers):
            curve = connectivity_curve(graph, broker_set, max_hops=max_hops)
            assert np.array_equal(
                curve.fractions,
                curve_fractions(graph, broker_set, max_hops=max_hops),
            )
            assert curve.saturated == saturated_fraction(graph, broker_set)

    @given(
        random_graphs(min_nodes=10, max_nodes=200, max_edges=400),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_sampled_curves_identical(self, graph, seed):
        """Source sampling draws from the same rng either way, so sampled
        curves must match float-for-float too."""
        num_sources = max(2, graph.num_nodes // 3)
        curve = connectivity_curve(
            graph, None, max_hops=4, num_sources=num_sources, seed=seed,
        )
        assert np.array_equal(
            curve.fractions,
            curve_fractions(
                graph, None, max_hops=4, num_sources=num_sources, seed=seed
            ),
        )
        assert curve.num_sources == num_sources
