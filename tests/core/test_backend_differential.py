"""Differential oracles for the bit-parallel kernels and the engine.

Hypothesis generates random graphs (≤ 200 nodes, well past the
multi-word boundary at 64) and certifies, on every one of them:

* :class:`DominationEngine`'s marginal-gain probe predicts exactly what
  ``add_broker`` covers, and after a broker leaves, every gain equals
  that of a fresh engine built on the remaining roster — with
  ``engine.verify()`` as the from-scratch oracle throughout;
* connectivity curves (exact and source-sampled), which always run on
  the bit-parallel kernel, are float-identical to the dense-product
  reference in :mod:`tests.oracles.connectivity`.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.connectivity import connectivity_curve
from repro.core.engine import DominationEngine
from repro.core.maxsg import maxsg
from tests.core.test_differential import random_graphs
from tests.oracles.connectivity import curve_fractions, saturated_fraction


class TestEngineGainProbe:
    @given(
        random_graphs(max_nodes=200, max_edges=400),
        st.lists(st.integers(0, 10_000), min_size=1, max_size=12),
    )
    @settings(max_examples=30, deadline=None)
    def test_gains_track_through_mutations(self, graph, probes):
        n = graph.num_nodes
        engine = DominationEngine(graph)
        for raw in probes:
            v = raw % n
            gain = engine.marginal_gain(v)
            assert gain == len(engine.add_broker(v)), v
            assert engine.verify()
        brokers = engine.brokers()
        victim = brokers[len(brokers) // 2]
        engine.remove_broker(victim)
        assert engine.verify()
        fresh = DominationEngine(
            graph, [b for b in brokers if b != victim]
        )
        assert [engine.marginal_gain(v) for v in range(n)] == [
            fresh.marginal_gain(v) for v in range(n)
        ]
        assert np.array_equal(engine.covered_view, fresh.covered_view)
        assert engine.coverage() == fresh.coverage()


class TestConnectivityAcrossBackends:
    """The bit-parallel kernel against the python dense-product reference."""

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
