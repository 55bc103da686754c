"""Property-based tests for the mutable domination engine.

The central invariant: after *any* random interleaving of broker and
topology mutations, the engine's incrementally maintained state is
bit-identical to a from-scratch recomputation (``verify()`` raises on
any drift, including the connectivity pair-sum).  The differential
properties pin the refactored sweep and churn paths to their
from-scratch reference implementations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import DominationEngine
from repro.core.maxsg import maxsg
from repro.core.robustness import failure_sweep
from repro.graph.asgraph import ASGraph
from repro.simulation.churn import IncrementalBrokerSet, generate_churn_trace
from tests.oracles.churn import IncrementalBrokerSetReference
from tests.oracles.robustness import failure_sweep_reference

OPS = (
    "add_broker",
    "remove_broker",
    "fail_node",
    "restore_node",
    "cut_link",
    "restore_link",
    "add_link",
    "add_node",
)


@st.composite
def random_graphs(draw, min_nodes=3, max_nodes=20):
    n = draw(st.integers(min_nodes, max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(
            st.sampled_from(possible),
            min_size=1,
            max_size=min(50, len(possible)),
            unique=True,
        )
    )
    return ASGraph.from_edges(n, edges)


@st.composite
def engine_scenarios(draw):
    g = draw(random_graphs())
    brokers = draw(
        st.lists(st.integers(0, g.num_nodes - 1), max_size=5, unique=True)
    )
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
            ),
            max_size=40,
        )
    )
    return g, brokers, ops


def apply_ops(engine: DominationEngine, ops) -> None:
    """Drive the engine with an arbitrary op stream.

    Targets are reduced modulo the *current* universe, so streams stay
    valid as ``add_node`` grows it.  Invalid transitions (adding a dead
    broker) are skipped; benign no-ops (cutting a missing edge) are left
    to the engine's own False returns.
    """
    for kind, a, b in ops:
        n = engine.num_nodes
        u, v = a % n, b % n
        if kind == "add_broker":
            if engine.is_alive(u):
                engine.add_broker(u)
        elif kind == "remove_broker":
            engine.remove_broker(u)
        elif kind == "fail_node":
            engine.fail_node(u)
        elif kind == "restore_node":
            engine.restore_node(u)
        elif kind == "cut_link":
            engine.cut_link(u, v)
        elif kind == "restore_link":
            engine.restore_link(u, v)
        elif kind == "add_link":
            engine.add_link(u, v)
        else:  # add_node, linked to up to two existing vertices
            engine.add_node((u, v))


class TestEngineInterleavings:
    @given(engine_scenarios())
    @settings(max_examples=80, deadline=None)
    def test_any_interleaving_matches_recomputation(self, scenario):
        """verify() recomputes every mask and counter from scratch and
        raises on the slightest drift — including the connectivity
        pair-sum maintained by the union-find."""
        g, brokers, ops = scenario
        engine = DominationEngine(g, brokers)
        apply_ops(engine, ops)
        engine.saturated_connectivity()  # force the lazy union-find
        engine.verify()

    @given(engine_scenarios())
    @settings(max_examples=50, deadline=None)
    def test_rollback_is_exact_inverse(self, scenario):
        g, brokers, ops = scenario
        engine = DominationEngine(g, brokers)
        covered = engine.covered_view.copy()
        hits = engine.hits_view.copy()
        alive = engine.alive_view.copy()
        roster = engine.brokers()
        conn = engine.saturated_connectivity()
        token = engine.checkpoint()
        apply_ops(engine, ops)
        engine.rollback(token)
        np.testing.assert_array_equal(engine.covered_view[: len(covered)], covered)
        np.testing.assert_array_equal(engine.hits_view[: len(hits)], hits)
        np.testing.assert_array_equal(engine.alive_view[: len(alive)], alive)
        assert engine.brokers() == roster
        assert engine.saturated_connectivity() == conn
        engine.verify()

    @given(engine_scenarios())
    @settings(max_examples=50, deadline=None)
    def test_coverage_counter_matches_mask(self, scenario):
        g, brokers, ops = scenario
        engine = DominationEngine(g, brokers)
        apply_ops(engine, ops)
        assert engine.coverage() == int(np.count_nonzero(engine.covered_view))
        assert engine.num_alive == int(np.count_nonzero(engine.alive_view))


class TestSweepDifferential:
    @given(
        random_graphs(min_nodes=4, max_nodes=18),
        st.sampled_from(["random", "degree", "targeted"]),
        st.integers(0, 99),
        st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_failure_sweep_matches_reference(self, g, strategy, seed, step):
        brokers = maxsg(g, min(4, g.num_nodes))
        fast = failure_sweep(
            g, brokers, strategy=strategy, seed=seed, step=step
        )
        slow = failure_sweep_reference(
            g, brokers, strategy=strategy, seed=seed, step=step
        )
        np.testing.assert_array_equal(fast.removed, slow.removed)
        np.testing.assert_array_equal(fast.connectivity, slow.connectivity)
        assert fast.strategy == slow.strategy


class TestChurnDifferential:
    @given(st.integers(0, 9), st.integers(10, 60))
    @settings(max_examples=15, deadline=None)
    def test_engine_maintainer_matches_reference(self, seed, num_events):
        g = ASGraph.from_edges(
            8,
            [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 6)],
        )
        trace = generate_churn_trace(g, num_events=num_events, seed=seed)
        fast = IncrementalBrokerSet(g, [0, 4], coverage_target=0.6, max_brokers=8)
        slow = IncrementalBrokerSetReference(
            g, [0, 4], coverage_target=0.6, max_brokers=8
        )
        for event in trace.events:
            fast.apply(event)
            slow.apply(event)
            assert fast.coverage_fraction() == slow.coverage_fraction()
            assert fast.brokers == slow.brokers
        assert fast.covered_set() == slow.covered_set()
        assert fast.stats == slow.stats
        assert fast.snapshot_brokers() == slow.snapshot_brokers()
        fast.engine.verify()
