"""Differential suite pinning ``MultiGraph.simplify()`` to the simple path.

The tentpole contract of the multigraph refactor: every pre-existing
algorithm, run over ``simplify()``'s projection, is **bit-identical** to
running it directly on the equivalent simple :class:`ASGraph` built the
historical way (``ASGraph.from_edges``).  Hypothesis generates random
attributed multigraphs (random simple base + random parallel instances,
≤ 200 nodes) and certifies:

* domination (covered mask, dominated adjacency) agrees exactly;
* connectivity curves are float-identical, and equal to the dense-product
  reference curve;
* greedy selection returns the identical broker sequence;
* a :class:`DominationEngine` over either graph stays in lockstep
  through randomized mutation interleavings (add/remove broker, fail/
  restore node, cut/restore link), with ``verify()`` as the oracle; an
  illegal mutation must raise the same error on both sides.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.connectivity import connectivity_curve
from repro.core.domination import broker_mask, dominated_adjacency
from repro.core.engine import DominationEngine
from repro.core.greedy import greedy_max_coverage
from repro.exceptions import ReproError
from repro.graph.asgraph import ASGraph, EdgeAttributes
from repro.graph.multigraph import MultiGraph
from repro.types import LinkKind
from tests.oracles.connectivity import curve_fractions


@st.composite
def random_multigraphs(draw, min_nodes=3, max_nodes=200, max_edges=300):
    """A random attributed multigraph plus its directly-built simple twin.

    Returns ``(multigraph, simple)`` where ``simple`` is the
    ``ASGraph.from_edges`` result over the unique base edges — the exact
    object pre-refactor code would have constructed.
    """
    n = draw(st.integers(min_nodes, max_nodes))
    m_base = draw(st.integers(1, min(max_edges, n * (n - 1) // 2)))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    # Sample unique undirected base edges without materializing O(n^2).
    lo = rng.integers(0, n - 1, size=m_base * 3)
    hi = lo + 1 + rng.integers(0, n - 1, size=m_base * 3) % (n - 1 - lo)
    key, first = np.unique(lo * np.int64(n) + hi, return_index=True)
    keep = np.sort(first)[:m_base]
    src, dst = lo[keep], hi[keep]
    m = len(src)
    # Parallel instances: each base edge duplicated 0..3 extra times.
    extra = rng.integers(0, 4, size=m)
    dup = np.repeat(np.arange(m), extra)
    return _twins(n, src, dst, dup, rng)


def _twins(n, src, dst, dup, rng):
    """A multigraph with base edges ``src``-``dst`` plus the instances
    ``dup`` repeats, and its directly-built simple twin."""
    inst_src = np.concatenate([src, src[dup]])
    inst_dst = np.concatenate([dst, dst[dup]])
    total = len(inst_src)
    attrs = EdgeAttributes(
        capacity_gbps=1.0 + 99.0 * rng.random(total),
        latency_ms=0.5 + 30.0 * rng.random(total),
        link_kind=np.full(total, int(LinkKind.PRIVATE_PEERING), dtype=np.uint8),
    )
    mg = MultiGraph.from_arrays(n, inst_src, inst_dst, attrs=attrs)
    simple = ASGraph.from_edges(
        n,
        np.stack([src, dst], axis=1),
        kinds=mg.kinds,
        tiers=mg.tiers,
        categories=mg.categories,
    )
    return mg, simple


@st.composite
def multigraph_and_brokers(draw):
    mg, simple = draw(random_multigraphs())
    brokers = draw(
        st.lists(
            st.integers(0, mg.num_nodes - 1),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    return mg, simple, brokers


class TestProjectionIsTheSimpleGraph:
    @given(random_multigraphs())
    @settings(max_examples=40, deadline=None)
    def test_bare_projection_digest_identical(self, case):
        """simplify(annotate=False) IS the pre-refactor graph, byte-for-byte."""
        mg, simple = case
        assert mg.simplify(annotate=False).graph.digest() == simple.digest()

    @given(random_multigraphs())
    @settings(max_examples=40, deadline=None)
    def test_annotated_projection_same_topology(self, case):
        mg, simple = case
        view = mg.simplify()
        np.testing.assert_array_equal(view.graph.edge_src, simple.edge_src)
        np.testing.assert_array_equal(view.graph.edge_dst, simple.edge_dst)
        # Bundle invariants: capacity sums, latency minima.
        cap = np.zeros(simple.num_edges)
        np.add.at(cap, view.edge_of_instance, mg.attrs.capacity_gbps)
        np.testing.assert_allclose(view.graph.edge_attrs.capacity_gbps, cap)
        assert (
            view.graph.edge_attrs.latency_ms
            <= mg.attrs.latency_ms[view.representative]
        ).all()


class TestAlgorithmsBitIdentical:
    @given(multigraph_and_brokers())
    @settings(max_examples=30, deadline=None)
    def test_domination_agrees(self, case):
        mg, simple, brokers = case
        projected = mg.simplify().graph
        np.testing.assert_array_equal(
            broker_mask(projected, brokers), broker_mask(simple, brokers)
        )
        a = dominated_adjacency(projected, brokers)
        b = dominated_adjacency(simple, brokers)
        np.testing.assert_array_equal(a.indptr, b.indptr)
        np.testing.assert_array_equal(a.indices, b.indices)

    @given(multigraph_and_brokers())
    @settings(max_examples=20, deadline=None)
    def test_connectivity_curve_identical_both_backends(self, case):
        """The curve must agree on both graphs and with the
        dense-product reference."""
        mg, simple, brokers = case
        projected = mg.simplify().graph
        a = connectivity_curve(projected, brokers, max_hops=4)
        b = connectivity_curve(simple, brokers, max_hops=4)
        np.testing.assert_array_equal(a.fractions, b.fractions)
        np.testing.assert_array_equal(
            a.fractions, curve_fractions(simple, brokers, max_hops=4)
        )
        assert a.saturated == b.saturated

    @given(random_multigraphs(), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_greedy_selection_identical(self, case, budget):
        mg, simple = case
        budget = min(budget, mg.num_nodes)
        assert greedy_max_coverage(
            mg.simplify().graph, budget
        ) == greedy_max_coverage(simple, budget)


def _apply(engine, op, *args):
    """``engine.op(*args)``, or the error it raised, for comparison."""
    try:
        return getattr(engine, op)(*args)
    except ReproError as exc:
        return exc


def _same_outcome(a, b) -> bool:
    if isinstance(a, ReproError) or isinstance(b, ReproError):
        return type(a) is type(b) and str(a) == str(b)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _run_lockstep(mg, simple, brokers, op_seeds) -> int:
    """Drive both engines through one mutation script; return the
    number of ops both rejected."""
    left = DominationEngine.from_multigraph(mg, dict.fromkeys(brokers))
    right = DominationEngine(simple, dict.fromkeys(brokers))
    edges = list(zip(simple.edge_src.tolist(), simple.edge_dst.tolist()))
    rejected = 0
    for s in op_seeds:
        rng = np.random.default_rng(s)
        op = rng.integers(6)
        v = int(rng.integers(simple.num_nodes))
        u, w = edges[int(rng.integers(len(edges)))]
        name, args = [
            ("add_broker", (v,)), ("remove_broker", (v,)),
            ("fail_node", (v,)), ("restore_node", (v,)),
            ("cut_link", (u, w)), ("restore_link", (u, w)),
        ][op]
        got, want = _apply(left, name, *args), _apply(right, name, *args)
        assert _same_outcome(got, want), (name, args, got, want)
        rejected += isinstance(got, ReproError)
        np.testing.assert_array_equal(left.hits_view, right.hits_view)
        np.testing.assert_array_equal(left.covered_view, right.covered_view)
        assert left.coverage() == right.coverage()
        assert (
            left.saturated_connectivity() == right.saturated_connectivity()
        )
    assert left.verify() and right.verify()
    return rejected


class TestEngineLockstep:
    @given(
        multigraph_and_brokers(),
        st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=12),
    )
    @settings(max_examples=20, deadline=None)
    def test_mutation_interleavings(self, case, op_seeds):
        """Random mutation scripts keep both engines in lockstep."""
        mg, simple, brokers = case
        _run_lockstep(mg, simple, brokers, op_seeds)

    def test_illegal_op_raises_identically_and_lockstep_continues(self):
        """A 3-node graph with one link 1-2 and broker 0.  Op seeds 1,
        186, 16, 186 draw ``fail_node(1)``, ``add_broker(1)`` (rejected:
        the vertex is dead), ``restore_node(1)``, ``add_broker(1)``."""
        mg, simple = _twins(3, np.array([1]), np.array([2]),
                            np.array([], dtype=np.int64),
                            np.random.default_rng(0))
        assert _run_lockstep(mg, simple, [0], [1, 186, 16, 186]) == 1
