"""Differential suite: the vectorized kernels against their loop references.

Each kernel replaced a per-vertex Python loop that now lives in
:mod:`tests.oracles`; Hypothesis certifies, on random path-like graphs
of up to three components (long shortest paths, so Algorithm 2 has
interior vertices to repair):

* :func:`repro.graph.csr.bfs_parents` (SciPy's C search) returns the
  reference FIFO loop's parent array for every root, on each graph and
  on its dominated subgraph;
* :func:`repro.graph.csr.build_csr` stores strictly increasing
  neighbour lists whatever the input order, duplicates and self-loops —
  the invariant that makes the first claim hold;
* :func:`repro.core.approx_mcbg.approx_mcbg` (vectorized stitching)
  returns the reference Algorithm 2's brokers, repair set and root for
  both root strategies and both modes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx_mcbg import approx_mcbg
from repro.core.domination import dominated_adjacency
from repro.graph.asgraph import ASGraph
from repro.graph.csr import bfs_parents, build_csr
from tests.oracles import approx_mcbg as approx_oracle
from tests.oracles import bfs as bfs_oracle


@st.composite
def sparse_graphs(draw, max_nodes=40):
    """A connected, path-like random graph: long shortest paths.

    Vertex ``v`` joins one of the ``window`` vertices before it, so a
    small window stretches the graph into a long caterpillar; a few
    extra edges add cycles and ties between equal-length paths.
    """
    n = draw(st.integers(2, max_nodes))
    window = draw(st.integers(1, 4))
    edges = [(draw(st.integers(max(0, v - window), v - 1)), v) for v in range(1, n)]
    edges += draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n // 4,
        )
    )
    return n, edges


@st.composite
def split_graphs(draw, parts=3):
    """The disjoint union of 1..``parts`` sparse graphs: disconnected."""
    edges: set[tuple[int, int]] = set()
    offset = 0
    for _ in range(draw(st.integers(1, parts))):
        n, part = draw(sparse_graphs())
        edges |= {
            (min(u, v) + offset, max(u, v) + offset) for u, v in part if u != v
        }
        offset += n
    return ASGraph.from_edges(offset, sorted(edges))


@st.composite
def graph_and_brokers(draw):
    graph = draw(split_graphs())
    brokers = draw(
        st.lists(
            st.integers(0, graph.num_nodes - 1),
            min_size=1,
            max_size=max(1, graph.num_nodes // 3),
            unique=True,
        )
    )
    return graph, brokers


def _assert_parents_match(adj):
    for root in range(adj.num_vertices):
        np.testing.assert_array_equal(
            bfs_parents(adj, root), bfs_oracle.bfs_parents(adj, root)
        )


class TestBfsParents:
    @given(split_graphs())
    @settings(max_examples=60, deadline=None)
    def test_every_root_matches_reference(self, graph):
        _assert_parents_match(graph.adj)

    @given(graph_and_brokers())
    @settings(max_examples=60, deadline=None)
    def test_dominated_subgraph_matches_reference(self, case):
        graph, brokers = case
        _assert_parents_match(dominated_adjacency(graph, brokers))


class TestBuildCsrRows:
    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    max_size=120,
                ),
            )
        ),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_strictly_increasing(self, case, symmetric, rnd):
        n, edges = case
        # Duplicate a random share of the edges, then shuffle the input.
        edges = edges + [e for e in edges if rnd.random() < 0.5]
        rnd.shuffle(edges)
        src = np.array([u for u, _ in edges], dtype=np.int64)
        dst = np.array([v for _, v in edges], dtype=np.int64)
        adj = build_csr(n, src, dst, symmetric=symmetric)
        expected = {(u, v) for u, v in edges if u != v}
        if symmetric:
            expected |= {(v, u) for u, v in expected}
        stored = set()
        for v in range(n):
            row = adj.neighbors(v)
            assert np.all(np.diff(row) > 0), (v, row)
            stored |= {(v, int(w)) for w in row}
        assert stored == expected


class TestApproxMcbg:
    @given(
        split_graphs(),
        st.integers(1, 8),
        st.sampled_from(["best", "first"]),
        st.sampled_from(["paper", "strict"]),
        st.integers(1, 6),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, graph, budget, root_strategy, mode, beta):
        budget = min(budget, graph.num_nodes)
        got = approx_mcbg(
            graph, budget, beta=beta, root_strategy=root_strategy, mode=mode
        )
        want = approx_oracle.approx_mcbg(
            graph, budget, beta=beta, root_strategy=root_strategy, mode=mode
        )
        assert got.brokers == want.brokers
        assert got.repair == want.repair
        assert got.root == want.root
        assert got.pre_selected == want.pre_selected
