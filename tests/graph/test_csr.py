"""Unit tests for the CSR adjacency and BFS kernels."""

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import GraphValidationError
from repro.graph.bitset import bitset_hop_reach
from repro.graph.csr import (
    UNREACHABLE,
    bfs_levels,
    bfs_parents,
    build_csr,
    connected_components,
    largest_component_nodes,
)


def _path_csr(n):
    src = np.arange(n - 1)
    dst = np.arange(1, n)
    return build_csr(n, src, dst)


class TestBuildCSR:
    def test_symmetric_storage(self):
        adj = build_csr(3, np.array([0]), np.array([1]))
        assert sorted(adj.neighbors(0).tolist()) == [1]
        assert sorted(adj.neighbors(1).tolist()) == [0]
        assert adj.neighbors(2).tolist() == []

    def test_directed_storage(self):
        adj = build_csr(3, np.array([0]), np.array([1]), symmetric=False)
        assert adj.neighbors(0).tolist() == [1]
        assert adj.neighbors(1).tolist() == []

    def test_duplicate_edges_merged(self):
        adj = build_csr(2, np.array([0, 0, 1]), np.array([1, 1, 0]))
        assert adj.neighbors(0).tolist() == [1]
        assert adj.num_directed_edges == 2

    def test_self_loops_dropped(self):
        adj = build_csr(2, np.array([0, 0]), np.array([0, 1]))
        assert adj.neighbors(0).tolist() == [1]

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphValidationError):
            build_csr(2, np.array([0]), np.array([5]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(GraphValidationError):
            build_csr(3, np.array([0, 1]), np.array([1]))

    def test_degrees(self):
        adj = _path_csr(4)
        assert adj.degrees().tolist() == [1, 2, 2, 1]

    def test_empty_graph(self):
        adj = build_csr(5, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert adj.num_vertices == 5
        assert adj.num_directed_edges == 0

    def test_to_scipy_shape(self):
        adj = _path_csr(4)
        mat = adj.to_scipy()
        assert mat.shape == (4, 4)
        assert mat.nnz == 6


class TestBFSLevels:
    def test_path_distances(self):
        adj = _path_csr(5)
        dist = bfs_levels(adj, 0)
        assert dist.tolist() == [0, 1, 2, 3, 4]

    def test_unreachable(self):
        adj = build_csr(4, np.array([0]), np.array([1]))
        dist = bfs_levels(adj, 0)
        assert dist[2] == UNREACHABLE and dist[3] == UNREACHABLE

    def test_max_depth_cutoff(self):
        adj = _path_csr(5)
        dist = bfs_levels(adj, 0, max_depth=2)
        assert dist[2] == 2
        assert dist[3] == UNREACHABLE

    def test_max_depth_zero_stops_at_source(self):
        dist = bfs_levels(_path_csr(5), 2, max_depth=0)
        assert dist.tolist() == [UNREACHABLE, UNREACHABLE, 0, UNREACHABLE, UNREACHABLE]

    def test_source_out_of_range(self):
        adj = _path_csr(3)
        with pytest.raises(GraphValidationError):
            bfs_levels(adj, 7)

    def test_matches_networkx(self, rng):
        import networkx as nx

        g = nx.gnm_random_graph(30, 60, seed=4)
        edges = np.array(g.edges())
        adj = build_csr(30, edges[:, 0], edges[:, 1])
        dist = bfs_levels(adj, 0)
        nx_dist = nx.single_source_shortest_path_length(g, 0)
        for v in range(30):
            expected = nx_dist.get(v, UNREACHABLE)
            assert dist[v] == expected


class TestBFSParents:
    def test_parents_walk_back_to_source(self):
        adj = _path_csr(5)
        parent = bfs_parents(adj, 0)
        assert parent[0] == -1
        v = 4
        path = [v]
        while parent[v] != -1:
            v = parent[v]
            path.append(v)
        assert path == [4, 3, 2, 1, 0]

    def test_unreachable_parent_is_minus_one(self):
        adj = build_csr(3, np.array([0]), np.array([1]))
        parent = bfs_parents(adj, 0)
        assert parent[2] == -1

    def test_source_out_of_range(self):
        adj = _path_csr(3)
        for source in (3, -1):
            with pytest.raises(GraphValidationError):
                bfs_parents(adj, source)


class TestBatchedHopReach:
    def test_path_graph_counts(self):
        adj = _path_csr(5)
        counts = bitset_hop_reach(adj.to_scipy(), np.array([0]), 4)
        assert counts[0].tolist() == [1, 2, 3, 4]

    def test_matches_bfs_levels(self, rng):
        n = 40
        src = rng.integers(0, n, 120)
        dst = rng.integers(0, n, 120)
        keep = src != dst
        adj = build_csr(n, src[keep], dst[keep])
        sources = np.arange(n)
        counts = bitset_hop_reach(adj.to_scipy(), sources, 6)
        for s in sources:
            dist = bfs_levels(adj, int(s))
            for hop in range(1, 7):
                expected = int(np.count_nonzero((dist > 0) & (dist <= hop)))
                assert counts[s, hop - 1] == expected

    def test_saturation_fills_remaining_hops(self):
        adj = _path_csr(3)
        counts = bitset_hop_reach(adj.to_scipy(), np.array([0]), 8)
        assert counts[0].tolist() == [1, 2, 2, 2, 2, 2, 2, 2]

    def test_batching_equivalence(self, rng):
        n = 25
        src = rng.integers(0, n, 60)
        dst = rng.integers(0, n, 60)
        keep = src != dst
        adj = build_csr(n, src[keep], dst[keep]).to_scipy()
        sources = np.arange(n)
        a = bitset_hop_reach(adj, sources, 4, batch_size=3)
        b = bitset_hop_reach(adj, sources, 4, batch_size=64)
        assert np.array_equal(a, b)

    def test_repeated_sources_each_start(self):
        adj = _path_csr(3).to_scipy()
        counts = bitset_hop_reach(adj, np.array([0, 0, 2]), 3)
        assert counts.tolist() == [[1, 2, 2], [1, 2, 2], [1, 2, 2]]

    def test_directed_matrix(self):
        adj = build_csr(3, np.array([0, 1]), np.array([1, 2]), symmetric=False)
        counts = bitset_hop_reach(adj.to_scipy(), np.array([0, 2]), 3)
        assert counts[0].tolist() == [1, 2, 2]  # 0 -> 1 -> 2
        assert counts[1].tolist() == [0, 0, 0]  # 2 has no out-edges

    def test_invalid_max_hops(self):
        adj = _path_csr(3)
        with pytest.raises(ValueError):
            bitset_hop_reach(adj.to_scipy(), np.array([0]), 0)

    @staticmethod
    def _product(n, states, hops):
        """``(states * n)``-square matrix from ``((u, s), (v, t))`` hops."""
        rows = [s * n + u for (u, s), _ in hops]
        cols = [t * n + v for _, (v, t) in hops]
        return sparse.csr_matrix(
            (np.ones(len(hops), dtype=np.int8), (rows, cols)),
            shape=(states * n, states * n),
        )

    def test_states_count_a_vertex_once(self):
        # 0 reaches 1 in both states at hop 1, then 2 in state 1 only.
        mat = self._product(
            3, 2, [((0, 0), (1, 0)), ((0, 0), (1, 1)), ((1, 0), (2, 1))]
        )
        counts = bitset_hop_reach(mat, np.array([0]), 3, states=2)
        assert counts[0].tolist() == [1, 2, 2]
        totals = bitset_hop_reach(mat, np.array([0]), 3, states=2, aggregate=True)
        assert totals.tolist() == [1, 2, 2]

    def test_states_never_count_the_source(self):
        # The source's vertex comes back in another state, and a source
        # may start in any state (product id 1 * n + 1 is vertex 1 in
        # state 1).
        mat = self._product(
            3, 2, [((0, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (2, 1)),
                   ((2, 1), (1, 0))]
        )
        counts = bitset_hop_reach(mat, np.array([0, 3 + 1]), 4, states=2)
        assert counts[0].tolist() == [0, 1, 2, 2]
        assert counts[1].tolist() == [1, 1, 1, 1]
        totals = bitset_hop_reach(
            mat, np.array([0, 3 + 1]), 4, states=2, aggregate=True
        )
        assert totals.tolist() == counts.sum(axis=0).tolist()

    def test_states_match_per_source_bfs(self, rng):
        """Many words per batch and many batches: each base vertex counts
        at the first hop any of its states is reached."""
        n, states = 60, 3
        src = rng.integers(0, states * n, 700)
        dst = rng.integers(0, states * n, 700)
        keep = src != dst
        adj = build_csr(states * n, src[keep], dst[keep], symmetric=False)
        sources = rng.choice(states * n, size=130, replace=False)
        expected = np.zeros((len(sources), 5), dtype=np.int64)
        for i, s in enumerate(sources):
            dist = bfs_levels(adj, int(s)).reshape(states, n).astype(float)
            dist[dist == UNREACHABLE] = np.inf
            first = dist.min(axis=0)
            first[s % n] = np.inf  # the source's own vertex never counts
            for hop in range(1, 6):
                expected[i, hop - 1] = np.count_nonzero(first <= hop)
        for batch_size in (1, 64, 512):
            counts = bitset_hop_reach(
                adj.to_scipy(), sources, 5, batch_size=batch_size, states=states
            )
            assert np.array_equal(counts, expected)
        totals = bitset_hop_reach(
            adj.to_scipy(), sources, 5, aggregate=True, states=states
        )
        assert np.array_equal(totals, expected.sum(axis=0))

    def test_states_must_divide_the_shape(self):
        adj = _path_csr(5).to_scipy()
        for states in (2, 0):
            with pytest.raises(ValueError):
                bitset_hop_reach(adj, np.array([0]), 2, states=states)


class TestComponents:
    def test_two_components(self):
        adj = build_csr(5, np.array([0, 2]), np.array([1, 3]))
        count, labels = connected_components(adj.to_scipy())
        assert count == 3
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[4] not in (labels[0], labels[2])

    def test_largest_component(self):
        adj = build_csr(6, np.array([0, 1, 4]), np.array([1, 2, 5]))
        nodes = largest_component_nodes(adj.to_scipy())
        assert sorted(nodes.tolist()) == [0, 1, 2]
