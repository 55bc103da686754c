"""Unit tests for B-dominating paths and the dominated graph operator."""

import numpy as np
import pytest

from repro.core.domination import (
    broker_mask,
    brokers_mutually_connected,
    dominated_adjacency,
    dominated_components,
    is_dominating_path,
)
from repro.exceptions import AlgorithmError
from repro.graph.csr import UNREACHABLE, bfs_levels


def _dominated_distance(graph, brokers, u, v) -> int:
    """Hop length of the shortest B-dominated ``u``–``v`` path (-1 if none)."""
    return int(bfs_levels(dominated_adjacency(graph, brokers), u)[v])


class TestIsDominatingPath:
    def test_every_hop_needs_broker(self, path10):
        # path 0-1-2-3 with broker {1}: hop (2,3) has no broker.
        assert is_dominating_path(path10, [0, 1, 2], brokers=[1])
        assert not is_dominating_path(path10, [0, 1, 2, 3], brokers=[1])

    def test_alternating_brokers(self, path10):
        assert is_dominating_path(path10, list(range(6)), brokers=[1, 3, 5])

    def test_single_vertex_trivially_dominated(self, path10):
        assert is_dominating_path(path10, [4], brokers=[])

    def test_empty_path_rejected(self, path10):
        with pytest.raises(AlgorithmError):
            is_dominating_path(path10, [], brokers=[0])

    def test_mask_form(self, path10):
        mask = np.zeros(10, dtype=bool)
        mask[1] = True
        assert is_dominating_path(mask, [0, 1, 2])

    def test_graph_without_brokers_rejected(self, path10):
        with pytest.raises(AlgorithmError):
            is_dominating_path(path10, [0, 1])

    def test_non_edge_hop_rejected(self, path10):
        # Broker 0 dominates the hop (0, 9), but it is not an edge.
        with pytest.raises(AlgorithmError, match="not an edge"):
            is_dominating_path(path10, [0, 9], brokers=[0])

    def test_out_of_range_vertex_rejected(self, path10):
        with pytest.raises(AlgorithmError, match="out of range"):
            is_dominating_path(path10, [0, 1, 12], brokers=[1])

    def test_mask_form_negative_vertex_rejected(self):
        mask = np.ones(10, dtype=bool)
        with pytest.raises(AlgorithmError, match="out of range"):
            is_dominating_path(mask, [-1, 0])


class TestDominatedMatrix:
    def test_erases_non_incident_edges(self, path10):
        mat = dominated_adjacency(path10, [0]).to_scipy()
        assert mat.nnz == 2  # only edge (0,1), both directions

    def test_full_broker_set_keeps_all(self, path10):
        mat = dominated_adjacency(path10, list(range(10))).to_scipy()
        assert mat.nnz == 18

    def test_boolean_mask_input(self, path10):
        mask = broker_mask(path10, [0, 5])
        mat = dominated_adjacency(path10, mask).to_scipy()
        assert mat.nnz == 2 + 4

    def test_adjacency_equivalent(self, tiny_internet):
        brokers = [0, 1, 2, 50]
        adj = dominated_adjacency(tiny_internet, brokers)
        mat = adj.to_scipy()
        assert mat.nnz == adj.num_directed_edges
        # SciPy sees exactly the adjacency's rows.
        assert np.array_equal(mat.indptr, adj.indptr)
        assert np.array_equal(mat.indices, adj.indices)


class TestHasDominatingPath:
    def test_direct_neighbors_of_broker(self, star10):
        assert _dominated_distance(star10, [0], 3, 7) == 2

    def test_no_path_without_brokers_nearby(self, path10):
        assert _dominated_distance(path10, [0], 5, 9) == UNREACHABLE

    def test_same_node(self, path10):
        assert _dominated_distance(path10, [], 3, 3) == 0

    def test_length_measurement(self, path10):
        brokers = [1, 3, 5, 7, 9]
        assert _dominated_distance(path10, brokers, 0, 9) == 9
        assert _dominated_distance(path10, [5], 0, 9) == -1

    def test_length_zero(self, path10):
        assert _dominated_distance(path10, [], 2, 2) == 0

    def test_brute_force_equivalence(self, tiny_internet):
        """BFS on the dominated graph == explicit path-checking semantics."""
        rng = np.random.default_rng(1)
        brokers = rng.choice(tiny_internet.num_nodes, size=15, replace=False).tolist()
        adj = dominated_adjacency(tiny_internet, brokers)
        mask = broker_mask(tiny_internet, brokers)
        # every edge of the dominated adjacency touches a broker
        for u in rng.choice(tiny_internet.num_nodes, size=40, replace=False):
            for v in adj.neighbors(int(u)):
                assert mask[u] or mask[v]


class TestDominatedComponents:
    def test_path_with_scattered_brokers(self, path10):
        # brokers 0 and 9 dominate (0,1) and (8,9) only.
        labels = dominated_components(path10, [0, 9])
        assert labels[0] == labels[1]
        assert labels[8] == labels[9]
        assert labels[0] != labels[9]
        assert len(np.unique(labels)) == 8

    def test_mask_input_matches_ids(self, tiny_internet):
        brokers = [0, 1, 2, 50]
        mask = broker_mask(tiny_internet, brokers)
        assert np.array_equal(
            dominated_components(tiny_internet, brokers),
            dominated_components(tiny_internet, mask),
        )


class TestMutualConnectivity:
    def test_connected_brokers(self, path10):
        assert brokers_mutually_connected(path10, [4, 5])

    def test_disconnected_brokers(self, path10):
        # brokers 0 and 9: dominated graph has edges (0,1) and (8,9) only.
        assert not brokers_mutually_connected(path10, [0, 9])

    def test_single_broker(self, path10):
        assert brokers_mutually_connected(path10, [3])

    def test_brokers_connected_via_non_broker(self, path10):
        # brokers 0 and 2 share neighbour 1: edges (0,1),(1,2) dominated.
        assert brokers_mutually_connected(path10, [0, 2])



class TestVerifyMCBG:
    """MCBG solutions checked exactly: the budget plus dominated paths."""

    def test_maxsg_output_verifies(self, tiny_internet):
        from repro.core.maxsg import maxsg
        from repro.core.problems import MCBGInstance

        brokers = maxsg(tiny_internet, 20)
        assert 0 < len(brokers) <= 20
        assert brokers_mutually_connected(tiny_internet, brokers)
        assert MCBGInstance(tiny_internet, 20).is_feasible_solution(brokers)

    def test_scattered_brokers_fail(self, path10):
        from repro.core.problems import MCBGInstance

        # Brokers 0 and 9 cover 1 and 8, but no dominated path joins them.
        assert _dominated_distance(path10, [0, 9], 1, 8) == UNREACHABLE
        assert not MCBGInstance(path10, 5).is_feasible_solution([0, 9])
