"""Unit tests for the Problem 1-4 formulations and feasibility checkers."""

import pytest

from repro.core.connectivity import saturated_connectivity
from repro.core.problems import (
    MCBGInstance,
    MCBInstance,
    PathLengthConstrainedInstance,
    PDSInstance,
    solve_pds_greedy,
)
from repro.exceptions import AlgorithmError
from repro.graph.generators import path_graph, star_graph


class TestPDS:
    def test_star_hub_is_pds(self, star10):
        assert PDSInstance(star10, 1).is_feasible_solution([0])

    def test_star_leaf_is_not(self, star10):
        assert not PDSInstance(star10, 1).is_feasible_solution([4])

    def test_path_needs_alternating_brokers(self):
        g = path_graph(6)  # 0-1-2-3-4-5
        # k=2 is infeasible: no 2 vertices cover all 5 edges of the path.
        assert not PDSInstance(g, 2).is_feasible_solution([1, 3])
        assert not PDSInstance(g, 2).is_feasible_solution([1, 4])
        # {1, 3, 5} covers every edge and the dominated graph is connected.
        assert PDSInstance(g, 3).is_feasible_solution([1, 3, 5])

    def test_size_constraint(self, star10):
        assert not PDSInstance(star10, 1).is_feasible_solution([0, 1])

    def test_disconnected_graph_infeasible(self, disconnected_pair):
        # Cross-component pairs can never have any path.
        assert not PDSInstance(disconnected_pair, 2).is_feasible_solution([0, 2])

    def test_k_validation(self, star10):
        with pytest.raises(AlgorithmError):
            PDSInstance(star10, 0)
        with pytest.raises(AlgorithmError):
            PDSInstance(star10, 99)

    def test_solve_pds_greedy_star(self, star10):
        assert solve_pds_greedy(star10, 1) == [0]

    def test_solve_pds_greedy_infeasible(self, path10):
        assert solve_pds_greedy(path10, 1) is None


class TestMCB:
    def test_objective(self, star10):
        inst = MCBInstance(star10, 2)
        assert inst.objective([0]) == 10
        assert inst.objective([1]) == 2

    def test_feasibility(self, star10):
        inst = MCBInstance(star10, 2)
        assert inst.is_feasible_solution([1, 2])
        assert inst.is_feasible_solution([1, 1])  # dedup -> size 1
        assert not inst.is_feasible_solution([1, 2, 3])
        assert not inst.is_feasible_solution([])


class TestMCBG:
    def test_theorem1_pds_solution_is_mcbg_solution(self, star10):
        """Theorem 1: a PDS certificate is MCBG-feasible with max coverage."""
        inst = MCBGInstance(star10, 1)
        assert inst.is_feasible_solution([0])
        assert inst.objective([0]) == star10.num_nodes

    def test_scattered_brokers_infeasible(self, path10):
        inst = MCBGInstance(path10, 2)
        assert not inst.is_feasible_solution([0, 9])

    def test_adjacent_brokers_feasible(self, path10):
        inst = MCBGInstance(path10, 2)
        assert inst.is_feasible_solution([4, 5])

    def test_per_component_guarantee(self, disconnected_pair):
        # one broker per component: each covered pair has a dominating
        # path inside its own component.
        inst = MCBGInstance(disconnected_pair, 2)
        assert inst.is_feasible_solution([0, 2])

    def test_single_covered_vertex_ok(self):
        g = path_graph(3)
        inst = MCBGInstance(g, 1)
        assert inst.is_feasible_solution([1])

    def test_size_violation_detected(self, path10):
        # Connected brokers, but one more than the budget allows.
        assert not MCBGInstance(path10, 2).is_feasible_solution([0, 1, 2])


class TestGuaranteeFraction:
    """Theorem 1's guaranteed pair fraction is saturated connectivity."""

    def test_full_for_hub(self, star10):
        assert saturated_connectivity(star10, [0]) == 1.0

    def test_zero_for_empty(self, star10):
        assert saturated_connectivity(star10, []) == 0.0

    def test_matches_saturated_connectivity(self, tiny_internet):
        from repro.core.engine import DominationEngine
        from repro.core.maxsg import maxsg

        brokers = maxsg(tiny_internet, 15)
        assert saturated_connectivity(tiny_internet, brokers) == (
            DominationEngine(tiny_internet, brokers).saturated_connectivity()
        )


class TestProblem4Instance:
    def test_epsilon_validation(self, star10):
        with pytest.raises(AlgorithmError):
            PathLengthConstrainedInstance(star10, 1, epsilon=1.5)

    def test_valid_construction(self, star10):
        inst = PathLengthConstrainedInstance(star10, 2, epsilon=0.1)
        assert inst.epsilon == 0.1
