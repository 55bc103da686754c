"""End-to-end integration tests across the whole stack.

Each test walks a realistic user journey: generate a topology, select a
broker set, verify the MCBG guarantee, evaluate connectivity under
policies, route traffic, and settle the economics.
"""

import numpy as np
import pytest

from repro.core import (
    BrokerSelector,
    MCBGInstance,
    connectivity_curve,
    maxsg,
)
from repro.datasets import load_internet, summarize
from repro.economics import (
    CoverageProfitGame,
    StackelbergGame,
    exact_shapley,
    nash_bargaining,
    tiered_customer_population,
)
from repro.routing import (
    BrokerRouter,
    DirectionalPolicy,
    policy_connectivity_curve,
)
from tests import fixtures


@pytest.mark.slow
class TestFullPipeline:
    def test_structural_pipeline(self, tiny_internet4):
        """Generate -> select -> verify -> evaluate, as in the README."""
        graph = tiny_internet4
        summary = summarize(graph, estimate_short_paths=True, seed=0)
        assert summary.beta is not None

        selector = BrokerSelector(graph)
        result = selector.select("maxsg", budget=40)
        assert result.mcbg_feasible
        assert MCBGInstance(graph, 40).is_feasible_solution(result.broker_set)

        curve = connectivity_curve(graph, result.broker_set, max_hops=6)
        assert curve.saturated == pytest.approx(
            result.saturated_connectivity, abs=1e-9
        )

    def test_routing_pipeline(self, tiny_internet4):
        """Broker set -> router -> SLAs -> policy evaluation."""
        graph = tiny_internet4
        brokers = list(fixtures.maxsg_brokers("tiny", 4, 40))
        router = BrokerRouter(graph, brokers)

        rng = np.random.default_rng(0)
        served = 0
        for _ in range(30):
            u, v = rng.integers(graph.num_nodes, size=2)
            if u == v:
                continue
            route = router.route(int(u), int(v))
            if route is not None:
                served += 1
                assert route.hops >= 1
        assert served > 20

        policy = policy_connectivity_curve(
            graph, brokers, policy=DirectionalPolicy.DIRECTIONAL,
            bidirectional_fraction=0.3, max_hops=8, seed=0,
        )
        free = policy_connectivity_curve(
            graph, brokers, policy=DirectionalPolicy.FREE, max_hops=8,
        )
        assert policy.saturated <= free.saturated + 0.02

    def test_economic_pipeline(self, tiny_internet4):
        """Broker set value -> pricing -> bargaining -> revenue split."""
        graph = tiny_internet4
        from repro.core import lazy_greedy_max_coverage, saturated_connectivity

        players = lazy_greedy_max_coverage(graph, 6)

        game = StackelbergGame(tiered_customer_population(25, seed=1))
        eq = game.solve(grid=30, refine_iters=15)
        assert eq.coalition_utility > 0

        bargain = nash_bargaining(eq.price, 0.05, beta=4)
        assert bargain.feasible

        best_single = max(saturated_connectivity(graph, [j]) for j in players)
        cf = CoverageProfitGame(
            graph, connectivity_threshold=min(best_single + 0.1, 0.9)
        )
        shapley = exact_shapley(cf, players)
        assert sum(shapley.values()) == pytest.approx(
            cf(frozenset(players)), abs=1e-6
        )

    def test_reproducibility_end_to_end(self):
        """Same seeds, same everything (bypassing the fixture cache)."""
        a = load_internet("tiny", seed=9)
        b = load_internet("tiny", seed=9)
        brokers_a = maxsg(a, 20)
        brokers_b = maxsg(b, 20)
        assert brokers_a == brokers_b
        curve_a = connectivity_curve(a, brokers_a, max_hops=4)
        curve_b = connectivity_curve(b, brokers_b, max_hops=4)
        assert np.allclose(curve_a.fractions, curve_b.fractions)
