"""Property-based tests for routing semantics.

The policy curves (one product-graph call of the bit-parallel kernel) are
verified against the dense reference loops in ``tests/oracles/policies.py``
and against brute-force path enumeration under the same grammar, and the
BGP computation against the valley-free reachability oracle.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.asgraph import ASGraph
from repro.routing.bgp import BGPSimulator, RouteType
from repro.routing.policies import (
    DirectionalPolicy,
    policy_connectivity_curve,
)
from repro.routing.valley_free import is_valley_free
from repro.types import Relationship
from tests.oracles.policies import policy_curve_totals, valley_free_reachable

C2P = int(Relationship.CUSTOMER_TO_PROVIDER)
P2P = int(Relationship.PEER_TO_PEER)
IXP = int(Relationship.IXP_MEMBERSHIP)


@st.composite
def related_graphs(draw, min_nodes=4, max_nodes=9, relationships=(C2P, P2P)):
    """Small random graphs with random business relationships."""
    n = draw(st.integers(min_nodes, max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(
            st.sampled_from(possible),
            min_size=n - 1,
            max_size=min(16, len(possible)),
            unique=True,
        )
    )
    rels = draw(
        st.lists(
            st.sampled_from(list(relationships)),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    return ASGraph.from_edges(n, edges, relationships=rels)


def _brute_force_valley_free_pairs(graph: ASGraph, max_hops: int) -> set:
    """All ordered pairs joined by a valley-free path of <= max_hops hops.

    Exhaustive DFS over simple paths — exponential, only for tiny graphs.
    """
    n = graph.num_nodes
    adjacency = {v: list(graph.neighbors(v)) for v in range(n)}
    found = set()

    def dfs(path):
        u = path[-1]
        if len(path) > 1 and is_valley_free(graph, path):
            found.add((path[0], u))
        if len(path) - 1 >= max_hops:
            return
        for w in adjacency[u]:
            w = int(w)
            if w in path:
                continue
            # prune: extended prefix must itself be valley-free
            if is_valley_free(graph, path + [w]):
                dfs(path + [w])

    for s in range(n):
        dfs([s])
    return found


class TestValleyFreeEngineAgainstBruteForce:
    @given(related_graphs())
    @settings(max_examples=25, deadline=None)
    def test_business_curve_matches_enumeration(self, g):
        max_hops = 6
        curve = policy_connectivity_curve(
            g,
            list(range(g.num_nodes)),  # B = V: pure policy semantics
            policy=DirectionalPolicy.BUSINESS,
            max_hops=max_hops,
        )
        expected = _brute_force_valley_free_pairs(g, max_hops)
        n = g.num_nodes
        assert curve.at(max_hops) == pytest.approx(len(expected) / (n * (n - 1)))

    @given(related_graphs())
    @settings(max_examples=25, deadline=None)
    def test_reachability_oracle_agrees(self, g):
        """valley_free_reachable == the engine's saturated reach per source."""
        for s in range(g.num_nodes):
            oracle = valley_free_reachable(g, s)
            expected = {
                (u, v) for (u, v) in _brute_force_valley_free_pairs(g, g.num_nodes)
                if u == s
            }
            reached = {v for v in range(g.num_nodes) if oracle[v] and v != s}
            assert reached == {v for (_, v) in expected}


class TestProductGraphAgainstDenseReference:
    @given(
        related_graphs(min_nodes=2, max_nodes=11, relationships=(C2P, P2P, IXP)),
        st.sampled_from(
            [
                DirectionalPolicy.BUSINESS,
                DirectionalPolicy.STRICT_BUSINESS,
                DirectionalPolicy.DIRECTIONAL,
            ]
        ),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_pair_counts_match_dense_loops(self, g, policy, data):
        """Curve × pairs equals the dense loops' per-hop totals exactly."""
        n = g.num_nodes
        # B = V makes every edge inter-broker, so q converts most of them.
        brokers = data.draw(
            st.none()
            | st.just(list(range(n)))
            | st.lists(st.integers(0, n - 1), min_size=1, unique=True),
            label="brokers",
        )
        q = 0.0 if brokers is None else data.draw(
            st.sampled_from([0.0, 0.5, 1.0]), label="q"
        )
        kwargs = dict(
            policy=policy,
            bidirectional_fraction=q,
            max_hops=data.draw(st.integers(1, 7), label="max_hops"),
            num_sources=data.draw(
                st.none() | st.integers(1, n), label="num_sources"
            ),
            seed=data.draw(st.integers(0, 2**16), label="seed"),
        )
        curve = policy_connectivity_curve(g, brokers, **kwargs)
        totals, num_sources = policy_curve_totals(g, brokers, **kwargs)
        pairs = num_sources * (n - 1)
        assert curve.num_sources == num_sources
        assert np.array_equal(curve.fractions, totals / pairs)
        assert np.rint(curve.fractions * pairs).astype(np.int64).tolist() == (
            totals.tolist()
        )


class TestPolicyOrderingProperties:
    @given(related_graphs(), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_policy_strictness_ordering(self, g, k):
        """FREE >= BUSINESS >= STRICT_BUSINESS at every hop bound."""
        brokers = list(range(min(k, g.num_nodes)))
        free = policy_connectivity_curve(
            g, brokers, policy=DirectionalPolicy.FREE, max_hops=5
        )
        vf = policy_connectivity_curve(
            g, brokers, policy=DirectionalPolicy.BUSINESS, max_hops=5
        )
        strict = policy_connectivity_curve(
            g, brokers, policy=DirectionalPolicy.STRICT_BUSINESS, max_hops=5
        )
        assert np.all(vf.fractions <= free.fractions + 1e-12)
        assert np.all(strict.fractions <= vf.fractions + 1e-12)

    @given(related_graphs())
    @settings(max_examples=30, deadline=None)
    def test_coalition_conversion_monotone(self, g):
        brokers = list(range(g.num_nodes))
        values = []
        for q in (0.0, 0.5, 1.0):
            curve = policy_connectivity_curve(
                g,
                brokers,
                policy=DirectionalPolicy.DIRECTIONAL,
                bidirectional_fraction=q,
                max_hops=6,
                seed=1,
            )
            values.append(curve.at(6))
        assert values[0] <= values[1] + 1e-9
        assert values[1] <= values[2] + 1e-9


class TestBGPProperties:
    @given(related_graphs())
    @settings(max_examples=25, deadline=None)
    def test_bgp_paths_valley_free_and_reach_subset(self, g):
        sim = BGPSimulator(g)
        for d in range(g.num_nodes):
            info = sim.route_to(d)
            oracle = valley_free_reachable(g, d)
            for s in range(g.num_nodes):
                path = info.path_to(s)
                if path is not None and len(path) > 1:
                    assert is_valley_free(g, path)
            # BGP reachability is symmetric-ish to VF reachability from d:
            # if s hears d's route, a valley-free path s->d exists.
            for s in range(g.num_nodes):
                if s != d and info.route_type[s] != int(RouteType.NONE):
                    assert valley_free_reachable(g, s)[d]

    @given(related_graphs())
    @settings(max_examples=25, deadline=None)
    def test_customer_routes_preferred(self, g):
        """No vertex with a customer route also deserves a peer label."""
        sim = BGPSimulator(g)
        for d in range(g.num_nodes):
            info = sim.route_to(d)
            # types are single-valued and consistent with path lengths.
            for s in range(g.num_nodes):
                if info.route_type[s] == int(RouteType.NONE):
                    assert info.path_length[s] == -1
                else:
                    assert info.path_length[s] >= 0
