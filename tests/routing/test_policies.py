"""Unit tests for business-relationship routing policies (Figs. 5b/5c)."""

import numpy as np
import pytest

from repro.core.maxsg import maxsg
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.routing.policies import (
    DirectionalPolicy,
    build_policy_matrices,
    coalition_edges,
    inter_broker_edge_mask,
    policy_connectivity_curve,
)
from repro.types import Relationship

C2P = int(Relationship.CUSTOMER_TO_PROVIDER)
P2P = int(Relationship.PEER_TO_PEER)


def hierarchy() -> ASGraph:
    """0,1 tier providers (peering); 2,3 customers of 0; 4 customer of 1."""
    return ASGraph.from_edges(
        5,
        [(2, 0), (3, 0), (4, 1), (0, 1)],
        relationships=[C2P, C2P, C2P, P2P],
    )


class TestPolicyMatrices:
    def test_hop_type_split(self):
        g = hierarchy()
        mats = build_policy_matrices(g, None)
        assert mats.up.nnz == 3       # three c2p edges, one direction each
        assert mats.down.nnz == 3
        assert mats.peer.nnz == 2     # symmetric peer edge
        assert mats.coalition.nnz == 0

    def test_domination_filter(self):
        g = hierarchy()
        mats = build_policy_matrices(g, [2])
        # only edges touching node 2 survive: (2,0) c2p.
        assert mats.up.nnz == 1
        assert mats.peer.nnz == 0

    def test_coalition_mask_moves_edges(self):
        g = hierarchy()
        mask = np.zeros(g.num_edges, dtype=bool)
        mask[0] = True  # edge (2,0)
        mats = build_policy_matrices(g, None, coalition_edge_mask=mask)
        assert mats.coalition.nnz == 2
        assert mats.up.nnz == 2


class TestInterBrokerEdges:
    def test_mask(self):
        g = hierarchy()
        mask = inter_broker_edge_mask(g, [0, 1, 2])
        # inter-broker: (2,0) and (0,1).
        assert mask.tolist() == [True, False, False, True]

    def test_coalition_sampling_fraction(self, tiny_internet):
        brokers = maxsg(tiny_internet, 30)
        inter = inter_broker_edge_mask(tiny_internet, brokers)
        full = coalition_edges(tiny_internet, brokers, 1.0, seed=0)
        assert full.sum() == inter.sum()
        half = coalition_edges(tiny_internet, brokers, 0.5, seed=0)
        assert half.sum() == pytest.approx(inter.sum() * 0.5, abs=1)

    def test_invalid_fraction(self, tiny_internet):
        with pytest.raises(AlgorithmError):
            coalition_edges(tiny_internet, [0], 1.5)


class TestPolicyCurves:
    def test_free_matches_standard(self, tiny_internet):
        from repro.core.connectivity import connectivity_curve

        brokers = maxsg(tiny_internet, 15)
        a = policy_connectivity_curve(
            tiny_internet, brokers, policy=DirectionalPolicy.FREE, max_hops=4
        )
        b = connectivity_curve(tiny_internet, brokers, max_hops=4)
        assert np.allclose(a.fractions, b.fractions)

    def test_business_below_free(self, tiny_internet):
        brokers = maxsg(tiny_internet, 30)
        free = policy_connectivity_curve(
            tiny_internet, brokers, policy=DirectionalPolicy.FREE, max_hops=8
        )
        vf = policy_connectivity_curve(
            tiny_internet, brokers, policy=DirectionalPolicy.BUSINESS, max_hops=8
        )
        assert vf.saturated <= free.saturated + 1e-9

    def test_strict_below_business(self, tiny_internet):
        brokers = maxsg(tiny_internet, 30)
        vf = policy_connectivity_curve(
            tiny_internet, brokers, policy=DirectionalPolicy.BUSINESS, max_hops=8
        )
        strict = policy_connectivity_curve(
            tiny_internet, brokers, policy=DirectionalPolicy.STRICT_BUSINESS, max_hops=8
        )
        assert strict.saturated <= vf.saturated + 1e-9

    def test_directional_collapse(self, tiny_internet):
        """Fig. 5c: the DIRECTIONAL policy costs a lot of connectivity."""
        brokers = maxsg(tiny_internet, 41)
        free = policy_connectivity_curve(
            tiny_internet, brokers, policy=DirectionalPolicy.FREE, max_hops=10
        )
        directional = policy_connectivity_curve(
            tiny_internet, brokers, policy=DirectionalPolicy.DIRECTIONAL, max_hops=10
        )
        assert directional.saturated < free.saturated - 0.10

    def test_coalition_recovery_monotone(self, tiny_internet):
        """Fig. 5b: more renegotiated inter-broker links, more connectivity."""
        brokers = maxsg(tiny_internet, 41)
        values = []
        for q in (0.0, 0.3, 1.0):
            curve = policy_connectivity_curve(
                tiny_internet,
                brokers,
                policy=DirectionalPolicy.DIRECTIONAL,
                bidirectional_fraction=q,
                max_hops=10,
                seed=3,
            )
            values.append(curve.saturated)
        assert values[0] <= values[1] + 1e-9 <= values[2] + 2e-9

    def test_bidirectional_requires_brokers(self, tiny_internet):
        with pytest.raises(AlgorithmError):
            policy_connectivity_curve(
                tiny_internet,
                None,
                policy=DirectionalPolicy.DIRECTIONAL,
                bidirectional_fraction=0.3,
            )

    def test_sampled_sources(self, tiny_internet):
        brokers = maxsg(tiny_internet, 20)
        curve = policy_connectivity_curve(
            tiny_internet,
            brokers,
            policy=DirectionalPolicy.DIRECTIONAL,
            num_sources=100,
            seed=0,
        )
        assert not curve.exact
        assert 0.0 <= curve.saturated <= 1.0


class TestBoundary:
    """Bad arguments fail before any policy runs, the same for every
    policy (FREE included)."""

    @pytest.mark.parametrize("policy", list(DirectionalPolicy), ids=lambda p: p.value)
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_hops": 0},
            {"num_sources": 0},
            {"num_sources": -1},
            {"bidirectional_fraction": -0.5},
            {"bidirectional_fraction": float("nan")},
        ],
        ids=["max_hops=0", "num_sources=0", "num_sources=-1", "q=-0.5", "q=nan"],
    )
    def test_bad_input_rejected(self, policy, kwargs):
        with pytest.raises(AlgorithmError):
            policy_connectivity_curve(hierarchy(), [0, 1], policy=policy, **kwargs)


class TestDirectionalSemantics:
    def test_uphill_transit_allowed(self):
        """2 -> 0 -> 1 -> 4? Interior 0->1 is peer: blocked; but terminal
        rules: 2's first hop (any) to 0; interior hop 0->1 must be up or
        coalition -> peer blocked; so 4 unreachable from 2 in 3 hops,
        while 3 (via provider 0) is reachable: 2 -> 0 (first) -> 3 (last)."""
        g = hierarchy()
        curve = policy_connectivity_curve(
            g,
            list(range(5)),
            policy=DirectionalPolicy.DIRECTIONAL,
            max_hops=4,
        )
        # exact reachable ordered pairs under the SLA-endpoint model:
        # every pair within 2 hops is reachable (first + last hop free).
        from tests.oracles.bfs import batched_hop_reach

        two_hop = batched_hop_reach(g.adj.to_scipy(), np.arange(5), 2)[:, 1].sum()
        assert curve.at(4) * 20 >= two_hop - 1e-9

    def test_coalition_edge_restores_peer_transit(self):
        g = hierarchy()
        brokers = [0, 1]
        no_coal = policy_connectivity_curve(
            g, brokers, policy=DirectionalPolicy.DIRECTIONAL, max_hops=4
        )
        coal = policy_connectivity_curve(
            g,
            brokers,
            policy=DirectionalPolicy.DIRECTIONAL,
            bidirectional_fraction=1.0,
            max_hops=4,
        )
        # renegotiating the 0-1 peer edge lets 2 reach 4 (2,0,1,4).
        assert coal.at(4) > no_coal.at(4)
