"""Unit tests for valley-free path semantics."""

import numpy as np
import pytest

from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.routing.policies import DirectionalPolicy, policy_connectivity_curve
from repro.routing.valley_free import is_valley_free
from repro.types import Relationship

C2P = int(Relationship.CUSTOMER_TO_PROVIDER)
P2P = int(Relationship.PEER_TO_PEER)
IXP = int(Relationship.IXP_MEMBERSHIP)


def hierarchy() -> ASGraph:
    """Two providers (0, 1) peering; 2,3 customers of 0; 4 customer of 1.

    Edges (customer first): 2->0, 3->0, 4->1, peer 0-1.
    """
    return ASGraph.from_edges(
        5,
        [(2, 0), (3, 0), (4, 1), (0, 1)],
        relationships=[C2P, C2P, C2P, P2P],
    )


class TestIsValleyFree:
    def test_up_peer_down(self):
        g = hierarchy()
        assert is_valley_free(g, [2, 0, 1, 4])

    def test_up_down(self):
        g = hierarchy()
        assert is_valley_free(g, [2, 0, 3])

    def test_valley_rejected(self):
        g = hierarchy()
        # 0 -> 2 (down) then 2 -> 0 -> impossible here; build explicit
        # valley: down to 3 then up to 0 again.
        assert not is_valley_free(g, [2, 0, 3, 0][:3] + [0])  # 2,0,3,0

    def test_peer_after_down_rejected(self):
        g = hierarchy()
        # 4 -> 1 (up), 1 -> 0 (peer), 0 -> 1? no such second peer; use
        # 0 -> 2 (down) then ... construct down-then-peer: [2,0,1] is
        # up/peer = fine; [0,2] down then no peer exists from 2.
        assert not is_valley_free(g, [3, 0, 2, 0])

    def test_single_vertex(self):
        assert is_valley_free(hierarchy(), [3])

    def test_unknown_edge_raises(self):
        with pytest.raises(AlgorithmError):
            is_valley_free(hierarchy(), [2, 4])

    def test_empty_path_raises(self):
        with pytest.raises(AlgorithmError):
            is_valley_free(hierarchy(), [])

    def test_ixp_edge_treated_as_peer(self):
        g = ASGraph.from_edges(3, [(0, 1), (1, 2)], relationships=[IXP, IXP])
        # two peer hops: not valley-free
        assert not is_valley_free(g, [0, 1, 2])


class TestReachability:
    """Valley-free reachability is the BUSINESS policy curve over the
    free topology (``brokers=None``)."""

    @staticmethod
    def _business(g: ASGraph, max_hops: int):
        return policy_connectivity_curve(
            g, None, policy=DirectionalPolicy.BUSINESS, max_hops=max_hops
        )

    def test_all_reachable_in_hierarchy(self):
        curve = self._business(hierarchy(), 4)
        # 2 -> 0 -> 1 -> 4 is the longest route: up, peer, down.
        assert curve.fractions.tolist() == [8 / 20, 16 / 20, 1.0, 1.0]
        assert curve.saturated == 1.0

    def test_two_peer_hops_blocked(self):
        # chain of peers: 0 -1- 2; 0 and 2 cannot reach each other
        # valley-free, so 4 of the 6 ordered pairs are joined.
        g = ASGraph.from_edges(3, [(0, 1), (1, 2)], relationships=[P2P, P2P])
        curve = self._business(g, 4)
        assert curve.saturated == 4 / 6

    def test_internet_is_valley_free_navigable(self, tiny_internet):
        """The synthetic internet's relationships leave most pairs a
        valley-free route (the bar a 10-of-15 pair sample used to set)."""
        curve = self._business(tiny_internet, 10)
        assert curve.saturated >= 2 / 3
        assert np.all(np.diff(curve.fractions) >= 0)
