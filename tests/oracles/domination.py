"""Reference broker-connectivity check: one BFS from the first broker.

:func:`repro.core.domination.brokers_mutually_connected` answers the same
question from one component labelling of ``B ⊙ A``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.domination import dominated_adjacency
from repro.graph.asgraph import ASGraph
from repro.graph.csr import UNREACHABLE
from tests.oracles.bfs import bfs_levels


def brokers_mutually_connected(graph: ASGraph, brokers: Sequence[int]) -> bool:
    """Does a BFS in the dominated graph from ``brokers[0]`` reach them all?"""
    brokers = list(brokers)
    if len(brokers) <= 1:
        return True
    adj = dominated_adjacency(graph, brokers)
    dist = bfs_levels(adj, brokers[0])
    return all(dist[b] != UNREACHABLE for b in brokers[1:])
