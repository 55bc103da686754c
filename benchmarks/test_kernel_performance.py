"""Micro-benchmarks of the performance-critical kernels.

Unlike the artifact benchmarks (one timed run per table/figure), these
use pytest-benchmark's normal multi-round timing to track the kernels the
paper's complexity claims are about: engine marginal gains, greedy
selection, MaxSG, dominated-graph construction and batched BFS.
"""

import numpy as np
import pytest

from repro.core.connectivity import connectivity_curve, saturated_connectivity
from repro.core.domination import dominated_adjacency
from repro.core.engine import DominationEngine
from repro.core.greedy import lazy_greedy_max_coverage
from repro.core.maxsg import maxsg
from repro.graph.bitset import bitset_hop_reach
from repro.graph.csr import bfs_levels

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def graph(config):
    return config.graph()


@pytest.fixture(scope="module")
def budget(graph):
    return max(1, round(0.019 * graph.num_nodes))


def test_bfs_single_source(benchmark, graph):
    benchmark(bfs_levels, graph.adj, 0)


def test_bitset_hop_reach_256_sources(benchmark, graph):
    mat = graph.adj.to_scipy()
    sources = np.arange(min(256, graph.num_nodes))
    benchmark(bitset_hop_reach, mat, sources, 4)


def test_engine_gain_sweep(benchmark, graph):
    def sweep():
        engine = DominationEngine(graph)
        for v in range(0, graph.num_nodes, 50):
            engine.marginal_gain(v)
        return engine

    benchmark(sweep)


def test_lazy_greedy(benchmark, graph, budget):
    benchmark(lazy_greedy_max_coverage, graph, budget)


def test_maxsg(benchmark, graph, budget):
    benchmark(maxsg, graph, budget)


def test_dominated_adjacency_build(benchmark, graph, budget):
    brokers = maxsg(graph, budget)
    benchmark(dominated_adjacency, graph, brokers)


def test_saturated_connectivity(benchmark, graph, budget):
    brokers = maxsg(graph, budget)
    benchmark(saturated_connectivity, graph, brokers)


def test_connectivity_curve_sampled(benchmark, graph, budget):
    brokers = maxsg(graph, budget)
    benchmark(
        connectivity_curve, graph, brokers, max_hops=4, num_sources=200, seed=0
    )
