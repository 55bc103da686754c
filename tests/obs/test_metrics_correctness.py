"""Pin exact metric values on tiny fixed graphs.

These tests certify that the counters mean what docs/observability.md
says they mean — e.g. ``kernel.greedy.gain_evaluations`` really is the
number of marginal-gain oracle calls, pinned against hand-computed
counts on a 5-node star.
"""

from repro.core.coverage import coverage_value
from repro.core.greedy import greedy_max_coverage, lazy_greedy_max_coverage
from repro.graph.bitset import bitset_hop_reach
from repro.graph.csr import bfs_levels
from repro.graph.generators import path_graph, star_graph
from repro.obs import get_registry
from repro.parallel.cache import ResultCache


def counter(name: str) -> int:
    return get_registry().counter(name).value


class TestGreedyEvaluationCounts:
    def test_plain_greedy_star5_exact_count(self):
        """Star K_{1,4}, budget 2: round one evaluates all 5 vertices and
        picks the hub (covering everything); round two evaluates the 4
        remaining leaves, sees zero gain everywhere, and stops early —
        exactly 9 evaluations and 1 selection round."""
        graph = star_graph(5)
        before_evals = counter("kernel.greedy.gain_evaluations")
        before_rounds = counter("kernel.greedy.rounds")
        assert greedy_max_coverage(graph, 2) == [0]
        assert counter("kernel.greedy.gain_evaluations") - before_evals == 9
        assert counter("kernel.greedy.rounds") - before_rounds == 1

    def test_lazy_greedy_star5_exact_count(self):
        """Lazy greedy on the same instance: the hub's initial cached
        gain is fresh (5, selected with zero re-evaluations); the four
        leaves are then popped, re-evaluated to gain 0 each, and never
        re-pushed — exactly 4 evaluations, 0 re-pops."""
        graph = star_graph(5)
        before_evals = counter("kernel.lazy_greedy.gain_evaluations")
        before_repops = counter("kernel.lazy_greedy.heap_repops")
        assert lazy_greedy_max_coverage(graph, 2) == [0]
        assert counter("kernel.lazy_greedy.gain_evaluations") - before_evals == 4
        assert counter("kernel.lazy_greedy.heap_repops") - before_repops == 0

    def test_lazy_never_evaluates_more_than_plain(self, star10, path10, k5):
        """The CELF promise, as measured by the counters themselves."""
        for graph in (star10, path10, k5):
            for budget in (1, 2, 3):
                p0 = counter("kernel.greedy.gain_evaluations")
                greedy_max_coverage(graph, budget)
                plain = counter("kernel.greedy.gain_evaluations") - p0
                l0 = counter("kernel.lazy_greedy.gain_evaluations")
                lazy_greedy_max_coverage(graph, budget)
                lazy = counter("kernel.lazy_greedy.gain_evaluations") - l0
                assert lazy <= plain


class TestBfsCounts:
    def test_bfs_levels_counts_visited_nodes(self, path10):
        before_runs = counter("kernel.bfs.runs")
        before_visits = counter("kernel.bfs.node_visits")
        bfs_levels(path10.adj, 0)
        # A path is fully reachable: all 10 vertices (source included).
        assert counter("kernel.bfs.runs") - before_runs == 1
        assert counter("kernel.bfs.node_visits") - before_visits == 10

    def test_batched_bfs_counts_sources(self, path10):
        before_runs = counter("kernel.batched_bfs.runs")
        before_sources = counter("kernel.batched_bfs.sources")
        bitset_hop_reach(path10.adj.to_scipy(), [0, 4, 9], 3)
        assert counter("kernel.batched_bfs.runs") - before_runs == 1
        assert counter("kernel.batched_bfs.sources") - before_sources == 3

    def test_coverage_value_counted(self, star10):
        before = counter("kernel.coverage.value_calls")
        coverage_value(star10, [0])
        coverage_value(star10, [1])
        assert counter("kernel.coverage.value_calls") - before == 2


class TestCacheCounts:
    def test_miss_put_hit_sequence(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = dict(graph_digest="d" * 64, algorithm="alg", params={"k": 1})
        m0, h0, p0 = (
            counter("cache.misses"), counter("cache.hits"), counter("cache.puts"),
        )
        assert cache.get(**key) is None
        assert counter("cache.misses") - m0 == 1
        cache.put({"v": 1}, **key)
        assert counter("cache.puts") - p0 == 1
        assert cache.get(**key) == {"v": 1}
        assert counter("cache.hits") - h0 == 1
        assert counter("cache.misses") - m0 == 1  # the hit added no miss
