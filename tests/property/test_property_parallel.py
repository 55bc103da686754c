"""Property-based tests (hypothesis) for the parallel/cache layer.

Four equivalences the subsystem promises, probed over random inputs:

* a process pool under :func:`parallel_map` reproduces the in-caller
  results, whatever the items, worker count, chunking, or seeds;
* the counters its tasks move reach the caller's registry either way;
* a cache hit returns exactly what the cold compute returned;
* ``lazy_greedy_max_coverage`` matches ``greedy_max_coverage`` on random
  graphs (the lazy evaluation is an optimization, not a semantic change).
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy import greedy_max_coverage, lazy_greedy_max_coverage
from repro.graph.asgraph import ASGraph
from repro.obs import add_counter, counter_moves
from repro.parallel.cache import ResultCache
from repro.parallel.executor import parallel_map


@st.composite
def random_graphs(draw, min_nodes=3, max_nodes=25):
    """A random simple graph as an ASGraph."""
    n = draw(st.integers(min_nodes, max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(
            st.sampled_from(possible),
            min_size=1,
            max_size=min(60, len(possible)),
            unique=True,
        )
    )
    return ASGraph.from_edges(n, edges)


# Module-level so the process pool can pickle it.
def _mix(task):
    """A seeded task: it carries its own seed, as every sweep cell does."""
    x, seed = task
    return (x * 3 + 1, float(np.random.default_rng(seed).random()))


def _double(x):
    return x * 2


def _bump(x):
    add_counter("test.parallel.bumped", x)
    return x


class TestBackendEquivalence:
    @given(
        items=st.lists(
            st.tuples(st.integers(-1000, 1000), st.integers(0, 2**32 - 1)),
            min_size=1,
            max_size=8,
        ),
        workers=st.integers(1, 3),
        chunk_size=st.one_of(st.none(), st.integers(1, 7)),
    )
    @settings(max_examples=5, deadline=None)  # process pools are expensive
    def test_process_matches_serial(self, items, workers, chunk_size):
        serial = parallel_map(_mix, items).values()
        procs = parallel_map(
            _mix, items, workers=workers, chunk_size=chunk_size
        ).values()
        assert procs == serial

    @pytest.mark.parametrize("workers", [1, 2])
    @given(
        items=st.lists(st.integers(1, 1000), min_size=1, max_size=8),
        chunk_size=st.one_of(st.none(), st.integers(1, 7)),
    )
    @settings(max_examples=5, deadline=None)  # process pools are expensive
    def test_counters_come_home(self, workers, items, chunk_size):
        with counter_moves() as moved:
            parallel_map(_bump, items, workers=workers, chunk_size=chunk_size)
        assert moved["test.parallel.bumped"] == sum(items)


class TestCacheEquivalence:
    @given(
        value=st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(-(2**53), 2**53),
                st.text(max_size=20),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.text(max_size=8), children, max_size=4),
            ),
            max_leaves=12,
        ),
        params=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(st.integers(-100, 100), st.text(max_size=8)),
            max_size=4,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_hit_equals_cold_compute(self, value, params):
        with tempfile.TemporaryDirectory() as d:
            cache = ResultCache(d)
            cold = cache.put(
                {"v": value}, graph_digest="g", algorithm="prop", params=params
            )
            warm = cache.get(graph_digest="g", algorithm="prop", params=params)
            assert warm == cold

    @given(items=st.lists(st.integers(0, 50), min_size=1, max_size=6, unique=True))
    @settings(max_examples=20, deadline=None)
    def test_get_or_compute_idempotent(self, items):
        with tempfile.TemporaryDirectory() as d:
            cache = ResultCache(d)

            def compute():
                return parallel_map(_double, items).values()

            key = dict(graph_digest="g", algorithm="sweep", params={"items": items})
            cold = cache.get_or_compute(compute, **key)
            warm = cache.get_or_compute(compute, **key)
            assert cold == warm == [x * 2 for x in items]
            assert cache.hits == 1


class TestGreedyEquivalence:
    @given(graph=random_graphs(), budget=st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_lazy_greedy_matches_eager_greedy(self, graph, budget):
        budget = min(budget, graph.num_nodes)
        eager = greedy_max_coverage(graph, budget)
        lazy = lazy_greedy_max_coverage(graph, budget)
        assert lazy == eager
