"""Bench P7 — the acceptance benchmark for the bit-parallel BFS kernel.

The claim, asserted (not just timed): the bit-parallel kernel makes the
connectivity curve at least 5x faster than the python dense-product
reference in :mod:`tests.oracles.connectivity` at the ``small`` profile,
while returning *bit-identical* fractions — so a passing run doubles as
a differential check at benchmark scale.

Unlike the rest of the harness this file pins the ``small`` profile
explicitly instead of honouring ``REPRO_BENCH_SCALE``: the acceptance
bar is defined at 3,019 nodes, and at ``tiny`` the reference is too
fast for a stable ratio.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import timed_once
from repro.core.connectivity import connectivity_curve, saturated_connectivity
from repro.core.maxsg import maxsg
from repro.datasets.loader import load_internet
from tests.oracles.connectivity import curve_fractions

MIN_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def small_graph():
    """The 3,019-node small profile, built outside any timed region."""
    return load_internet("small", seed=1)


def test_connectivity_curve_speedup(benchmark, small_graph):
    brokers = maxsg(small_graph, max(8, small_graph.num_nodes // 50))
    kwargs = dict(max_hops=8, seed=1)
    t0 = time.perf_counter()
    slow = curve_fractions(small_graph, brokers, **kwargs)
    slow_s = time.perf_counter() - t0

    fast, fast_s = timed_once(
        benchmark, connectivity_curve, small_graph, brokers, **kwargs,
    )
    np.testing.assert_array_equal(fast.fractions, slow)
    assert fast.saturated == saturated_connectivity(small_graph, brokers)
    if fast_s is None:  # --benchmark-disable: equality-only smoke mode
        return
    print(
        f"\nconnectivity curve ({len(brokers)} brokers, exact sources): "
        f"python {slow_s:.2f}s, bitset {fast_s:.3f}s "
        f"({slow_s / fast_s:.1f}x)"
    )
    assert fast_s * MIN_SPEEDUP <= slow_s, (
        f"expected >= {MIN_SPEEDUP}x connectivity speedup, "
        f"got {slow_s / fast_s:.2f}x"
    )
