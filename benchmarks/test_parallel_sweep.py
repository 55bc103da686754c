"""Bench P1 — the acceptance benchmark for the parallel + cache layer.

Two claims from the issue, each asserted (not just timed):

* a Fig. 2b-style multi-seed sweep with ``--workers 4`` (a process
  pool) is at least 2x faster than the serial loop (needs >= 4 cores; the
  assertion is skipped on smaller machines, where a process pool cannot
  physically deliver 2x);
* a warm-cache rerun returns a bit-identical JSON payload at least 2x
  faster than the cold run (asserted everywhere — cache hits beat BFS on
  any machine).

Cache hit/miss counts are printed so the CI benchmark job can publish
them next to the timings.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments.fig2 import fig2b_seed_sweep

pytestmark = pytest.mark.slow

SEEDS = list(range(1, 9))


def _sweep(config, **kwargs):
    return fig2b_seed_sweep(config, seeds=SEEDS, **kwargs)


def test_process_backend_speedup(benchmark, config, warm_graph):
    if (os.cpu_count() or 1) < 4:
        pytest.skip("process-pool speedup needs >= 4 cores")
    t0 = time.perf_counter()
    serial = _sweep(config)
    serial_s = time.perf_counter() - t0

    def parallel():
        return _sweep(config, workers=4)

    result = benchmark.pedantic(parallel, rounds=1, iterations=1)
    parallel_s = benchmark.stats.stats.total
    print(
        f"\nfig2b sweep ({len(SEEDS)} seeds): serial {serial_s:.2f}s, "
        f"process x4 {parallel_s:.2f}s ({serial_s / parallel_s:.1f}x)"
    )
    assert result.to_json() == serial.to_json()
    assert parallel_s * 2.0 <= serial_s, (
        f"expected >= 2x speedup, got {serial_s / parallel_s:.2f}x"
    )


def test_warm_cache_speedup_and_bit_identity(benchmark, config, warm_graph, tmp_path):
    cache_dir = tmp_path / "cache"
    t0 = time.perf_counter()
    cold = _sweep(config, cache_dir=cache_dir)
    cold_s = time.perf_counter() - t0

    def warm_run():
        return _sweep(config, cache_dir=cache_dir)

    warm = benchmark.pedantic(warm_run, rounds=1, iterations=1)
    warm_s = benchmark.stats.stats.total
    print(
        f"\nfig2b sweep ({len(SEEDS)} seeds): cold {cold_s:.2f}s "
        f"({cold.cache_misses} misses), warm {warm_s:.2f}s "
        f"({warm.cache_hits} hits) — {cold_s / warm_s:.1f}x"
    )
    assert warm.to_json() == cold.to_json()  # bit-identical JSON payloads
    assert warm.cache_hits == len(cold.payload["cells"])
    assert warm.cache_misses == 0
    assert warm_s * 2.0 <= cold_s, (
        f"expected warm rerun >= 2x faster, got {cold_s / warm_s:.2f}x"
    )
