"""Bench P5 — the acceptance benchmark for the domination engine.

The issue's claim, asserted (not just timed): the incremental
``DominationEngine`` makes the failure sweep and the churn simulation at
least 2x faster than their from-scratch counterparts at the ``small``
benchmark profile.  Both comparisons also assert exact result equality —
the engine is an optimization, never a behaviour change — so a passing
run doubles as a differential check at benchmark scale.

Each passing benchmark is appended to the run ledger by the session
hooks in ``conftest.py`` whenever ``REPRO_LEDGER`` is set (what CI
does), recording the measured wall-clock next to every other artifact.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import timed_once
from repro.core.maxsg import maxsg
from repro.core.robustness import failure_sweep
from repro.simulation.churn import IncrementalBrokerSet, generate_churn_trace
from tests.oracles.churn import IncrementalBrokerSetReference
from tests.oracles.robustness import failure_sweep_reference

CHURN_EVENTS = 400


def test_failure_sweep_speedup(benchmark, config, warm_graph):
    brokers = maxsg(warm_graph, max(8, warm_graph.num_nodes // 50))
    kwargs = dict(strategy="targeted", step=1, seed=config.seed)
    t0 = time.perf_counter()
    slow = failure_sweep_reference(warm_graph, brokers, **kwargs)
    slow_s = time.perf_counter() - t0

    def engine_sweep():
        return failure_sweep(warm_graph, brokers, **kwargs)

    fast, fast_s = timed_once(benchmark, engine_sweep)
    np.testing.assert_array_equal(fast.removed, slow.removed)
    np.testing.assert_array_equal(fast.connectivity, slow.connectivity)
    if fast_s is None:  # --benchmark-disable: equality-only smoke mode
        return
    print(
        f"\nfailure sweep ({len(brokers)} brokers, {len(fast.removed)} points): "
        f"from-scratch {slow_s:.2f}s, engine {fast_s:.2f}s "
        f"({slow_s / fast_s:.1f}x)"
    )
    assert fast_s * 2.0 <= slow_s, (
        f"expected >= 2x sweep speedup, got {slow_s / fast_s:.2f}x"
    )


def test_churn_maintenance_speedup(benchmark, config, warm_graph):
    brokers = maxsg(warm_graph, max(8, warm_graph.num_nodes // 100))
    trace = generate_churn_trace(
        warm_graph, num_events=CHURN_EVENTS, seed=config.seed
    )

    def replay(maintainer_cls):
        maintainer = maintainer_cls(
            warm_graph, brokers, coverage_target=0.8
        )
        for event in trace.events:
            maintainer.apply(event)
        return maintainer

    t0 = time.perf_counter()
    slow = replay(IncrementalBrokerSetReference)
    slow_s = time.perf_counter() - t0

    fast, fast_s = timed_once(benchmark, replay, IncrementalBrokerSet)
    assert fast.brokers == slow.brokers
    assert fast.covered_set() == slow.covered_set()
    assert fast.stats == slow.stats
    if fast_s is None:  # --benchmark-disable: equality-only smoke mode
        return
    print(
        f"\nchurn replay ({CHURN_EVENTS} events): "
        f"from-scratch {slow_s:.2f}s, engine {fast_s:.2f}s "
        f"({slow_s / fast_s:.1f}x)"
    )
    assert fast_s * 2.0 <= slow_s, (
        f"expected >= 2x churn speedup, got {slow_s / fast_s:.2f}x"
    )
