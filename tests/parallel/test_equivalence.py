"""Equivalence suite: every sweep is bit-identical across workers and caches.

The contract under test: a sweep's JSON payload does not depend on the
worker count (``workers=1`` runs in the caller, ``WORKERS`` a process
pool) or on whether results came from the cache or were computed cold,
and the kernel counters it moves do not depend on the worker count.
"""

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.fig2 import fig2b_seed_sweep
from repro.experiments.table5 import table5_budget_sweep
from repro.obs import counter_moves
from repro.resilience import replay_many
from repro.resilience.faults import independent_crashes
from tests import fixtures

WORKERS = 2

CONFIG = ExperimentConfig(scale="tiny", seed=1, num_sources=150)
SEEDS = [1, 2]
BUDGETS = [5, 12]


def _kernel_moves(sweep, **kwargs) -> dict:
    with counter_moves() as moved:
        sweep(CONFIG, **kwargs)
    return {k: v for k, v in moved.items() if k.startswith("kernel.")}


@pytest.fixture(scope="module")
def fig2b_serial():
    return fig2b_seed_sweep(CONFIG, seeds=SEEDS, budgets=BUDGETS)


@pytest.fixture(scope="module")
def table5_serial():
    return table5_budget_sweep(CONFIG, budgets=BUDGETS, top=5)


class TestFig2bSweep:
    def test_backend_equivalence(self, fig2b_serial):
        parallel = fig2b_seed_sweep(
            CONFIG, seeds=SEEDS, budgets=BUDGETS, workers=WORKERS
        )
        assert parallel.to_json() == fig2b_serial.to_json()

    def test_kernel_counters_match_serial(self):
        serial = _kernel_moves(fig2b_seed_sweep, seeds=SEEDS, budgets=BUDGETS)
        pooled = _kernel_moves(
            fig2b_seed_sweep, seeds=SEEDS, budgets=BUDGETS, workers=WORKERS
        )
        cells = len(SEEDS) * len(BUDGETS)
        assert serial["kernel.connectivity_curve.calls"] == cells
        assert pooled == serial

    def test_cold_warm_bit_identity(self, fig2b_serial, tmp_path):
        cold = fig2b_seed_sweep(
            CONFIG, seeds=SEEDS, budgets=BUDGETS, cache_dir=tmp_path
        )
        warm = fig2b_seed_sweep(
            CONFIG, seeds=SEEDS, budgets=BUDGETS, cache_dir=tmp_path
        )
        assert cold.to_json() == warm.to_json() == fig2b_serial.to_json()
        assert cold.cache_misses == len(SEEDS) * len(BUDGETS)
        assert cold.cache_hits == 0
        assert warm.cache_hits == len(SEEDS) * len(BUDGETS)
        assert warm.cache_misses == 0

    def test_warm_cache_under_parallel_backend(self, fig2b_serial, tmp_path):
        fig2b_seed_sweep(CONFIG, seeds=SEEDS, budgets=BUDGETS, cache_dir=tmp_path)
        warm = fig2b_seed_sweep(
            CONFIG, seeds=SEEDS, budgets=BUDGETS,
            cache_dir=tmp_path, workers=WORKERS,
        )
        assert warm.to_json() == fig2b_serial.to_json()
        assert warm.cache_misses == 0

    def test_payload_is_canonical_json(self, fig2b_serial):
        text = fig2b_serial.to_json()
        assert json.dumps(json.loads(text), sort_keys=True) == text


class TestTable5Sweep:
    def test_backend_equivalence(self, table5_serial):
        parallel = table5_budget_sweep(
            CONFIG, budgets=BUDGETS, top=5, workers=WORKERS
        )
        assert parallel.to_json() == table5_serial.to_json()

    def test_kernel_counters_match_serial(self):
        serial = _kernel_moves(table5_budget_sweep, budgets=BUDGETS, top=5)
        pooled = _kernel_moves(
            table5_budget_sweep, budgets=BUDGETS, top=5, workers=WORKERS
        )
        assert serial["kernel.saturated_connectivity.calls"] == len(BUDGETS)
        assert pooled == serial

    def test_cold_warm_bit_identity(self, table5_serial, tmp_path):
        cold = table5_budget_sweep(CONFIG, budgets=BUDGETS, top=5, cache_dir=tmp_path)
        warm = table5_budget_sweep(CONFIG, budgets=BUDGETS, top=5, cache_dir=tmp_path)
        assert cold.to_json() == warm.to_json() == table5_serial.to_json()
        assert warm.cache_hits == len(BUDGETS)


class TestReplayMany:
    @pytest.fixture(scope="class")
    def setup(self):
        graph = fixtures.internet("tiny", 1)
        brokers = list(fixtures.maxsg_brokers("tiny", 1, 12))
        schedules = [
            independent_crashes(brokers, num_steps=4, crash_prob=0.3, seed=s)
            for s in (1, 2, 3)
        ]
        return graph, brokers, schedules

    def test_backend_equivalence(self, setup):
        graph, brokers, schedules = setup
        serial = replay_many(graph, brokers, schedules)
        parallel = replay_many(graph, brokers, schedules, workers=WORKERS)
        assert json.dumps(serial.payload, sort_keys=True) == json.dumps(
            parallel.payload, sort_keys=True
        )
        assert serial.reports == parallel.reports

    def test_cold_warm_bit_identity(self, setup, tmp_path):
        graph, brokers, schedules = setup
        cold = replay_many(graph, brokers, schedules, cache_dir=tmp_path)
        warm = replay_many(graph, brokers, schedules, cache_dir=tmp_path)
        assert json.dumps(cold.payload, sort_keys=True) == json.dumps(
            warm.payload, sort_keys=True
        )
        assert cold.cache_misses == len(schedules)
        assert warm.cache_hits == len(schedules)

    def test_reports_match_direct_replay(self, setup):
        from repro.resilience import replay_schedule

        graph, brokers, schedules = setup
        sweep = replay_many(graph, brokers, schedules)
        assert sweep.reports[0] == replay_schedule(graph, brokers, schedules[0])
