"""Unit tests for the parallel executor: in the caller or a process pool."""

import math
import time

import numpy as np
import pytest

from repro.exceptions import ExperimentTimeoutError, ReproError
from repro.parallel.executor import (
    ParallelResult,
    TaskFailure,
    orphaned_worker_count,
    parallel_map,
    run_with_timeout,
)

#: ``workers=1`` runs in the caller; more runs a process pool.
WORKER_PATHS = pytest.mark.parametrize(
    "workers", [1, 3], ids=["serial", "process"]
)


# Module-level workers so the process pool can pickle them.
def _square(x):
    return x * x


def _noisy(task):
    """A seeded task: it carries its own seed, as every sweep cell does."""
    x, seed = task
    return x + float(np.random.default_rng(seed).random())


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x * 10


def _sleep_then(x):
    time.sleep(x)
    return x


class TestParallelMap:
    @WORKER_PATHS
    def test_backends_match_serial(self, workers):
        items = list(range(13))
        got = parallel_map(_square, items, workers=workers).values()
        assert got == [x * x for x in items]

    @WORKER_PATHS
    def test_seeded_backends_match_serial(self, workers):
        items = [(x, 42 + x) for x in range(9)]
        expected = [_noisy(task) for task in items]
        got = parallel_map(_noisy, items, workers=workers).values()
        assert got == expected

    def test_chunking_does_not_change_results(self):
        items = [(x, 7 + x) for x in range(10)]
        baseline = parallel_map(_noisy, items).values()
        for chunk_size in (1, 3, 10):
            got = parallel_map(
                _noisy, items, workers=2, chunk_size=chunk_size
            ).values()
            assert got == baseline

    def test_empty_items(self):
        result = parallel_map(_square, [])
        assert result.ok
        assert result.values() == []

    def test_bad_workers(self):
        with pytest.raises(ReproError, match="workers"):
            parallel_map(_square, [1], workers=0)

    @WORKER_PATHS
    def test_error_capture(self, workers):
        result = parallel_map(
            _fail_on_three, [1, 2, 3, 4], workers=workers,
            chunk_size=1, capture_errors=True,
        )
        assert not result.ok
        assert result.results == [10, 20, None, 40]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.index == 2
        assert failure.error_type == "ValueError"
        assert "three is right out" in failure.message

    def test_values_raises_on_failure(self):
        result = parallel_map(_fail_on_three, [3], capture_errors=True)
        with pytest.raises(ReproError, match="ValueError"):
            result.values()

    def test_error_propagates_without_capture(self):
        with pytest.raises(ValueError, match="three"):
            parallel_map(_fail_on_three, [1, 3])

    def test_failure_converts_to_experiment_failure(self):
        """The runner builds its ExperimentFailure from these fields."""
        result = parallel_map(_fail_on_three, [3], capture_errors=True)
        (failure,) = result.failures
        assert failure.item_repr == "3"
        assert failure.error_type == "ValueError"
        assert failure.message == "three is right out"
        assert "ValueError: three is right out" in failure.traceback

    def test_serial_initializer_runs(self):
        seen = []
        parallel_map(_square, [1], initializer=seen.append, initargs=("x",))
        assert seen == ["x"]


class TestRunWithTimeout:
    def test_no_timeout_runs_inline(self):
        assert run_with_timeout(_square, (6,)) == 36

    def test_within_budget(self):
        assert run_with_timeout(_sleep_then, (0.01,), timeout=5.0) == 0.01

    def test_timeout_raises(self):
        with pytest.raises(ExperimentTimeoutError, match="budget"):
            run_with_timeout(_sleep_then, (5.0,), timeout=0.05, name="slow")

    def test_error_propagates(self):
        with pytest.raises(ValueError, match="three"):
            run_with_timeout(_fail_on_three, (3,), timeout=5.0)

    def test_invalid_timeout(self):
        with pytest.raises(ReproError, match="positive"):
            run_with_timeout(_square, (1,), timeout=0)

    @pytest.mark.parametrize("timeout", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_timeout_starts_no_worker(self, timeout):
        before = orphaned_worker_count()
        with pytest.raises(ReproError, match="finite and positive"):
            run_with_timeout(_sleep_then, (0.5,), timeout=timeout)
        assert orphaned_worker_count() <= before

    def test_timed_out_task_does_not_delay_next(self):
        """The old pooled implementation made task N+1 wait for a leaked

        worker from task N; the daemon-thread design must not.
        """
        with pytest.raises(ExperimentTimeoutError):
            run_with_timeout(_sleep_then, (3.0,), timeout=0.05)
        start = time.monotonic()
        assert run_with_timeout(_square, (2,), timeout=5.0) == 4
        assert time.monotonic() - start < 1.0

    def test_orphan_registry_tracks_abandoned_worker(
        self, fresh_orphan_registry
    ):
        with pytest.raises(ExperimentTimeoutError):
            run_with_timeout(_sleep_then, (0.5,), timeout=0.05)
        assert orphaned_worker_count() == 1
        time.sleep(0.6)  # the abandoned worker finishes on its own
        assert orphaned_worker_count() == 0
