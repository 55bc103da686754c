"""The orphan registry must surface through metrics and the exit hook.

Regression tests for the silent-orphan bug: ``run_with_timeout`` recorded
abandoned daemon workers in a private registry that nothing ever read —
now every timeout bumps ``runner.timeouts``, the live orphan count is
exported as the ``parallel.orphan_count`` gauge, and a warning is logged
at process exit while any orphan is still running.
"""

import logging
import threading

import pytest

from repro.exceptions import ExperimentTimeoutError
from repro.obs import get_registry
from repro.parallel.executor import (
    _warn_orphans_at_exit,
    orphaned_worker_count,
    run_with_timeout,
)


pytestmark = pytest.mark.usefixtures("fresh_orphan_registry")


@pytest.fixture()
def release():
    """Event that lets this test's orphaned workers finish before teardown."""
    event = threading.Event()
    yield event
    event.set()
    # Give the daemon worker a beat to exit so later tests see zero orphans.
    for _ in range(50):
        if orphaned_worker_count() == 0:
            break
        threading.Event().wait(0.01)


def test_timeout_updates_counter_and_gauge(release):
    registry = get_registry()
    before_timeouts = registry.counter("runner.timeouts").value
    with pytest.raises(ExperimentTimeoutError):
        run_with_timeout(release.wait, timeout=0.05, name="stuck")
    assert registry.counter("runner.timeouts").value == before_timeouts + 1
    assert orphaned_worker_count() >= 1
    assert registry.gauge("parallel.orphan_count").value >= 1


def test_gauge_drops_back_to_zero_after_worker_exits(release):
    with pytest.raises(ExperimentTimeoutError):
        run_with_timeout(release.wait, timeout=0.05, name="stuck")
    release.set()
    for _ in range(100):
        if orphaned_worker_count() == 0:
            break
        threading.Event().wait(0.01)
    assert orphaned_worker_count() == 0
    assert get_registry().gauge("parallel.orphan_count").value == 0


def test_exit_hook_warns_while_orphans_alive(release, caplog):
    with pytest.raises(ExperimentTimeoutError):
        run_with_timeout(release.wait, timeout=0.05, name="stuck")
    with caplog.at_level(logging.WARNING, logger="repro.parallel"):
        _warn_orphans_at_exit()
    assert any("timed-out worker" in r.message for r in caplog.records)


def test_exit_hook_silent_with_no_orphans(caplog):
    assert orphaned_worker_count() == 0
    with caplog.at_level(logging.WARNING, logger="repro.parallel"):
        _warn_orphans_at_exit()
    assert not caplog.records


def test_successful_run_records_no_timeout():
    registry = get_registry()
    before = registry.counter("runner.timeouts").value
    assert run_with_timeout(lambda: 42, timeout=5.0) == 42
    assert registry.counter("runner.timeouts").value == before
