"""Task execution for experiment sweeps: in the caller or a process pool.

:func:`parallel_map` runs one function over many items.  The worker
count is the only execution setting: ``workers=1`` runs a plain loop in
the calling process, and ``workers > 1`` runs a
:class:`~concurrent.futures.ProcessPoolExecutor` (the task function and
items must be picklable).  Results come back in item order either way,
so a task that carries its own seed gives the same answer on both paths
and under any chunking.  Failures are captured per task as
:class:`TaskFailure` records that convert directly into the experiment
runner's ``ExperimentFailure`` machinery instead of aborting the whole
sweep.

Tracing crosses the process boundary.  When a :class:`~repro.obs.Tracer`
is active, the whole map runs under one ``parallel.map`` span and each
task gets a ``parallel.task`` child.  Pool workers cannot see the
parent's tracer object, so the map span's
:class:`~repro.obs.TraceContext` is serialized into a *trace envelope*
handed to :func:`_run_chunk`; each worker opens a local tracer whose
spans are appended to a per-process JSONL shard in the active tracer's
``shard_dir`` (merged back into the main trace by
:mod:`repro.obs.collect`).  Without a ``shard_dir`` worker-side spans
are simply not collected.

:func:`run_with_timeout` is the wall-clock guard used by the hardened
experiment runner.  It runs the task on a *daemon* thread, records
abandoned workers in an orphan registry, and never makes a later task
wait behind a timed-out one.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import math
import threading
import time
import traceback as _traceback
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.exceptions import ExperimentTimeoutError, ReproError
from repro.obs import add_counter, get_logger, get_tracer, observe, set_gauge

_log = get_logger("parallel")


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task that raised (or died) in a sweep."""

    index: int
    item_repr: str
    error_type: str
    message: str
    traceback: str = ""

    def as_experiment_failure(
        self, experiment_id: str | None = None, *, attempts: int = 1,
        elapsed: float = 0.0,
    ):
        """Convert into the batch runner's ``ExperimentFailure`` record."""
        from repro.experiments.runner import ExperimentFailure

        return ExperimentFailure(
            experiment_id=experiment_id
            if experiment_id is not None
            else f"task[{self.index}]",
            attempts=attempts,
            error_type=self.error_type,
            message=self.message,
            elapsed=elapsed,
        )


@dataclass(frozen=True)
class ParallelResult:
    """Outcome of a :func:`parallel_map` call.

    ``results[i]`` holds task ``i``'s return value, or ``None`` when the
    task failed; failed tasks are described in ``failures`` (sorted by
    task index).
    """

    results: list
    failures: tuple[TaskFailure, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def values(self) -> list:
        """All results, raising if any task failed."""
        if self.failures:
            first = self.failures[0]
            raise ReproError(
                f"task {first.index} ({first.item_repr}) failed: "
                f"{first.error_type}: {first.message}"
            )
        return list(self.results)


def _chunk_bounds(total: int, chunk_size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk_size, total)) for lo in range(0, total, chunk_size)]


def _execute_tasks(
    fn: Callable,
    indexed_items: Sequence[tuple[int, Any]],
    capture_errors: bool,
) -> list[tuple[int, bool, Any, float]]:
    """The task loop shared by the caller and the pool workers."""
    tracer = get_tracer()
    out: list[tuple[int, bool, Any, float]] = []
    for index, item in indexed_items:
        started = time.perf_counter()
        with tracer.span("parallel.task", index=index):
            try:
                value = fn(item)
            except Exception as exc:  # noqa: BLE001 — captured per task
                if not capture_errors:
                    raise
                out.append(
                    (
                        index,
                        False,
                        (type(exc).__name__, str(exc), _traceback.format_exc()),
                        time.perf_counter() - started,
                    )
                )
            else:
                out.append((index, True, value, time.perf_counter() - started))
    return out


def _run_chunk(
    fn: Callable,
    indexed_items: Sequence[tuple[int, Any]],
    capture_errors: bool,
    submitted_at: float | None = None,
    trace_envelope: dict | None = None,
) -> tuple[list[tuple[int, bool, Any, float]], float]:
    """Execute one chunk; returns ``(results, queue_seconds)``.

    Each result is ``(index, ok, value_or_failure_tuple, task_seconds)``.
    Runs in the worker (possibly another process), so failures are
    returned as plain picklable tuples rather than exception objects.
    ``queue_seconds`` is how long the chunk waited between submission and
    its first task starting (``time.monotonic`` is system-wide on the
    platforms the process pool targets; clamped at zero otherwise).

    ``trace_envelope`` (pool workers only) is
    ``{"context": TraceContext dict, "shard_dir": path}``: the chunk
    runs under a fresh worker-local tracer with a ``parallel.chunk``
    span parented at the serialized context, and the collected spans are
    appended to the worker's shard file before returning.
    """
    queue_seconds = (
        max(0.0, time.monotonic() - submitted_at)
        if submitted_at is not None
        else 0.0
    )
    if trace_envelope is None:
        return _execute_tasks(fn, indexed_items, capture_errors), queue_seconds

    from repro.obs.tracer import TraceContext, Tracer, use_tracer

    shard_tracer = Tracer()
    parent = TraceContext.from_dict(trace_envelope["context"])
    try:
        with use_tracer(shard_tracer):
            with shard_tracer.span(
                "parallel.chunk",
                parent=parent,
                tasks=len(indexed_items),
                queue_seconds=round(queue_seconds, 6),
            ):
                out = _execute_tasks(fn, indexed_items, capture_errors)
    finally:
        try:
            shard_tracer.export_shard(trace_envelope["shard_dir"])
        except OSError:  # pragma: no cover - shard dir vanished mid-run
            _log.warning("failed to write trace shard", exc_info=True)
    return out, queue_seconds


def parallel_map(
    fn: Callable,
    items: Iterable,
    *,
    workers: int = 1,
    chunk_size: int | None = None,
    capture_errors: bool = False,
    initializer: Callable | None = None,
    initargs: tuple = (),
) -> ParallelResult:
    """Map ``fn`` over ``items``, in the caller or in a process pool.

    Parameters
    ----------
    fn:
        Called as ``fn(item)``.  Must be picklable (module-level) when
        ``workers > 1``.
    workers:
        ``1`` runs the tasks in the calling process; more runs a
        :class:`~concurrent.futures.ProcessPoolExecutor` of that size.
        Both give identical results in item order.
    chunk_size:
        Items per submitted future in the pool (default: ~4 chunks per
        worker); amortizes IPC overhead.
    capture_errors:
        When true, a raising (or crashing) task becomes a
        :class:`TaskFailure` and the rest of the sweep continues; when
        false the first error propagates.
    initializer, initargs:
        Per-worker setup hook (e.g. attaching a shared-memory graph).
        With ``workers=1`` the initializer runs once in the caller.
    """
    items = list(items)
    total = len(items)
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers}")

    results: list = [None] * total
    failures: list[TaskFailure] = []
    tracer = get_tracer()

    def absorb(chunk: tuple[list[tuple[int, bool, Any, float]], float]) -> None:
        chunk_out, queue_seconds = chunk
        if chunk_out:
            observe("parallel.queue_seconds", queue_seconds)
        for index, ok, value, task_seconds in chunk_out:
            add_counter("parallel.tasks")
            observe("parallel.task_seconds", task_seconds)
            if ok:
                results[index] = value
            else:
                add_counter("parallel.task_failures")
                error_type, message, tb = value
                failures.append(
                    TaskFailure(
                        index=index,
                        item_repr=repr(items[index])[:200],
                        error_type=error_type,
                        message=message,
                        traceback=tb,
                    )
                )

    with tracer.span("parallel.map", workers=workers, tasks=total) as map_span:
        if workers == 1 or total == 0:
            if initializer is not None:
                initializer(*initargs)
            absorb(_run_chunk(fn, list(enumerate(items)), capture_errors))
            failures.sort(key=lambda f: f.index)
            return ParallelResult(results=results, failures=tuple(failures))

        # Pool workers cannot see the parent tracer; hand them the map
        # span's serialized context plus a shard directory to append
        # their spans to (only when the active tracer opted in).
        envelope = None
        if tracer.enabled and getattr(tracer, "shard_dir", None):
            envelope = {
                "context": map_span.context.to_dict(),
                "shard_dir": tracer.shard_dir,
            }

        if chunk_size is None:
            chunk_size = max(1, math.ceil(total / (workers * 4)))
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=initializer, initargs=initargs
        ) as pool:
            futures = {
                pool.submit(
                    _run_chunk,
                    fn,
                    [(i, items[i]) for i in range(lo, hi)],
                    capture_errors,
                    time.monotonic(),
                    envelope,
                ): (lo, hi)
                for lo, hi in _chunk_bounds(total, chunk_size)
            }
            for fut in concurrent.futures.as_completed(futures):
                lo, hi = futures[fut]
                try:
                    absorb(fut.result())
                except Exception as exc:  # noqa: BLE001 — BrokenProcessPool
                    if not capture_errors:
                        raise
                    for i in range(lo, hi):
                        failures.append(
                            TaskFailure(
                                index=i,
                                item_repr=repr(items[i])[:200],
                                error_type=type(exc).__name__,
                                message=str(exc),
                            )
                        )
        failures.sort(key=lambda f: f.index)
        return ParallelResult(results=results, failures=tuple(failures))


# ----------------------------------------------------------------------
# Wall-clock timeouts without leaking non-daemon threads
# ----------------------------------------------------------------------

_orphan_lock = threading.Lock()
_orphans: list[threading.Thread] = []


def _record_orphan(thread: threading.Thread) -> None:
    with _orphan_lock:
        _orphans.append(thread)
        # Compact: forget orphans that have since finished on their own.
        _orphans[:] = [t for t in _orphans if t.is_alive()]
        set_gauge("parallel.orphan_count", len(_orphans))


def orphaned_worker_count() -> int:
    """Daemon workers abandoned by a timeout that are still running."""
    with _orphan_lock:
        _orphans[:] = [t for t in _orphans if t.is_alive()]
        count = len(_orphans)
    set_gauge("parallel.orphan_count", count)
    return count


def _warn_orphans_at_exit() -> None:
    """Surface leaked timeout workers instead of dropping them silently.

    Registered with :mod:`atexit`; orphan threads are daemons so they never
    block shutdown, but a non-zero count at exit means some timed-out task
    was still burning CPU the whole run.
    """
    count = orphaned_worker_count()
    if count:
        _log.warning(
            "%d timed-out worker thread(s) still running at exit; "
            "their experiments kept consuming CPU after their results "
            "were discarded",
            count,
        )


atexit.register(_warn_orphans_at_exit)


def run_with_timeout(
    fn: Callable,
    args: tuple = (),
    *,
    timeout: float | None = None,
    name: str = "task",
):
    """Run ``fn(*args)`` bounded by ``timeout`` wall-clock seconds.

    The task runs on a dedicated *daemon* thread; on timeout the thread
    is abandoned (Python threads cannot be killed), registered in the
    orphan registry for observability, and an
    :class:`ExperimentTimeoutError` is raised immediately.  Because each
    call gets a fresh daemon thread, a timed-out task never delays
    subsequent tasks and never blocks interpreter shutdown.
    """
    if timeout is None:
        return fn(*args)
    if not (math.isfinite(timeout) and timeout > 0):
        raise ReproError(f"timeout must be finite and positive, got {timeout}")
    box: dict[str, Any] = {}
    done = threading.Event()

    def target() -> None:
        try:
            box["value"] = fn(*args)
        except BaseException as exc:  # noqa: BLE001 — re-raised in caller
            box["error"] = exc
        finally:
            done.set()

    thread = threading.Thread(
        target=target, name=f"repro-timeout-{name}", daemon=True
    )
    thread.start()
    if not done.wait(timeout):
        add_counter("runner.timeouts")
        _record_orphan(thread)
        raise ExperimentTimeoutError(
            f"experiment {name!r} exceeded {timeout:g}s wall-clock budget"
        )
    if "error" in box:
        raise box["error"]
    return box.get("value")
