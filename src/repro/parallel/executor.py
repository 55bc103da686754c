"""Task execution for experiment sweeps: in the caller or a process pool.

:func:`parallel_map` runs one function over many items.  The worker
count is the only execution setting: ``workers=1`` runs a plain loop in
the calling process, and ``workers > 1`` runs a
:class:`~concurrent.futures.ProcessPoolExecutor` (the task function and
items must be picklable).  Results come back in item order either way,
so a task that carries its own seed gives the same answer on both paths
and under any chunking.  Failures are captured per task as
:class:`TaskFailure` records instead of aborting the whole sweep.

What a pool worker measured comes home with its chunk's results, so a
sweep reports the same counters and spans on both paths.  Each chunk
runs inside :func:`~repro.obs.metrics.counter_moves`, and the parent
adds those moves to its own registry.  When a :class:`~repro.obs.Tracer`
is active, the whole map runs under one ``parallel.map`` span; its
serialized :class:`~repro.obs.TraceContext` goes with every chunk, the
worker records a ``parallel.chunk`` span (with one ``parallel.task``
child per task) under a tracer of its own, and the parent's
:meth:`~repro.obs.Tracer.absorb` re-times those spans onto its clock.
Histograms and gauges recorded in a worker stay there.  A chunk that
raises under ``capture_errors=False`` brings nothing home, because the
map aborts on it, and neither does a chunk whose worker died.

:func:`run_with_timeout` is the wall-clock guard used by the hardened
experiment runner.  It runs the task on a *daemon* thread, records
abandoned workers in an orphan registry, and never makes a later task
wait behind a timed-out one.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import contextvars
import math
import threading
import time
import traceback as _traceback
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.exceptions import ExperimentTimeoutError, ReproError
from repro.obs import (
    TraceContext,
    Tracer,
    add_counter,
    counter_moves,
    get_logger,
    get_tracer,
    observe,
    set_gauge,
    use_tracer,
)

_log = get_logger("parallel")


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task that raised (or died) in a sweep."""

    index: int
    item_repr: str
    error_type: str
    message: str
    traceback: str = ""


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
    submitted_at: float,
    context: dict | None,
) -> tuple[list[tuple[int, bool, Any, float]], float, dict, list[dict], float]:
    """A pool worker's entry point: run one chunk and pack what it measured.

    Returns ``(results, queue_seconds, counter_moves, span_records,
    wall_epoch)``.  Each result is ``(index, ok, value_or_failure_tuple,
    task_seconds)``; failures are plain picklable tuples rather than
    exception objects.  ``queue_seconds`` is how long the chunk waited
    between submission and its first task starting (``time.monotonic``
    is system-wide on the platforms the process pool targets; clamped at
    zero otherwise).  ``counter_moves`` is how far the chunk moved each
    counter.  ``context`` is the parent's ``parallel.map`` span context,
    or ``None`` when the parent is not tracing; when set, the chunk runs
    under a fresh tracer with a ``parallel.chunk`` span parented there,
    and ``span_records`` / ``wall_epoch`` are that tracer's records and
    clock.
    """
    queue_seconds = max(0.0, time.monotonic() - submitted_at)
    if context is None:
        with counter_moves() as moves:
            out = _execute_tasks(fn, indexed_items, capture_errors)
        return out, queue_seconds, moves, [], 0.0
    tracer = Tracer()
    with counter_moves() as moves, use_tracer(tracer), tracer.span(
        "parallel.chunk",
        parent=TraceContext.from_dict(context),
        tasks=len(indexed_items),
        queue_seconds=round(queue_seconds, 6),
    ):
        out = _execute_tasks(fn, indexed_items, capture_errors)
    return out, queue_seconds, moves, tracer.records, tracer.wall_epoch


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

    def absorb(chunk: tuple) -> None:
        """Take one chunk: its counter moves and spans, then its results."""
        chunk_out, queue_seconds, moves, spans, wall_epoch = chunk
        for name, moved in moves.items():
            add_counter(name, moved)
        if spans:
            tracer.absorb(spans, wall_epoch)
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
            # Counters and spans land in the caller as the tasks run.
            out = _execute_tasks(fn, list(enumerate(items)), capture_errors)
            absorb((out, 0.0, {}, [], 0.0))
            failures.sort(key=lambda f: f.index)
            return ParallelResult(results=results, failures=tuple(failures))

        # Pool workers cannot see the parent tracer; hand them the map
        # span's serialized context instead.
        context = map_span.context.to_dict() if tracer.enabled else None

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
                    context,
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

    # The thread runs in a copy of the caller's context, so spans the
    # task opens nest under the caller's open span.
    thread = threading.Thread(
        target=contextvars.copy_context().run,
        args=(target,),
        name=f"repro-timeout-{name}",
        daemon=True,
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
