"""Context-propagated span tracing with JSON-lines export (schema v2).

The tracing model stays deliberately tiny — a :class:`Tracer` collects
finished span records; a span is opened with :meth:`Tracer.span` (a
context manager), nests under the *current trace context*, and on exit
appends one record with monotonic start/duration timings.  What changed
in schema v2 is **where the current context lives**: a
:class:`contextvars.ContextVar` instead of a per-thread stack, so every
asyncio task gets an independent span stack (two tasks interleaving on
one thread can no longer mis-parent each other's spans) and the context
is an explicit, serializable value — :class:`TraceContext` with
``trace_id`` / ``span_id`` / ``parent_id`` — that can be carried across
process boundaries.  The parallel executor hands it to each pool chunk;
the worker records the chunk's spans under a tracer of its own and
sends them back with the chunk's results, and the parent's
:meth:`Tracer.absorb` moves them onto its own clock.

Span ids are strings of the form ``"<prefix>.<n>"`` where the prefix is
unique per tracer (pid + random suffix), so ids from different
processes never collide and absorbed spans need no renumbering.  Every
root span (opened with no enclosing context) starts a fresh
``trace_id``; children inherit it — one loadgen query, one trace.

:meth:`Tracer.to_jsonl` emits the whole trace as JSON lines: one
``meta`` record (run metadata, schema version, the wall-clock epoch the
monotonic ``start`` offsets are anchored to) followed by one record per
span or event, children *before* their parents because records are
written at span close (see docs/observability.md for the schema).

The hot-path contract is unchanged: the process-wide default tracer is
a :class:`NullTracer` whose :meth:`~NullTracer.span` returns one shared,
stateless context manager — instrumented kernels pay a single attribute
check (or one no-op ``with`` per *iteration*, never per inner-loop
evaluation), which the overhead-guard benchmark pins at < 3 %.
Activation is explicit: ``set_tracer(Tracer(...))`` or the
:func:`use_tracer` context manager (what the CLI's ``--trace-out`` and
``repro trace`` do).
"""

from __future__ import annotations

import contextvars
import itertools
import json
import logging
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro._version import __version__
from repro.obs.log import get_logger

_log = get_logger("tracer")

#: Version of the JSONL trace layout (meta record ``schema`` field).
TRACE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class TraceContext:
    """The serializable position of "here" inside a distributed trace.

    ``trace_id`` names the whole tree (one per request / root span),
    ``span_id`` the innermost open span, ``parent_id`` that span's own
    parent.  A context round-trips through :meth:`to_dict` /
    :meth:`from_dict`, which is how the parallel executor carries it
    into worker processes and the serving tier pins batch-flushed work
    back onto the submitting request's span.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceContext":
        return cls(
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_id=data.get("parent_id"),
        )


#: The ambient trace context.  A ContextVar so asyncio tasks (which run
#: in copies of their creator's context) get independent span stacks —
#: thread-locals interleaved spans of concurrent tasks on one loop.
_CONTEXT: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_context", default=None
)


def current_context() -> TraceContext | None:
    """The ambient :class:`TraceContext` (``None`` outside any span)."""
    return _CONTEXT.get()


@contextmanager
def use_span_context(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Scoped override of the ambient context (cross-task/process adoption)."""
    token = _CONTEXT.set(ctx)
    try:
        yield ctx
    finally:
        try:
            _CONTEXT.reset(token)
        except ValueError:  # pragma: no cover - reset from another context
            pass


class NullSpan:
    """Shared do-nothing span; the disabled-path cost of instrumentation."""

    __slots__ = ()

    #: Mirrors :attr:`Span.context` so guarded call sites stay branch-free.
    context = None

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "NullSpan":
        return self

    def start(self) -> "NullSpan":
        return self

    def finish(self) -> "NullSpan":
        return self


_NULL_SPAN = NullSpan()


class NullTracer:
    """Default tracer: every operation is a no-op.

    ``enabled`` is ``False`` so instrumented code can skip attribute
    computation entirely; calling :meth:`span` anyway is still safe and
    returns the shared :class:`NullSpan`.
    """

    enabled = False

    def span(self, name: str, **attrs: Any) -> NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    @property
    def records(self) -> list[dict]:
        return []


class Span:
    """One open span; created by :meth:`Tracer.span`, closed by ``with``.

    Two lifecycles are supported:

    * ``with tracer.span(...)`` — the span becomes the ambient context
      for its body (children nest automatically);
    * explicit :meth:`start` / :meth:`finish` — for spans whose open and
      close happen in *different* contexts (e.g. a serving request span
      opened at submit time and finished when its batch flushes).  These
      never touch the ambient context; children attach via an explicit
      ``parent=span.context``.
    """

    __slots__ = (
        "_tracer", "name", "trace_id", "span_id", "parent_id", "attrs",
        "_t0", "_token",
    )

    def __init__(
        self, tracer: "Tracer", name: str, trace_id: str, span_id: str,
        parent_id: str | None, attrs: dict,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self._t0 = 0
        self._token: contextvars.Token | None = None

    @property
    def context(self) -> TraceContext:
        """This span's position, for explicit propagation to children."""
        return TraceContext(self.trace_id, self.span_id, self.parent_id)

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes before the span closes."""
        self.attrs.update(attrs)
        return self

    # ------------------------------------------------------------------
    # Explicit lifecycle (no ambient-context mutation)
    # ------------------------------------------------------------------
    def start(self) -> "Span":
        self._t0 = time.perf_counter_ns()
        return self

    def finish(self) -> "Span":
        self._tracer._record_span(self, time.perf_counter_ns() - self._t0)
        return self

    # ------------------------------------------------------------------
    # Context-manager lifecycle (span becomes the ambient context)
    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._token = _CONTEXT.set(self.context)
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        if self._token is not None:
            try:
                _CONTEXT.reset(self._token)
            except ValueError:  # pragma: no cover - exited in another context
                pass
            self._token = None
        self.finish()
        return False


class Tracer:
    """Collects spans from any number of threads and tasks, and (through
    :meth:`absorb`) from other processes.

    ``metadata`` (seed, scale, command, ...) is carried into the trace's
    leading ``meta`` record.  Span parenthood follows the ambient
    :class:`TraceContext` (a contextvar — concurrent asyncio tasks and
    threads each see their own), or an explicit ``parent=`` override.
    Ids carry a per-tracer prefix unique across processes.
    """

    enabled = True

    def __init__(self, metadata: dict | None = None) -> None:
        self.metadata = dict(metadata or {})
        self._records: list[dict] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._prefix = f"{os.getpid():x}-{os.urandom(3).hex()}"
        # One wall-clock/monotonic epoch pair: record starts are offsets
        # from _epoch; wall_epoch lets absorb() align records from
        # tracers whose monotonic clocks (other processes) differ.
        self._epoch = time.perf_counter_ns()
        self.wall_epoch = time.time()

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        with self._lock:
            return f"{self._prefix}.{next(self._ids)}"

    def _record_span(self, span: Span, dur_ns: int) -> None:
        record = {
            "type": "span",
            "name": span.name,
            "id": span.span_id,
            "trace": span.trace_id,
            "parent": span.parent_id,
            "start": (span._t0 - self._epoch) / 1e9,
            "dur": dur_ns / 1e9,
            "attrs": span.attrs,
        }
        with self._lock:
            self._records.append(record)
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "span closed",
                extra={"span": span.name, "dur": round(dur_ns / 1e9, 6)},
            )

    def span(
        self, name: str, *, parent: TraceContext | None = None, **attrs: Any
    ) -> Span:
        """Open a span under ``parent`` (default: the ambient context).

        With neither, the span roots a **new trace** — it gets a fresh
        ``trace_id`` that all its descendants inherit.
        """
        ctx = parent if parent is not None else _CONTEXT.get()
        span_id = self._next_id()
        if ctx is None:
            trace_id, parent_id = f"t{span_id}", None
        else:
            trace_id, parent_id = ctx.trace_id, ctx.span_id
        return Span(self, name, trace_id, span_id, parent_id, dict(attrs))

    def event(
        self, name: str, *, parent: TraceContext | None = None, **attrs: Any
    ) -> None:
        """Record a zero-duration point event under the current span."""
        ctx = parent if parent is not None else _CONTEXT.get()
        span_id = self._next_id()
        record = {
            "type": "event",
            "name": name,
            "id": span_id,
            "trace": ctx.trace_id if ctx is not None else f"t{span_id}",
            "parent": ctx.span_id if ctx is not None else None,
            "start": (time.perf_counter_ns() - self._epoch) / 1e9,
            "dur": 0.0,
            "attrs": dict(attrs),
        }
        with self._lock:
            self._records.append(record)

    def absorb(self, records: list[dict], wall_epoch: float) -> None:
        """Append records finished by another tracer (a pool worker's).

        Their ``start`` offsets count from that tracer's epoch, whose
        wall-clock time is ``wall_epoch``; each is shifted by
        ``wall_epoch − self.wall_epoch`` onto this tracer's timeline.
        Monotonic clocks are not comparable across processes, so the
        alignment is as good as wall-clock sampling jitter (micro- to
        milliseconds).
        """
        shift = wall_epoch - self.wall_epoch
        shifted = [dict(r, start=r["start"] + shift) for r in records]
        with self._lock:
            self._records.extend(shifted)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    @property
    def records(self) -> list[dict]:
        """Finished span/event records, in completion order."""
        with self._lock:
            return list(self._records)

    def aggregate(self) -> dict[str, tuple[int, float]]:
        """``{span name: (count, total seconds)}`` over finished spans."""
        out: dict[str, tuple[int, float]] = {}
        for record in self.records:
            count, total = out.get(record["name"], (0, 0.0))
            out[record["name"]] = (count + 1, total + record["dur"])
        return out

    def to_jsonl(self) -> str:
        """The full trace as JSON lines (``meta`` record first).

        The ``meta`` record embeds a snapshot of the process-wide
        metrics registry, so one trace file carries both the span tree
        and the counters/histograms the traced run accumulated.
        """
        from repro.obs.metrics import get_registry

        meta = {
            "type": "meta",
            "schema": TRACE_SCHEMA_VERSION,
            "version": __version__,
            "metadata": self.metadata,
            "prefix": self._prefix,
            "wall_epoch": self.wall_epoch,
            "num_records": len(self.records),
            "metrics": get_registry().snapshot(),
        }
        lines = [json.dumps(meta, sort_keys=True, default=str)]
        lines.extend(
            json.dumps(r, sort_keys=True, default=str) for r in self.records
        )
        return "\n".join(lines) + "\n"

    def export(self, path: str | Path) -> int:
        """Write the JSONL trace to ``path``; returns the record count."""
        Path(path).write_text(self.to_jsonl())
        return len(self.records)


# ----------------------------------------------------------------------
# Process-wide active tracer
# ----------------------------------------------------------------------

_active: NullTracer | Tracer = NullTracer()


def get_tracer() -> NullTracer | Tracer:
    """The process-wide active tracer (a :class:`NullTracer` by default)."""
    return _active


def set_tracer(tracer: NullTracer | Tracer) -> NullTracer | Tracer:
    """Install ``tracer`` as the active tracer; returns the previous one."""
    global _active
    previous = _active
    _active = tracer
    return previous


@contextmanager
def use_tracer(tracer: NullTracer | Tracer) -> Iterator[NullTracer | Tracer]:
    """Scoped :func:`set_tracer` — restores the previous tracer on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
