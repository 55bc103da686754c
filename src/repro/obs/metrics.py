"""Counters, gauges and histograms for the selection/experiment stack.

One process-wide :class:`MetricsRegistry` (see :func:`get_registry`)
accumulates everything the instrumented layers report: marginal-gain
evaluations and lazy-heap re-pops in the selection kernels, BFS node
visits, cache hits/misses, retry/timeout counts and parallel-task
wall/queue times.  Metrics collection is **on by default** because every
call site aggregates locally and flushes a handful of values per kernel
*call* (never per inner-loop iteration), so the steady-state cost is a
few dict operations per algorithm invocation.

The module-level helpers (:func:`add_counter`, :func:`observe`,
:func:`set_gauge`) are the preferred call-site API: they respect the
global enable flag (:func:`set_metrics_enabled` — what the overhead
benchmark toggles to measure the instrumentation itself) and serialize
updates, so kernels running on executor worker threads can flush safely.
Worker *processes* have their own registry.  :func:`counter_moves`
measures what a block moved, which is how a process-pool chunk carries
its counters home to the parent (``repro.parallel.parallel_map``).
Histograms and gauges recorded in a worker stay there: a histogram past
:data:`EXACT_SAMPLE_CUTOFF` keeps a reservoir, which two processes
cannot merge exactly, and a gauge's last write has no meaning across
processes.
"""

from __future__ import annotations

import json
import math
import random
import threading
from contextlib import contextmanager
from typing import Iterator

from repro.utils.tables import format_table


class Counter:
    """Monotonically increasing integer metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-write-wins numeric metric (e.g. orphaned worker count)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


#: Observations kept verbatim up to this many samples; beyond it the
#: histogram switches to a fixed-size uniform reservoir (Algorithm R).
EXACT_SAMPLE_CUTOFF = 8192


class Histogram:
    """Summary of observations: count / sum / min / max / quantiles.

    Deliberately bucket-free — observations are kept verbatim (a Python
    list append per ``observe``), which lets :meth:`quantile` report
    **exact** nearest-rank percentiles rather than bucket-boundary
    approximations.  The sample list is bounded: past
    :data:`EXACT_SAMPLE_CUTOFF` observations the histogram degrades to a
    uniform reservoir (Vitter's Algorithm R, deterministically seeded
    per metric name so runs stay reproducible), after which quantiles
    are unbiased estimates over a fixed-size sample while ``count`` /
    ``total`` / ``min`` / ``max`` (and hence ``mean``) remain exact.
    The switch point is generous: every kernel-side metric flushes a
    handful of values per *call*, so only open-ended streams (loadgen
    per-query latencies) ever cross it — exactly the case where an
    unbounded list would grow without limit under sustained traffic.
    The run ledger persists these summaries, so regression checks
    compare exact p50s across sessions below the cutoff.
    """

    __slots__ = ("count", "total", "min", "max", "_values", "_rng")

    def __init__(self, seed: object = 0) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._values: list[float] = []
        self._rng = random.Random(repr(seed))

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.count <= EXACT_SAMPLE_CUTOFF:
            self._values.append(value)
        else:
            # Algorithm R: keep each of the n observations so far with
            # probability cutoff/n — memory stays O(cutoff) forever.
            slot = self._rng.randrange(self.count)
            if slot < EXACT_SAMPLE_CUTOFF:
                self._values[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def exact_quantiles(self) -> bool:
        """Whether :meth:`quantile` is still exact (below the cutoff)."""
        return self.count <= EXACT_SAMPLE_CUTOFF

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile of the retained sample.

        ``q`` in [0, 1]; returns 0.0 for an empty histogram (summaries
        stay finite).  Exact over everything observed while ``count``
        ≤ :data:`EXACT_SAMPLE_CUTOFF`; past that, computed over the
        uniform reservoir.  Nearest-rank means every returned value is
        one that was actually observed — duplicates and
        single-observation histograms behave exactly as expected.
        """
        if not self._values:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        ordered = sorted(self._values)
        rank = math.ceil(q * len(ordered)) - 1
        return ordered[min(len(ordered) - 1, max(0, rank))]

    def summary(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named metric store with on-demand creation.

    ``counter`` / ``gauge`` / ``histogram`` create the metric on first
    use; a name belongs to exactly one kind (reusing it across kinds
    raises, catching typos early).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def _check_unique(self, name: str, kind: dict) -> None:
        for other in (self._counters, self._gauges, self._histograms):
            if other is not kind and name in other:
                raise ValueError(
                    f"metric {name!r} already registered with a different kind"
                )

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_unique(name, self._counters)
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_unique(name, self._gauges)
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_unique(name, self._histograms)
            metric = self._histograms[name] = Histogram(seed=name)
        return metric

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe dump of every metric (the documented schema)."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.summary() for k, h in sorted(self._histograms.items())
            },
        }

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=indent)

    def render(self, title: str = "Metrics") -> str:
        """Aligned ASCII table of every non-empty metric."""
        rows: list[tuple[object, ...]] = []
        for name, counter in sorted(self._counters.items()):
            rows.append((name, "counter", counter.value, "", ""))
        for name, gauge in sorted(self._gauges.items()):
            rows.append((name, "gauge", f"{gauge.value:g}", "", ""))
        for name, hist in sorted(self._histograms.items()):
            rows.append(
                (
                    name,
                    "histogram",
                    hist.count,
                    f"{hist.total:.6g}",
                    f"{hist.mean:.6g}",
                )
            )
        if not rows:
            rows.append(("(no metrics recorded)", "", "", "", ""))
        return format_table(
            ["metric", "kind", "count/value", "total", "mean"], rows, title=title
        )

    def reset(self) -> None:
        """Drop every metric (test isolation / fresh CLI runs)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


# ----------------------------------------------------------------------
# Process-wide registry + call-site helpers
# ----------------------------------------------------------------------

_REGISTRY = MetricsRegistry()
_ENABLED = True
_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry all instrumented code flushes into."""
    return _REGISTRY


def metrics_enabled() -> bool:
    return _ENABLED


def set_metrics_enabled(enabled: bool) -> bool:
    """Toggle collection globally; returns the previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


def add_counter(name: str, n: int = 1) -> None:
    """Increment a registry counter (no-op while metrics are disabled)."""
    if _ENABLED:
        with _LOCK:
            _REGISTRY.counter(name).inc(n)


def observe(name: str, value: float) -> None:
    """Record one histogram observation (no-op while disabled)."""
    if _ENABLED:
        with _LOCK:
            _REGISTRY.histogram(name).observe(value)


def observe_many(name: str, values) -> None:
    """Record a batch of observations under one lock acquisition.

    The flush-per-call pattern for per-iteration quantities (e.g. MaxSG's
    frontier size each round): kernels append to a local list and flush
    once, keeping lock traffic off the hot loop.
    """
    if _ENABLED and values:
        with _LOCK:
            histogram = _REGISTRY.histogram(name)
            for value in values:
                histogram.observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge (no-op while disabled)."""
    if _ENABLED:
        with _LOCK:
            _REGISTRY.gauge(name).set(value)


class metrics_disabled:
    """Context manager suspending collection (the overhead baseline)."""

    def __enter__(self) -> None:
        self._previous = set_metrics_enabled(False)

    def __exit__(self, *exc_info: object) -> bool:
        set_metrics_enabled(self._previous)
        return False


def iter_nonzero_counters() -> Iterator[tuple[str, int]]:
    """(name, value) for every counter that has fired — report helper."""
    for name, counter in sorted(_REGISTRY._counters.items()):
        if counter.value:
            yield name, counter.value


@contextmanager
def counter_moves() -> Iterator[dict[str, int]]:
    """Yield a dict that, on exit, maps each counter to its move in the block.

    Counters that did not move are left out.  The registry is read under
    the metrics lock: a thread abandoned by a timeout may still be
    creating counters.
    """
    before = _counter_values()
    moves: dict[str, int] = {}
    try:
        yield moves
    finally:
        for name, value in _counter_values().items():
            if value != before.get(name, 0):
                moves[name] = value - before.get(name, 0)


def _counter_values() -> dict[str, int]:
    with _LOCK:
        return {name: c.value for name, c in _REGISTRY._counters.items()}
