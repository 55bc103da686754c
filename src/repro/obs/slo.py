"""Live SLO telemetry: sliding-window stats and burn-rate alerts.

The offline observability stack (metrics registry → ledger → regression
gate) answers "did this run regress against history?" after the fact.
A *serving* tier needs the live counterpart: "is the server healthy
right now?".  This module provides it with two pieces:

* :class:`SlidingWindow` — a time-bounded ring buffer of request
  outcomes ``(when, latency, ok)`` with rolling nearest-rank quantiles,
  error rate and throughput over the last *N* seconds.  Eviction is by
  age **and** by capacity, so memory is bounded no matter the request
  rate.
* :class:`SloMonitor` — evaluates declarative :class:`SloSpec` objects
  against a window and reports per-SLO **burn rate**: the fraction of
  the error budget currently being consumed, where budget is
  ``1 - target``.  A latency SLO "p99 < 250 ms at 99 %" has a 1 %
  budget; if 3 % of windowed requests are slower than 250 ms the burn
  rate is 3.0 — the alert threshold (default 1.0) marks the SLO
  *breached*.  This is the standard multiplicative burn-rate framing
  (Google SRE workbook) restricted to a single window, which is all a
  single-process server needs.

Everything is lock-guarded (the asyncio serving loop and TCP admin
channel share one monitor) and clock-injectable so tests can drive
eviction deterministically.  ``repro serve`` exposes snapshots on
the admin channel (``/health``, ``/metrics``, ``/slo``) and records the
final verdicts to the ledger as a ``slo``-kind record, which
``repro report --check`` gates on (any breach ⇒ regression).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

#: Hard cap on retained samples per window regardless of request rate.
DEFAULT_WINDOW_CAPACITY = 65536


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over a sliding window.

    ``kind`` selects the bad-event predicate:

    * ``"latency"`` — a request is *bad* when its latency exceeds
      ``threshold`` seconds; ``target`` is the fraction that must be
      fast (e.g. ``0.99`` ⇒ "p99 < threshold").
    * ``"availability"`` — a request is *bad* when it errored;
      ``target`` is the success fraction (e.g. ``0.999``).

    ``burn_alert`` is the burn-rate level at which the SLO is declared
    breached: 1.0 means "consuming budget exactly as fast as allowed".
    """

    name: str
    kind: str  # "latency" | "availability"
    target: float
    threshold: float = 0.0  # seconds; latency SLOs only
    burn_alert: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("latency", "availability"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target {self.target!r} outside (0, 1)")
        if self.kind == "latency" and self.threshold <= 0.0:
            raise ValueError("latency SLO needs a positive threshold")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "threshold": self.threshold,
            "burn_alert": self.burn_alert,
        }


@dataclass(frozen=True)
class SloVerdict:
    """One SLO evaluated at one instant over the current window."""

    spec: SloSpec
    total: int
    bad: int
    burn_rate: float
    breached: bool

    @property
    def bad_fraction(self) -> float:
        return self.bad / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {
            **self.spec.to_dict(),
            "total": self.total,
            "bad": self.bad,
            "bad_fraction": self.bad_fraction,
            "burn_rate": self.burn_rate,
            "breached": self.breached,
        }


#: Conservative defaults for ``repro serve`` — loose enough that a
#: healthy run (CI included) never breaches, tight enough that a stalled
#: flush loop or error storm trips within one window.
DEFAULT_SLOS: tuple[SloSpec, ...] = (
    SloSpec(name="latency-p99", kind="latency", target=0.99, threshold=0.250),
    SloSpec(name="availability", kind="availability", target=0.999),
)


class SlidingWindow:
    """Time-bounded ring buffer of ``(when, latency_s, ok)`` outcomes.

    ``observe`` appends; reads first evict entries older than
    ``horizon_s``.  ``capacity`` bounds memory under any request rate —
    when full, the oldest entry drops (the window effectively narrows,
    which for SLO purposes is the conservative direction: recent
    behaviour dominates).  The samples live in three preallocated
    arrays used as one ring, 17 bytes per sample.
    """

    def __init__(
        self,
        horizon_s: float = 60.0,
        *,
        capacity: int = DEFAULT_WINDOW_CAPACITY,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.horizon_s = float(horizon_s)
        self.capacity = int(capacity)
        self._clock = clock
        self._when = np.empty(self.capacity)
        self._latency = np.empty(self.capacity)
        self._ok = np.empty(self.capacity, dtype=bool)
        #: Samples ever observed, and the sequence number of the oldest
        #: live one; sample ``i`` sits in slot ``i % capacity``.
        self._end = 0
        self._start = 0
        self._lock = threading.Lock()

    def observe(self, latency_s: float, *, ok: bool = True) -> None:
        with self._lock:
            slot = self._end % self.capacity
            self._when[slot] = self._clock()
            self._latency[slot] = latency_s
            self._ok[slot] = ok
            self._end += 1
            if self._end - self._start > self.capacity:
                self._start += 1

    def _live(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Evict by age; copies of the live samples, oldest first."""
        with self._lock:
            slots = np.arange(self._start, self._end) % self.capacity
            when = self._when[slots]
            fresh = when >= self._clock() - self.horizon_s
            evicted = int(np.argmax(fresh)) if fresh.any() else len(slots)
            self._start += evicted
            slots = slots[evicted:]
            return when[evicted:], self._latency[slots], self._ok[slots]

    def __len__(self) -> int:
        return len(self._live()[0])

    def snapshot(self) -> dict:
        """Rolling stats over the live window (JSON-safe).

        Quantiles are exact nearest-rank over the windowed samples.
        ``throughput_qps`` divides by the observed span (clamped to at
        least one horizon's worth only when the window is saturated).
        """
        when, latency, ok = self._live()
        now = self._clock()
        count = len(when)
        if not count:
            return {
                "window_s": self.horizon_s,
                "count": 0,
                "errors": 0,
                "error_rate": 0.0,
                "throughput_qps": 0.0,
                "p50": 0.0,
                "p90": 0.0,
                "p99": 0.0,
                "max": 0.0,
            }
        latencies = np.sort(latency)
        errors = count - int(np.count_nonzero(ok))
        span = max(now - float(when[0]), 1e-9)

        def rank(q: float) -> float:
            idx = math.ceil(q * count) - 1
            return float(latencies[min(count - 1, max(0, idx))])

        return {
            "window_s": self.horizon_s,
            "count": count,
            "errors": errors,
            "error_rate": errors / count,
            "throughput_qps": count / span,
            "p50": rank(0.50),
            "p90": rank(0.90),
            "p99": rank(0.99),
            "max": float(latencies[-1]),
        }

    def outcomes(self) -> tuple[np.ndarray, np.ndarray]:
        """Latencies and ok flags of the live window, oldest first."""
        _, latency, ok = self._live()
        return latency, ok


class SloMonitor:
    """Feeds one :class:`SlidingWindow` and judges :class:`SloSpec` s.

    The serving tier calls :meth:`observe` once per finished request
    (end-to-end latency, success flag); the admin channel and the
    shutdown path call :meth:`evaluate` / :meth:`snapshot` at will.
    ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        specs: Iterable[SloSpec] = DEFAULT_SLOS,
        *,
        horizon_s: float = 60.0,
        capacity: int = DEFAULT_WINDOW_CAPACITY,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.specs = tuple(specs)
        self.window = SlidingWindow(horizon_s, capacity=capacity, clock=clock)
        self._started = clock()
        self._clock = clock
        self._lifetime_count = 0
        self._lifetime_errors = 0
        self._lock = threading.Lock()

    def observe(self, latency_s: float, *, ok: bool = True) -> None:
        self.window.observe(latency_s, ok=ok)
        with self._lock:
            self._lifetime_count += 1
            if not ok:
                self._lifetime_errors += 1

    def evaluate(self) -> list[SloVerdict]:
        """Judge every spec against the current window."""
        latency, ok = self.window.outcomes()
        total = len(latency)
        verdicts = []
        for spec in self.specs:
            if spec.kind == "latency":
                bad = int(np.count_nonzero(latency > spec.threshold))
            else:
                bad = total - int(np.count_nonzero(ok))
            bad_fraction = bad / total if total else 0.0
            burn = bad_fraction / spec.error_budget
            verdicts.append(
                SloVerdict(
                    spec=spec,
                    total=total,
                    bad=bad,
                    burn_rate=burn,
                    breached=total > 0 and burn >= spec.burn_alert,
                )
            )
        return verdicts

    def breaches(self) -> list[SloVerdict]:
        return [v for v in self.evaluate() if v.breached]

    def snapshot(self) -> dict:
        """One JSON-safe blob for the admin channel / ledger record."""
        with self._lock:
            lifetime = {
                "count": self._lifetime_count,
                "errors": self._lifetime_errors,
            }
        return {
            "uptime_s": self._clock() - self._started,
            "lifetime": lifetime,
            "window": self.window.snapshot(),
            "slos": [v.to_dict() for v in self.evaluate()],
        }


def parse_slo_spec(text: str) -> SloSpec:
    """Parse a CLI SLO spec string.

    Two forms::

        latency:<name>:<target>:<threshold_ms>   e.g. latency:p99:0.99:250
        availability:<name>:<target>             e.g. availability:avail:0.999

    An optional trailing ``:<burn_alert>`` overrides the default 1.0.
    """
    parts = text.split(":")
    if len(parts) < 3:
        raise ValueError(f"malformed SLO spec {text!r}")
    kind, name = parts[0], parts[1]
    try:
        if kind == "latency":
            if len(parts) not in (4, 5):
                raise ValueError
            target = float(parts[2])
            threshold = float(parts[3]) / 1000.0
            burn = float(parts[4]) if len(parts) == 5 else 1.0
            return SloSpec(
                name=name, kind="latency", target=target,
                threshold=threshold, burn_alert=burn,
            )
        if kind == "availability":
            if len(parts) not in (3, 4):
                raise ValueError
            target = float(parts[2])
            burn = float(parts[3]) if len(parts) == 4 else 1.0
            return SloSpec(
                name=name, kind="availability", target=target, burn_alert=burn
            )
    except ValueError as exc:
        raise ValueError(f"malformed SLO spec {text!r}") from exc
    raise ValueError(f"unknown SLO kind in {text!r}")
