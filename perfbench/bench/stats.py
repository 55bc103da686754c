"""Percentiles and span self-time.

A tail percentile is reported only when at least ten samples lie beyond
it, so p99 needs 1,000 samples and p99.9 needs 10,000; with fewer the
helper refuses instead of returning what would be the maximum.
"""

from __future__ import annotations

import math
from collections import defaultdict

#: Samples that must lie beyond a tail percentile before it is reported.
SAMPLES_BEYOND = 10


class InsufficientSamples(ValueError):
    """A tail percentile was asked of too few samples."""


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 1] of ``values``.

    Percentiles above the median follow the ten-samples-beyond rule and
    raise :class:`InsufficientSamples` when it does not hold.
    """
    n = len(values)
    if n == 0:
        raise InsufficientSamples("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile {q!r} outside (0, 1]")
    # Rounding first keeps 0.999 * 10000 from landing one rank high.
    rank = max(1, math.ceil(round(q * n, 6)))
    if q > 0.5 and n - rank < SAMPLES_BEYOND:
        raise InsufficientSamples(
            f"p{100 * q:g} needs {SAMPLES_BEYOND} samples beyond it; "
            f"{n} sample(s) leave {n - rank}"
        )
    return sorted(values)[rank - 1]


def median(values) -> float:
    return percentile(values, 0.5)


def covered_length(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in intervals if e > start and s < end
    )
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(records) -> dict[str, float]:
    """``{span id: self seconds}``: duration minus the time children cover.

    ``records`` are tracer span records (``id``, ``parent``, ``start``,
    ``dur``).  Overlapping children are counted once.
    """
    children = defaultdict(list)
    for r in records:
        if r.get("parent") is not None:
            children[r["parent"]].append((r["start"], r["start"] + r["dur"]))
    return {
        r["id"]: r["dur"]
        - covered_length(r["start"], r["start"] + r["dur"], children[r["id"]])
        for r in records
    }
