"""The one ``perf_counter`` wall-clock timer shared by the whole stack.

The experiment harness, the ``@profiled`` decorator and the runner all
share this implementation: :class:`Timer` offers a context-manager and
``start``/``stop`` API (``repro.utils.Timer`` is the same class) and
optionally flushes the elapsed seconds into the metrics registry when
constructed with a ``metric`` name.
"""

from __future__ import annotations

import time


class Timer:
    """Context manager measuring elapsed wall-clock seconds.

    Example::

        with Timer() as t:
            run_algorithm()
        print(f"took {t.elapsed:.3f}s")

    With ``metric`` set, leaving the ``with`` block (or calling
    :meth:`stop`) also records the elapsed seconds as one observation of
    that histogram in the process-wide metrics registry::

        with Timer(metric="kernel.maxsg.seconds"):
            maxsg(graph, budget)
    """

    __slots__ = ("_start", "elapsed", "metric")

    def __init__(self, metric: str | None = None) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0
        self.metric = metric

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._start is not None:
            self.elapsed = time.perf_counter() - self._start
            self._record()

    def start(self) -> None:
        """Begin (or restart) timing outside a ``with`` block."""
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop timing and return the elapsed seconds."""
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed = time.perf_counter() - self._start
        self._record()
        return self.elapsed

    def _record(self) -> None:
        if self.metric is not None:
            from repro.obs.metrics import observe

            observe(self.metric, self.elapsed)
