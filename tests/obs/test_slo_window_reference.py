"""The ring-buffer ``SlidingWindow`` against a plain-list reference.

The window keeps its samples in preallocated NumPy arrays and computes
quantiles, error counts and burn rates vectorized.  The reference below
keeps ``(when, latency, ok)`` tuples in a list, evicts by age and by
capacity the same way, and computes everything in loops.  Both must
agree exactly under any interleaving of observations, clock ticks and
reads (reads evict, so where they fall matters).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.slo import SloMonitor, SloSpec

SPECS = (
    SloSpec(name="lat", kind="latency", target=0.9, threshold=0.05),
    SloSpec(name="avail", kind="availability", target=0.9),
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class ReferenceWindow:
    def __init__(self, horizon_s: float, capacity: int, clock) -> None:
        self.horizon_s = horizon_s
        self.capacity = capacity
        self.clock = clock
        self.samples: list[tuple[float, float, bool]] = []

    def observe(self, latency_s: float, ok: bool) -> None:
        self.samples.append((self.clock(), latency_s, ok))
        if len(self.samples) > self.capacity:
            self.samples.pop(0)

    def live(self) -> list[tuple[float, float, bool]]:
        cutoff = self.clock() - self.horizon_s
        while self.samples and self.samples[0][0] < cutoff:
            self.samples.pop(0)
        return list(self.samples)

    def snapshot(self) -> dict:
        samples = self.live()
        if not samples:
            return {"window_s": self.horizon_s, "count": 0, "errors": 0,
                    "error_rate": 0.0, "throughput_qps": 0.0, "p50": 0.0,
                    "p90": 0.0, "p99": 0.0, "max": 0.0}
        latencies = sorted(s[1] for s in samples)
        errors = sum(1 for s in samples if not s[2])
        span = max(self.clock() - samples[0][0], 1e-9)

        def rank(q: float) -> float:
            idx = math.ceil(q * len(latencies)) - 1
            return latencies[min(len(latencies) - 1, max(0, idx))]

        return {"window_s": self.horizon_s, "count": len(samples),
                "errors": errors, "error_rate": errors / len(samples),
                "throughput_qps": len(samples) / span, "p50": rank(0.50),
                "p90": rank(0.90), "p99": rank(0.99), "max": latencies[-1]}

    def bad_counts(self) -> list[int]:
        samples = self.live()
        return [
            sum(1 for _, lat, _ in samples if lat > SPECS[0].threshold),
            sum(1 for _, _, ok in samples if not ok),
        ]


steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("observe"),
            # The latency threshold itself is a sample worth drawing.
            st.one_of(st.just(SPECS[0].threshold), st.floats(0.0, 0.1)),
            st.booleans(),
        ),
        st.tuples(st.just("tick"), st.sampled_from([0.0, 0.25, 0.5, 1.5])),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("evaluate")),
    ),
    max_size=60,
)


@given(steps, st.integers(1, 8), st.sampled_from([0.5, 1.0, 4.0]))
@settings(max_examples=150, deadline=None)
def test_ring_window_matches_list_reference(script, capacity, horizon_s):
    clock = FakeClock()
    monitor = SloMonitor(SPECS, horizon_s=horizon_s, capacity=capacity,
                         clock=clock)
    reference = ReferenceWindow(horizon_s, capacity, clock)
    for step in script + [("snapshot",), ("evaluate",)]:
        if step[0] == "observe":
            monitor.observe(step[1], ok=step[2])
            reference.observe(step[1], step[2])
        elif step[0] == "tick":
            clock.now += step[1]
        elif step[0] == "snapshot":
            assert monitor.window.snapshot() == reference.snapshot()
        else:
            verdicts = monitor.evaluate()
            assert [v.bad for v in verdicts] == reference.bad_counts()
            assert {v.total for v in verdicts} == {len(reference.live())}
