"""Unit tests for the metrics registry (repro.obs.metrics)."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    add_counter,
    counter_moves,
    get_registry,
    metrics_disabled,
    metrics_enabled,
    observe,
    set_gauge,
    set_metrics_enabled,
)
from repro.obs.metrics import (
    EXACT_SAMPLE_CUTOFF,
    Histogram,
    iter_nonzero_counters,
)


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        assert reg.counter("c").value == 5

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(3)
        reg.gauge("g").set(1.5)
        assert reg.gauge("g").value == 1.5

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        for v in (1.0, 2.0, 6.0):
            reg.histogram("h").observe(v)
        summary = reg.histogram("h").summary()
        assert summary["count"] == 3
        assert summary["total"] == 9.0
        assert summary["min"] == 1.0
        assert summary["max"] == 6.0
        assert summary["mean"] == 3.0

    def test_empty_histogram_summary_is_finite(self):
        summary = MetricsRegistry().histogram("h").summary()
        assert summary == {
            "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "p50": 0.0, "p90": 0.0, "p99": 0.0,
        }

    def test_quantiles_exact_nearest_rank(self):
        hist = MetricsRegistry().histogram("h")
        for v in range(1, 101):  # 1..100
            hist.observe(float(v))
        summary = hist.summary()
        assert summary["p50"] == 50.0
        assert summary["p90"] == 90.0
        assert summary["p99"] == 99.0
        # Exact, not interpolated: every quantile is an observed value.
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 100.0

    def test_quantiles_single_value(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(3.25)
        summary = hist.summary()
        assert summary["p50"] == 3.25
        assert summary["p90"] == 3.25
        assert summary["p99"] == 3.25

    def test_quantiles_duplicates(self):
        hist = MetricsRegistry().histogram("h")
        for v in (2.0, 2.0, 2.0, 2.0, 9.0):
            hist.observe(v)
        assert hist.quantile(0.5) == 2.0
        assert hist.quantile(0.99) == 9.0

    def test_quantile_rejects_out_of_range(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(1.0)
        with pytest.raises(ValueError, match="outside"):
            hist.quantile(1.5)

    def test_name_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="different kind"):
            reg.gauge("x")
        with pytest.raises(ValueError, match="different kind"):
            reg.histogram("x")

    def test_snapshot_and_json(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h").observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 7.0}
        assert snap["histograms"]["h"]["count"] == 1
        assert json.loads(reg.to_json()) == snap

    def test_render_lists_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("kernel.x.calls").inc(3)
        reg.histogram("kernel.x.seconds").observe(0.25)
        text = reg.render(title="T")
        assert "kernel.x.calls" in text
        assert "kernel.x.seconds" in text
        assert "counter" in text and "histogram" in text

    def test_render_empty_registry(self):
        assert "(no metrics recorded)" in MetricsRegistry().render()

    def test_reset_drops_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestModuleHelpers:
    def test_helpers_hit_global_registry(self):
        reg = get_registry()
        before = reg.counter("test.helper.counter").value
        add_counter("test.helper.counter", 3)
        observe("test.helper.hist", 1.25)
        set_gauge("test.helper.gauge", 9)
        assert reg.counter("test.helper.counter").value == before + 3
        assert reg.histogram("test.helper.hist").count >= 1
        assert reg.gauge("test.helper.gauge").value == 9.0

    def test_disabled_flag_suppresses_updates(self):
        reg = get_registry()
        before = reg.counter("test.disabled.counter").value
        hist_before = reg.histogram("test.disabled.hist").count
        previous = set_metrics_enabled(False)
        try:
            add_counter("test.disabled.counter")
            observe("test.disabled.hist", 1.0)
            set_gauge("test.disabled.gauge", 5)
            assert not metrics_enabled()
        finally:
            set_metrics_enabled(previous)
        assert reg.counter("test.disabled.counter").value == before
        assert reg.histogram("test.disabled.hist").count == hist_before

    def test_metrics_disabled_context_restores(self):
        assert metrics_enabled()
        with metrics_disabled():
            assert not metrics_enabled()
            with metrics_disabled():  # nests without losing the outer state
                assert not metrics_enabled()
            assert not metrics_enabled()
        assert metrics_enabled()

    def test_iter_nonzero_counters(self):
        add_counter("test.nonzero.counter", 2)
        get_registry().counter("test.zero.counter")  # registered, never fired
        fired = dict(iter_nonzero_counters())
        assert fired["test.nonzero.counter"] >= 2
        assert "test.zero.counter" not in fired

    def test_counter_moves_hold_only_what_the_block_moved(self):
        add_counter("test.moves.before", 5)
        with counter_moves() as moved:
            add_counter("test.moves.before", 2)
            add_counter("test.moves.new", 3)
            get_registry().counter("test.moves.idle")
        assert moved == {"test.moves.before": 2, "test.moves.new": 3}


class TestHistogramReservoir:
    def _fill(self, hist, n):
        for i in range(n):
            hist.observe(float(i))

    def test_exact_below_cutoff(self):
        hist = Histogram()
        self._fill(hist, 1000)
        assert hist.exact_quantiles
        assert len(hist._values) == 1000
        assert hist.quantile(0.5) == 499.0  # nearest-rank, exact

    def test_memory_bounded_above_cutoff(self):
        hist = Histogram()
        self._fill(hist, EXACT_SAMPLE_CUTOFF + 5000)
        assert not hist.exact_quantiles
        assert len(hist._values) == EXACT_SAMPLE_CUTOFF

    def test_scalar_stats_stay_exact_above_cutoff(self):
        hist = Histogram()
        n = EXACT_SAMPLE_CUTOFF + 1234
        self._fill(hist, n)
        assert hist.count == n
        assert hist.total == pytest.approx(n * (n - 1) / 2)
        assert hist.min == 0.0
        assert hist.max == float(n - 1)
        assert hist.mean == pytest.approx((n - 1) / 2)

    def test_reservoir_deterministic_per_seed(self):
        a, b = Histogram(seed="same"), Histogram(seed="same")
        n = EXACT_SAMPLE_CUTOFF + 2000
        self._fill(a, n)
        self._fill(b, n)
        assert a._values == b._values
        c = Histogram(seed="other")
        self._fill(c, n)
        assert c._values != a._values

    def test_reservoir_quantiles_remain_plausible(self):
        # Uniform stream 0..N: the sampled p50 must land near N/2, not
        # at an extreme — a sanity check that sampling is uniform.
        hist = Histogram()
        n = EXACT_SAMPLE_CUTOFF * 3
        self._fill(hist, n)
        p50 = hist.quantile(0.5)
        assert 0.3 * n < p50 < 0.7 * n

    def test_registry_seeds_reservoir_by_metric_name(self):
        reg = MetricsRegistry()
        h1 = reg.histogram("test.seeded.one")
        h2 = reg.histogram("test.seeded.one")
        assert h1 is h2  # same name → same metric, not re-seeded
