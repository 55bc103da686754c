"""Unit tests for shared utilities."""

import time

import numpy as np
import pytest

from repro.obs.timing import Timer
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.tables import format_percent, format_table


class TestRNG:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_deterministic(self):
        a = ensure_rng(42).integers(1000)
        b = ensure_rng(42).integers(1000)
        assert a == b

    def test_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_spawn_independent(self):
        rngs = spawn_rngs(0, 3)
        values = [r.integers(10**9) for r in rngs]
        assert len(set(values)) == 3

    def test_spawn_deterministic(self):
        a = [r.integers(10**9) for r in spawn_rngs(7, 4)]
        b = [r.integers(10**9) for r in spawn_rngs(7, 4)]
        assert a == b

    def test_spawn_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestTables:
    def test_alignment(self):
        text = format_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = text.split("\n")
        assert len({line.index("|") for line in lines if "|" in line}) == 1

    def test_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.startswith("T\n")

    def test_float_formatting(self):
        text = format_table(["x"], [[0.123456789]])
        assert "0.1235" in text

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_percent(self):
        assert format_percent(0.5313) == "53.13%"
        assert format_percent(1.0, digits=0) == "100%"


class TestTimer:
    def test_context_manager(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.01

    def test_manual(self):
        t = Timer()
        t.start()
        time.sleep(0.005)
        assert t.stop() >= 0.005

    def test_stop_without_start(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_package_export_is_the_obs_timer(self):
        """``repro.utils.Timer`` aliases the canonical obs implementation."""
        from repro.utils import Timer as UtilsTimer

        assert UtilsTimer is Timer

    def test_metric_flushes_into_registry(self):
        from repro.obs import get_registry

        hist = get_registry().histogram("test.timer.seconds")
        before = hist.count
        with Timer(metric="test.timer.seconds"):
            pass
        assert hist.count == before + 1
