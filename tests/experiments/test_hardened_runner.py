"""Fault-tolerance tests for the hardened batch runner.

Fake experiments are registered under ``_hr_*`` ids and removed again
after each test, so the real registry stays clean.
"""

import json
import math
import time

import pytest

from repro.exceptions import CheckpointError, ReproError
from repro.experiments import ExperimentConfig
from repro.experiments.runner import (
    _REGISTRY,
    BatchResult,
    ExperimentFailure,
    ExperimentResult,
    backoff_delays,
    register,
    result_from_dict,
    result_to_dict,
    run_experiment_batch,
)

CONFIG = ExperimentConfig(scale="tiny", seed=1)


@pytest.fixture()
def registry():
    """Register fake experiments; unregister on teardown."""
    added = []

    def add(name, fn):
        register(name)(fn)
        added.append(name)

    yield add
    for name in added:
        _REGISTRY.pop(name, None)


def make_result(name, rows=((1, 2),)):
    return ExperimentResult(
        experiment_id=name,
        title=f"T-{name}",
        headers=[f"h{i}" for i in range(len(rows[0]))],
        rows=[tuple(r) for r in rows],
        notes="n",
        paper_values={"x": 1.5},
    )


class TestHappyPath:
    def test_results_in_request_order(self, registry):
        registry("_hr_b", lambda c: make_result("_hr_b"))
        registry("_hr_a", lambda c: make_result("_hr_a"))
        batch = run_experiment_batch(["_hr_b", "_hr_a"], CONFIG)
        assert [r.experiment_id for r in batch.results] == ["_hr_b", "_hr_a"]
        assert batch.ok
        assert batch.failures == []

    def test_validation(self):
        with pytest.raises(ReproError):
            run_experiment_batch(["table1"], CONFIG, retries=-1)
        for timeout in (0, -1.0, math.nan, math.inf):
            with pytest.raises(ReproError, match="finite and positive"):
                run_experiment_batch(["table1"], CONFIG, timeout=timeout)


class TestRetries:
    def test_flaky_recovers_with_backoff(self, registry):
        calls = {"n": 0}

        def flaky(config):
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return make_result("_hr_flaky")

        registry("_hr_flaky", flaky)
        slept = []
        batch = run_experiment_batch(
            ["_hr_flaky"], CONFIG, retries=2, backoff_base=0.25, seed=0,
            sleep=slept.append,
        )
        assert batch.ok
        assert calls["n"] == 3
        # two backoff sleeps, exponential, jitter in [1, 2)
        assert len(slept) == 2
        assert 0.25 <= slept[0] < 0.5
        assert 0.5 <= slept[1] < 1.0
        assert slept == backoff_delays(2, base=0.25, cap=30.0, seed=0)[:2]

    def test_exhaustion_records_structured_failure(self, registry):
        """Acceptance: a raising experiment is retried with backoff and,
        on exhaustion, recorded while the rest still complete."""

        def broken(config):
            raise ValueError("deliberately broken")

        registry("_hr_broken", broken)
        registry("_hr_ok", lambda c: make_result("_hr_ok"))
        slept = []
        batch = run_experiment_batch(
            ["_hr_broken", "_hr_ok"], CONFIG, retries=2, sleep=slept.append
        )
        assert not batch.ok
        assert len(slept) == 2  # backed off before each retry
        [failure] = batch.failures
        assert failure.experiment_id == "_hr_broken"
        assert failure.attempts == 3
        assert failure.error_type == "ValueError"
        assert "deliberately broken" in failure.message
        assert failure.elapsed >= 0.0
        # the healthy experiment still completed
        assert [r.experiment_id for r in batch.results] == ["_hr_ok"]

    def test_unknown_experiment_is_a_failure_not_a_crash(self):
        batch = run_experiment_batch(["_hr_missing"], CONFIG)
        [failure] = batch.failures
        assert failure.error_type == "ReproError"
        assert "unknown experiment" in failure.message

    def test_backoff_deterministic_and_capped(self):
        a = backoff_delays(5, base=1.0, cap=4.0, seed=42)
        b = backoff_delays(5, base=1.0, cap=4.0, seed=42)
        assert a == b
        assert all(d <= 8.0 for d in a)  # cap 4.0 x jitter < 2


class TestTimeout:
    def test_hanging_experiment_times_out(self, registry):
        def hang(config):
            time.sleep(5.0)
            return make_result("_hr_hang")

        registry("_hr_hang", hang)
        registry("_hr_fast", lambda c: make_result("_hr_fast"))
        start = time.perf_counter()
        batch = run_experiment_batch(
            ["_hr_hang", "_hr_fast"], CONFIG, timeout=0.2
        )
        assert time.perf_counter() - start < 4.0
        [failure] = batch.failures
        assert failure.error_type == "ExperimentTimeoutError"
        assert "wall-clock" in failure.message
        assert [r.experiment_id for r in batch.results] == ["_hr_fast"]

    def test_fast_experiment_unaffected_by_timeout(self, registry):
        registry("_hr_quick", lambda c: make_result("_hr_quick"))
        batch = run_experiment_batch(["_hr_quick"], CONFIG, timeout=30.0)
        assert batch.ok

    def test_timeout_keeps_spans_under_the_attempt(self, registry):
        """The timeout thread runs in the caller's trace context."""
        from repro.obs import Tracer, get_tracer, use_tracer
        from repro.obs.collect import build_trees

        def nested(config):
            with get_tracer().span("outer"):
                with get_tracer().span("inner"):
                    pass
            return make_result("_hr_nest")

        registry("_hr_nest", nested)

        def shape(node):
            return node.name, [shape(child) for child in node.children]

        def traced(timeout):
            tracer = Tracer()
            with use_tracer(tracer):
                run_experiment_batch(["_hr_nest"], CONFIG, timeout=timeout)
            return [shape(root) for root in build_trees(tracer.records)]

        expected = [("experiment.attempt", [("outer", [("inner", [])])])]
        assert traced(None) == expected
        assert traced(60.0) == expected


class TestCheckpoint:
    def test_resume_equals_uninterrupted(self, registry, tmp_path):
        """Acceptance: killing a checkpointed batch midway and resuming
        yields the same final result rows as an uninterrupted run."""
        crash_once = {"armed": True}

        def volatile(config):
            if crash_once["armed"]:
                crash_once["armed"] = False
                raise KeyboardInterrupt  # simulates the process dying
            return make_result("_hr_v", rows=((7, 8),))

        registry("_hr_s1", lambda c: make_result("_hr_s1", rows=((1, 2),)))
        registry("_hr_v", volatile)
        registry("_hr_s2", lambda c: make_result("_hr_s2", rows=((3, 4),)))
        names = ["_hr_s1", "_hr_v", "_hr_s2"]

        # Uninterrupted reference run (no crash, no checkpoint).
        crash_once["armed"] = False
        reference = run_experiment_batch(names, CONFIG)
        crash_once["armed"] = True

        ckpt = tmp_path / "sweep.json"
        with pytest.raises(KeyboardInterrupt):
            run_experiment_batch(names, CONFIG, checkpoint=ckpt)
        # the kill left a valid checkpoint with the first experiment done
        saved = json.loads(ckpt.read_text())
        assert list(saved["completed"]) == ["_hr_s1"]

        resumed = run_experiment_batch(names, CONFIG, checkpoint=ckpt)
        assert resumed.ok
        assert resumed.resumed == ("_hr_s1",)
        assert [result_to_dict(r) for r in resumed.results] == [
            result_to_dict(r) for r in reference.results
        ]

    def test_failures_are_checkpointed_and_not_retried(self, registry, tmp_path):
        calls = {"n": 0}

        def broken(config):
            calls["n"] += 1
            raise ValueError("still broken")

        registry("_hr_cbroken", broken)
        registry("_hr_cok", lambda c: make_result("_hr_cok"))
        ckpt = tmp_path / "sweep.json"
        names = ["_hr_cbroken", "_hr_cok"]
        first = run_experiment_batch(names, CONFIG, checkpoint=ckpt)
        assert not first.ok and calls["n"] == 1
        second = run_experiment_batch(names, CONFIG, checkpoint=ckpt)
        assert calls["n"] == 1  # failure loaded from checkpoint, not rerun
        assert [f.experiment_id for f in second.failures] == ["_hr_cbroken"]
        assert [r.experiment_id for r in second.results] == ["_hr_cok"]

    def test_config_mismatch_rejected(self, registry, tmp_path):
        registry("_hr_m", lambda c: make_result("_hr_m"))
        ckpt = tmp_path / "sweep.json"
        run_experiment_batch(["_hr_m"], CONFIG, checkpoint=ckpt)
        other = ExperimentConfig(scale="small", seed=1)
        with pytest.raises(CheckpointError):
            run_experiment_batch(["_hr_m"], other, checkpoint=ckpt)

    def test_corrupt_checkpoint_rejected(self, registry, tmp_path):
        registry("_hr_c", lambda c: make_result("_hr_c"))
        ckpt = tmp_path / "sweep.json"
        ckpt.write_text("{not json")
        with pytest.raises(CheckpointError):
            run_experiment_batch(["_hr_c"], CONFIG, checkpoint=ckpt)


class TestTimeoutIsolation:
    """Satellite of the executor refactor: a timed-out task must leave

    nothing behind that can slow the rest of the batch down.
    """

    def test_timed_out_task_does_not_delay_subsequent_tasks(self, registry):
        def hang(config):
            time.sleep(10.0)
            return make_result("_hr_th")

        registry("_hr_th", hang)
        registry("_hr_tf1", lambda c: make_result("_hr_tf1"))
        registry("_hr_tf2", lambda c: make_result("_hr_tf2"))
        start = time.perf_counter()
        batch = run_experiment_batch(
            ["_hr_th", "_hr_tf1", "_hr_tf2"], CONFIG, timeout=0.1
        )
        elapsed = time.perf_counter() - start
        # The old pooled implementation joined the leaked worker, so the
        # batch took ~10s; the daemon-thread design finishes immediately.
        assert elapsed < 2.0
        assert [r.experiment_id for r in batch.results] == ["_hr_tf1", "_hr_tf2"]
        assert [f.experiment_id for f in batch.failures] == ["_hr_th"]

    def test_abandoned_worker_lands_in_orphan_registry(
        self, registry, fresh_orphan_registry
    ):
        from repro.parallel.executor import orphaned_worker_count

        def hang(config):
            time.sleep(0.5)
            return make_result("_hr_to")

        registry("_hr_to", hang)
        batch = run_experiment_batch(["_hr_to"], CONFIG, timeout=0.05)
        assert not batch.ok
        assert orphaned_worker_count() == 1
        time.sleep(0.6)  # the orphan finishes and is forgotten
        assert orphaned_worker_count() == 0


class TestParallelBatch:
    """The ``workers``/``cache_dir`` wave of the runner."""

    def _register_trio(self, registry):
        registry("_hr_p1", lambda c: make_result("_hr_p1", rows=((1, 2),)))
        registry("_hr_p2", lambda c: make_result("_hr_p2", rows=((3, 4),)))
        registry("_hr_p3", lambda c: make_result("_hr_p3", rows=((5, 6),)))
        return ["_hr_p1", "_hr_p2", "_hr_p3"]

    def test_parallel_matches_serial(self, registry):
        names = self._register_trio(registry)
        serial = run_experiment_batch(names, CONFIG)
        parallel = run_experiment_batch(names, CONFIG, workers=2)
        assert parallel.ok
        assert [result_to_dict(r) for r in parallel.results] == [
            result_to_dict(r) for r in serial.results
        ]

    def test_parallel_failure_is_structured(self, registry):
        def broken(config):
            raise ValueError("parallel boom")

        registry("_hr_pbad", broken)
        registry("_hr_pok", lambda c: make_result("_hr_pok"))
        batch = run_experiment_batch(["_hr_pbad", "_hr_pok"], CONFIG, workers=2)
        assert not batch.ok
        [failure] = batch.failures
        assert failure.experiment_id == "_hr_pbad"
        assert failure.error_type == "ValueError"
        assert [r.experiment_id for r in batch.results] == ["_hr_pok"]

    def test_invalid_backend_and_workers(self):
        # The worker count is the only execution setting: no alias takes
        # the old backend keyword.
        with pytest.raises(TypeError, match="backend"):
            run_experiment_batch(["table1"], CONFIG, backend="process")
        with pytest.raises(ReproError, match="workers"):
            run_experiment_batch(["table1"], CONFIG, workers=0)

    def test_cache_skips_recompute(self, registry, tmp_path):
        calls = {"n": 0}

        def counting(config):
            calls["n"] += 1
            return make_result("_hr_cc", rows=((calls["n"], 0),))

        registry("_hr_cc", counting)
        cold = run_experiment_batch(["_hr_cc"], CONFIG, cache_dir=tmp_path)
        warm = run_experiment_batch(["_hr_cc"], CONFIG, cache_dir=tmp_path)
        assert calls["n"] == 1
        assert [result_to_dict(r) for r in warm.results] == [
            result_to_dict(r) for r in cold.results
        ]

    def test_cache_respects_config(self, registry, tmp_path):
        calls = {"n": 0}

        def counting(config):
            calls["n"] += 1
            return make_result("_hr_cv")

        registry("_hr_cv", counting)
        run_experiment_batch(["_hr_cv"], CONFIG, cache_dir=tmp_path)
        other = ExperimentConfig(scale="tiny", seed=1, max_hops=3)
        run_experiment_batch(["_hr_cv"], other, cache_dir=tmp_path)
        assert calls["n"] == 2  # different config -> different cache key

    def test_parallel_wave_writes_checkpoint(self, registry, tmp_path):
        names = self._register_trio(registry)
        ckpt = tmp_path / "wave.json"
        batch = run_experiment_batch(
            names, CONFIG, workers=2, checkpoint=ckpt
        )
        assert batch.ok
        saved = json.loads(ckpt.read_text())
        assert sorted(saved["completed"]) == sorted(names)
        resumed = run_experiment_batch(
            names, CONFIG, workers=2, checkpoint=ckpt
        )
        assert resumed.resumed == tuple(names)


class TestSerialization:
    def test_result_round_trip_renders_identically(self):
        result = make_result("_hr_r", rows=((1, "x", 2.5), (3, "y", 4.0)))
        restored = result_from_dict(result_to_dict(result))
        assert restored.render() == result.render()
        assert restored.experiment_id == result.experiment_id

    def test_failure_round_trip(self):
        failure = ExperimentFailure(
            experiment_id="x", attempts=3, error_type="ValueError",
            message="boom", elapsed=1.25,
        )
        assert ExperimentFailure.from_dict(failure.as_dict()) == failure

    def test_batch_ok_property(self):
        assert BatchResult(results=[], failures=[]).ok
        failure = ExperimentFailure("x", 1, "E", "m", 0.0)
        assert not BatchResult(results=[], failures=[failure]).ok


class TestLedgerIntegration:
    def test_fresh_runs_append_records(self, registry, tmp_path):
        import hashlib

        from repro.obs.ledger import Ledger

        registry("_hr_l1", lambda c: make_result("_hr_l1"))
        registry("_hr_l2", lambda c: make_result("_hr_l2"))
        path = tmp_path / "ledger.jsonl"
        batch = run_experiment_batch(["_hr_l1", "_hr_l2"], CONFIG, ledger=path)
        assert batch.ok
        records = Ledger(path).records()
        assert [r.experiment for r in records] == ["_hr_l1", "_hr_l2"]
        record = records[0]
        assert record.kind == "experiment"
        assert record.scale == "tiny" and record.seed == 1
        assert record.coverage == {"x": 1.5}
        assert record.timings["experiment.seconds"]["count"] == 1
        assert record.timings["experiment.seconds"]["p50"] > 0
        expected = hashlib.sha256(
            batch.results[0].render().encode()
        ).hexdigest()
        assert record.result_digest == expected
        assert record.record_id
        assert record.graph_digest

    def test_cache_hits_are_not_rerecorded(self, registry, tmp_path):
        from repro.obs.ledger import Ledger

        registry("_hr_lc", lambda c: make_result("_hr_lc"))
        path = tmp_path / "ledger.jsonl"
        cache = tmp_path / "cache"
        run_experiment_batch(["_hr_lc"], CONFIG, cache_dir=cache, ledger=path)
        run_experiment_batch(["_hr_lc"], CONFIG, cache_dir=cache, ledger=path)
        assert len(Ledger(path).records()) == 1  # warm rerun: no new record

    def test_failures_are_not_recorded(self, registry, tmp_path):
        from repro.obs.ledger import Ledger

        def boom(_config):
            raise ValueError("nope")

        registry("_hr_lf", boom)
        path = tmp_path / "ledger.jsonl"
        batch = run_experiment_batch(["_hr_lf"], CONFIG, ledger=path)
        assert not batch.ok
        assert len(Ledger(path).records()) == 0

    def test_parallel_batch_records(self, registry, tmp_path):
        from repro.obs.ledger import Ledger

        registry("_hr_lp1", lambda c: make_result("_hr_lp1"))
        registry("_hr_lp2", lambda c: make_result("_hr_lp2"))
        path = tmp_path / "ledger.jsonl"
        batch = run_experiment_batch(
            ["_hr_lp1", "_hr_lp2"], CONFIG, workers=2, ledger=path,
        )
        assert batch.ok
        records = Ledger(path).records()
        assert sorted(r.experiment for r in records) == ["_hr_lp1", "_hr_lp2"]
        assert all(r.timings["experiment.seconds"]["p50"] > 0 for r in records)

    def test_each_record_carries_only_its_own_counters(self, tmp_path):
        """A record counts its experiment's attempts, not the process's
        history, and the counts are the same wherever the attempts ran."""
        from repro.obs.ledger import Ledger

        def kernel_counters(names, workers, path):
            run_experiment_batch(names, CONFIG, workers=workers, ledger=path)
            return {
                r.experiment: {
                    k: v for k, v in r.counters.items()
                    if k.startswith("kernel.")
                }
                for r in Ledger(path).records()
            }

        alone = kernel_counters(["table1"], 1, tmp_path / "alone.jsonl")
        serial = kernel_counters(["table1", "fig3"], 1, tmp_path / "s.jsonl")
        pooled = kernel_counters(["table1", "fig3"], 2, tmp_path / "p.jsonl")
        assert alone["table1"]["kernel.maxsg.calls"] > 0
        assert serial["table1"] == pooled["table1"] == alone["table1"]
        for record in (serial["fig3"], pooled["fig3"]):
            assert not any(k.startswith("kernel.maxsg.") for k in record)

    def test_pooled_batch_builds_the_graph_once(self, tmp_path):
        """The parent builds the topology before the pool forks, so the
        workers inherit it: one build in the parent, none in a record."""
        from repro.experiments.config import _cached_graph
        from repro.obs.ledger import Ledger
        from repro.obs.metrics import iter_nonzero_counters

        def builds() -> int:
            return dict(iter_nonzero_counters()).get("graph.build.calls", 0)

        _cached_graph.cache_clear()
        before = builds()
        path = tmp_path / "p.jsonl"
        run_experiment_batch(["table1", "fig3"], CONFIG, workers=2, ledger=path)
        records = Ledger(path).records()
        assert len(records) == 2
        in_records = sum(r.counters.get("graph.build.calls", 0) for r in records)
        assert builds() - before == 1
        assert in_records == 0

    def test_coverage_flattening(self):
        from repro.experiments.runner import _coverage_from_paper_values

        flattened = _coverage_from_paper_values({
            "0.19%": {"paper": 0.5313, "measured": 0.51, "budget": 3},
            "worst_ratio": 0.97,
            "label": "not-a-number",
            "flag": True,
            "nested": {"no_measured_key": 1.0},
            # Fig. 3: correlation per budget beside its gains array.
            "|B| = 1": {"corr": 0.96, "paper": 0.818, "gains": [0.1, 0.2]},
            # Fig. 5b: curve value per policy parameter (float keys).
            "1.9%": {"free": 0.66, 0.0: 0.45, "on": False},
            # Fig. 5c / ext_qos: one value per policy at each x.
            0.019: {"free": 0.64, "directional": 0.44},
            30.0: {"free": 0.42, "brokered": 0.40},
        })
        assert flattened == {
            "0.19%": 0.51,
            "worst_ratio": 0.97,
            "nested/no_measured_key": 1.0,
            "|B| = 1/corr": 0.96,
            "|B| = 1/paper": 0.818,
            "1.9%/free": 0.66,
            "1.9%/0.0": 0.45,
            "0.019/free": 0.64,
            "0.019/directional": 0.44,
            "30.0/free": 0.42,
            "30.0/brokered": 0.40,
        }
