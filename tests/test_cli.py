"""Unit tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.scale == "small"

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "--scale", "galactic"])


class TestCommands:
    def test_generate_and_summarize(self, tmp_path, capsys):
        out = tmp_path / "g.json.gz"
        code = main(["generate", "--scale", "tiny", "--seed", "1", "--output", str(out)])
        assert code == 0
        assert out.exists()
        code = main(["summarize", "--path", str(out), "--seed", "1"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "Table 2" in captured

    def test_summarize_generated(self, capsys):
        assert main(["summarize", "--scale", "tiny", "--seed", "1"]) == 0
        assert "ASes" in capsys.readouterr().out

    def test_select(self, capsys):
        code = main([
            "select", "maxsg", "--budget", "8", "--scale", "tiny",
            "--seed", "1", "--show-brokers", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "maxsg" in out and "top brokers" in out

    def test_select_unknown_algorithm(self, capsys):
        assert main(["select", "quantum", "--scale", "tiny"]) == 2

    def test_select_missing_budget_is_handled(self, capsys):
        code = main(["select", "greedy", "--scale", "tiny"])
        assert code == 1  # AlgorithmError -> error exit

    def test_experiment_single(self, capsys):
        code = main(["experiment", "table2", "--scale", "tiny", "--seed", "1"])
        assert code == 0
        assert "Table 2" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "tableXX", "--scale", "tiny"]) == 1

    def test_experiment_unknown_reports_failure(self, capsys):
        main(["experiment", "tableXX", "--scale", "tiny", "--retries", "0"])
        err = capsys.readouterr().err
        assert "FAILED tableXX" in err and "unknown experiment" in err

    def test_experiment_checkpoint_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "sweep.json"
        args = ["experiment", "table2", "--scale", "tiny", "--seed", "1",
                "--checkpoint", str(ckpt)]
        assert main(args) == 0
        assert ckpt.exists()
        capsys.readouterr()
        assert main(args) == 0  # second run resumes from the checkpoint
        out = capsys.readouterr().out
        assert "resumed 1 experiment(s)" in out
        assert "Table 2" in out


class TestResilienceCommand:
    def test_mixed_model_runs(self, capsys):
        code = main([
            "resilience", "--scale", "tiny", "--seed", "1",
            "--model", "mixed", "--steps", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Resilience replay" in out
        assert "baseline" in out and "repairs" in out

    def test_targeted_no_heal(self, capsys):
        code = main([
            "resilience", "--scale", "tiny", "--seed", "1",
            "--model", "targeted", "--steps", "4", "--no-heal",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "healing off" in out
        assert "0 repairs" in out

    def test_flapping_model(self, capsys):
        code = main([
            "resilience", "--scale", "tiny", "--seed", "2",
            "--model", "flapping", "--steps", "6", "--budget", "10",
        ])
        assert code == 0

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resilience", "--model", "gremlins"])


class TestReportAndExport:
    def test_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main([
            "report", "table2", "fig2a", "--scale", "tiny", "--seed", "1",
            "--output", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert "# Reproduction report" in text
        assert "## table2" in text and "## fig2a" in text

    def test_report_to_stdout(self, capsys):
        code = main(["report", "table2", "--scale", "tiny", "--seed", "1"])
        assert code == 0
        assert "Table 2" in capsys.readouterr().out

    def test_export_gexf(self, tmp_path, capsys):
        out = tmp_path / "topo.gexf"
        code = main([
            "export", "--format", "gexf", "--scale", "tiny", "--seed", "1",
            "--brokers", "5", "--output", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("<?xml")

    def test_export_dot(self, tmp_path, capsys):
        out = tmp_path / "topo.dot"
        code = main([
            "export", "--format", "dot", "--scale", "tiny", "--seed", "1",
            "--output", str(out),
        ])
        assert code == 0
        assert "graph topology" in out.read_text()


class TestSweepAndCache:
    def test_sweep_fig2b_to_file_with_cache(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        cache = tmp_path / "cache"
        argv = [
            "sweep", "fig2b", "--scale", "tiny", "--seed", "1",
            "--seeds", "1", "2", "--budgets", "5", "12",
            "--cache-dir", str(cache), "--output", str(out),
        ]
        assert main(argv) == 0
        first = out.read_text()
        assert "0 hit(s), 4 miss(es)" in capsys.readouterr().err
        # warm rerun: bit-identical file, all hits
        assert main(argv) == 0
        assert out.read_text() == first
        assert "4 hit(s), 0 miss(es)" in capsys.readouterr().err

    def test_sweep_table5_stdout(self, capsys):
        code = main([
            "sweep", "table5", "--scale", "tiny", "--seed", "1",
            "--budgets", "5", "--top", "3",
        ])
        assert code == 0
        import json as _json

        payload = _json.loads(capsys.readouterr().out)
        assert payload["sweep"] == "table5"
        assert len(payload["cells"]) == 1

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        main([
            "sweep", "table5", "--scale", "tiny", "--seed", "1",
            "--budgets", "5", "--cache-dir", str(cache),
        ])
        capsys.readouterr()
        assert main(["cache", "stats", str(cache)]) == 0
        assert "1 entries" in capsys.readouterr().out
        assert main(["cache", "clear", str(cache)]) == 0
        assert "removed 1 cached result(s)" in capsys.readouterr().out

    def test_experiment_parallel_flags(self, tmp_path, capsys):
        code = main([
            "experiment", "table2", "--scale", "tiny", "--seed", "1",
            "--workers", "2", "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        assert "Table 2" in capsys.readouterr().out

    def test_resilience_replicates(self, capsys):
        code = main([
            "resilience", "--scale", "tiny", "--seed", "1", "--budget", "10",
            "--model", "independent", "--steps", "3", "--crash-prob", "0.4",
            "--replicates", "2", "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed=1" in out and "seed=2" in out

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "fig2b", "--backend", "gpu"])


class TestObservabilityCommands:
    def test_experiment_trace_out(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        code = main([
            "experiment", "table1", "--scale", "tiny", "--seed", "1",
            "--trace-out", str(trace),
        ])
        assert code == 0
        assert "wrote" in capsys.readouterr().err
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records[0]["type"] == "meta"
        assert records[0]["metadata"]["command"] == "experiment"
        names = {r["name"] for r in records if r["type"] == "span"}
        # Graph build, per-iteration selection, coverage evaluation.
        assert "graph.build" in names or "kernel.maxsg" in names
        assert "maxsg.round" in names
        assert "kernel.saturated_connectivity" in names

    def test_trace_subcommand(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = main([
            "trace", "table1", "--scale", "tiny", "--seed", "1",
            "--output", str(trace), "--show-result",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Trace summary: table1" in out
        assert "kernel.maxsg" in out
        assert trace.exists()

    def test_trace_leaves_null_tracer_installed(self):
        from repro.obs import NullTracer, get_tracer

        assert main(["trace", "table2", "--scale", "tiny", "--seed", "1"]) == 0
        assert isinstance(get_tracer(), NullTracer)

    def test_metrics_table_output(self, capsys):
        code = main([
            "metrics", "--experiment", "table1", "--scale", "tiny",
            "--seed", "1", "--runs", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel.maxsg.gain_evaluations" in out
        assert "cache.hits" in out

    def test_metrics_json_output(self, tmp_path, capsys):
        import json

        code = main([
            "metrics", "--experiment", "table1", "--scale", "tiny",
            "--seed", "1", "--cache-dir", str(tmp_path / "cache"),
            "--format", "json",
        ])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["counters"]["kernel.maxsg.gain_evaluations"] > 0
        assert snapshot["counters"]["cache.hits"] >= 1  # the warm rerun
        assert snapshot["counters"]["cache.misses"] >= 1  # the cold run

    def test_metrics_unknown_experiment_fails(self, capsys):
        assert main(["metrics", "--experiment", "nope", "--scale", "tiny"]) == 1


class TestLedgerCommands:
    def _run_twice(self, tmp_path):
        ledger = tmp_path / "ledger.jsonl"
        for _ in range(2):
            assert main([
                "experiment", "table1", "--scale", "tiny", "--seed", "1",
                "--ledger", str(ledger),
            ]) == 0
        return ledger

    def test_experiment_appends_run_records(self, tmp_path, capsys):
        from repro.obs.ledger import Ledger

        ledger = self._run_twice(tmp_path)
        records = Ledger(ledger).records()
        assert len(records) == 2
        assert all(r.experiment == "table1" for r in records)
        assert records[0].coverage == records[1].coverage  # deterministic

    def test_report_check_clean_exits_zero(self, tmp_path, capsys):
        ledger = self._run_twice(tmp_path)
        capsys.readouterr()
        # Generous timing tolerance: same-process reruns can jitter.
        code = main([
            "report", "--ledger", str(ledger), "--check",
            "--timing-tolerance", "1000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Run ledger" in out
        assert "0 regression(s)" in out

    def test_report_check_flags_doctored_regression(self, tmp_path, capsys):
        import json

        from repro.obs.ledger import Ledger, RunRecord

        ledger = self._run_twice(tmp_path)
        # Doctor a third record: nudge one coverage value by 0.1 %.
        last = json.loads(ledger.read_text().splitlines()[-1])
        record = RunRecord.from_dict(last)
        doctored = dict(record.coverage)
        first_label = sorted(doctored)[0]
        doctored[first_label] += 0.001
        Ledger(ledger).append(RunRecord(
            **{**last, "coverage": doctored, "record_id": ""}
        ))
        capsys.readouterr()
        code = main([
            "report", "--ledger", str(ledger), "--check",
            "--timing-tolerance", "1000",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regression(s) detected" in captured.err

    def test_report_html_and_export(self, tmp_path, capsys):
        import json

        ledger = self._run_twice(tmp_path)
        html = tmp_path / "dash.html"
        bench = tmp_path / "BENCH_4.json"
        code = main([
            "report", "--ledger", str(ledger),
            "--html", str(html), "--export", str(bench),
        ])
        assert code == 0
        assert html.read_text().startswith("<!DOCTYPE html>")
        doc = json.loads(bench.read_text())
        assert "table1" in doc["experiments"]
        assert doc["experiments"]["table1"]["runs"] == 2

    def test_report_markdown_mode_untouched(self, tmp_path, capsys):
        # No ledger flags -> the legacy markdown path, exactly as before.
        code = main(["report", "table2", "--scale", "tiny", "--seed", "1"])
        assert code == 0
        assert "Table 2" in capsys.readouterr().out

    def _gate(self, path, lines, capsys):
        """``report --check`` over one good record plus ``lines``."""
        from repro.obs.ledger import Ledger, RunRecord

        Ledger(path).append(RunRecord(experiment="table1", scale="tiny"))
        with path.open("a") as handle:
            handle.writelines(line + "\n" for line in lines)
        capsys.readouterr()
        code = main(["report", "--ledger", str(path), "--check"])
        return code, capsys.readouterr().err

    def test_report_check_fails_on_torn_last_line(self, tmp_path, capsys):
        code, err = self._gate(
            tmp_path / "l.jsonl", ['{"experiment": "table1", "cove'], capsys
        )
        assert code == 1
        assert "line 2: not JSON" in err
        assert "1 unreadable ledger line(s): line 2" in err

    def test_report_check_fails_on_only_corrupt_lines(self, tmp_path, capsys):
        path = tmp_path / "l.jsonl"
        path.write_text("not json\n[1, 2]\n")
        capsys.readouterr()
        code = main(["report", "--ledger", str(path), "--check"])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 1: not JSON" in err
        assert "line 2: not a JSON object" in err
        assert "2 unreadable ledger line(s): line 1, line 2" in err

    def test_report_check_fails_on_non_integer_schema(self, tmp_path, capsys):
        code, err = self._gate(
            tmp_path / "l.jsonl", ['{"experiment": "table1", "schema": "x"}'],
            capsys,
        )
        assert code == 1
        assert "line 2: schema 'x' is not an integer" in err
        assert "Traceback" not in err

    def test_report_check_fails_on_newer_schema(self, tmp_path, capsys):
        from repro.obs.ledger import LEDGER_SCHEMA_VERSION

        future = LEDGER_SCHEMA_VERSION + 1
        code, err = self._gate(
            tmp_path / "l.jsonl",
            ['{"experiment": "table1", "schema": %d}' % future], capsys,
        )
        assert code == 1
        assert f"line 2: schema {future} is newer" in err

    def test_report_without_check_renders_past_bad_lines(
        self, tmp_path, capsys
    ):
        path = tmp_path / "l.jsonl"
        self._gate(path, ["{torn"], capsys)
        assert main(["report", "--ledger", str(path)]) == 0
        captured = capsys.readouterr()
        assert "table1" in captured.out
        assert "warning: skipped ledger line 2" in captured.err

    def test_ledger_env_var_opts_in(self, tmp_path, capsys, monkeypatch):
        from repro.obs.ledger import LEDGER_ENV, Ledger

        ledger = tmp_path / "env-ledger.jsonl"
        monkeypatch.setenv(LEDGER_ENV, str(ledger))
        assert main([
            "experiment", "table1", "--scale", "tiny", "--seed", "1",
        ]) == 0
        assert len(Ledger(ledger).records()) == 1

    def test_sweep_records_to_ledger(self, tmp_path, capsys):
        from repro.obs.ledger import Ledger

        ledger = tmp_path / "ledger.jsonl"
        assert main([
            "sweep", "table5", "--scale", "tiny", "--seed", "1",
            "--budgets", "5", "--top", "3", "--ledger", str(ledger),
        ]) == 0
        (record,) = Ledger(ledger).records()
        assert record.kind == "sweep"
        assert record.experiment == "table5"
        assert record.result_digest
        assert record.counters["sweep.cache_misses"] == 0  # no cache dir

    def test_log_json_one_object_per_line(self, capsys):
        import json

        # An unknown experiment exercises the runner's retry logging.
        code = main([
            "--log-json", "--log-level", "info",
            "experiment", "tableXX", "--scale", "tiny", "--retries", "1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        json_lines = [
            line for line in err.splitlines()
            if line.startswith("{")
        ]
        assert json_lines, f"no JSON log lines in stderr: {err!r}"
        for line in json_lines:
            payload = json.loads(line)  # parseable, one object per line
            assert {"ts", "level", "logger", "message"} <= set(payload)

    def test_log_level_filters_human_output(self, capsys):
        code = main([
            "--log-level", "error",
            "experiment", "tableXX", "--scale", "tiny", "--retries", "1",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "retrying" not in err  # warning suppressed at error level
        assert "exhausted" in err  # error-level event shown


class TestBadCountsRejectedAtParse:
    """Each bad count or window is one argparse ``error:`` line, exit 2."""

    @pytest.mark.parametrize("argv, flag", [
        (["serve", "--queries", "-5"], "--queries"),
        (["query", "--slo-window", "-1", "3", "9"], "--slo-window"),
        (["sweep", "fig2b", "--num-sources", "0"], "--num-sources"),
        (["sweep", "table5", "--top", "0"], "--top"),
        (["select", "maxsg", "--budget", "0"], "--budget"),
        (["serve", "--budget", "-2"], "--budget"),
        (["query", "--budget", "0", "3", "9"], "--budget"),
        (["resilience", "--budget", "0"], "--budget"),
        (["resilience", "--steps", "0"], "--steps"),
        (["resilience", "--replicates", "0"], "--replicates"),
        (["convergence", "--budget", "0"], "--budget"),
        (["convergence", "--replicates", "0"], "--replicates"),
        (["admission", "--flows", "-5"], "--flows"),
        (["admission", "--pairs", "0"], "--pairs"),
        (["experiment", "table1", "--workers", "0"], "--workers"),
        (["sweep", "fig2b", "--workers", "0"], "--workers"),
        (["resilience", "--workers", "0"], "--workers"),
        (["experiment", "table1", "--timeout", "nan"], "--timeout"),
        (["experiment", "table1", "--timeout", "inf"], "--timeout"),
        (["experiment", "table1", "--timeout", "0"], "--timeout"),
        (["experiment", "table1", "--retries", "-1"], "--retries"),
    ])
    def test_rejected(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        errors = [
            line for line in capsys.readouterr().err.splitlines()
            if "error:" in line
        ]
        assert len(errors) == 1
        assert f"argument {flag}" in errors[0]


class TestKernelBackendFlagGone:
    """Each algorithm has one implementation, so there is nothing to pick."""

    @pytest.mark.parametrize("argv", [
        ["select", "maxsg", "--scale", "tiny", "--kernel-backend", "bitset"],
        ["experiment", "table2", "--scale", "tiny",
         "--kernel-backend", "bitset"],
        ["sweep", "fig2b", "--scale", "tiny", "--kernel-backend", "bitset"],
    ])
    def test_flag_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--kernel-backend" in capsys.readouterr().err


class TestBackendFlagGone:
    """The worker count alone picks the caller or a process pool, and
    ``convergence`` runs no parallel executor or result cache."""

    @pytest.mark.parametrize("argv, flag", [
        (["experiment", "table2", "--backend", "process"], "--backend"),
        (["sweep", "fig2b", "--backend", "process"], "--backend"),
        (["resilience", "--backend", "process"], "--backend"),
        (["convergence", "--workers", "2"], "--workers"),
        (["convergence", "--cache-dir", "d"], "--cache-dir"),
    ])
    def test_flag_is_an_argparse_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestIndexFlagGone:
    """The hub-label index is the only serving index; there is no family
    to pick."""

    def test_flag_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--scale", "tiny", "--index", "hub2"])
        assert exc.value.code == 2
        assert "--index" in capsys.readouterr().err


class TestClosedStdout:
    def test_reader_closing_early_prints_no_traceback(self):
        """A reader that closes the pipe (``| head``) ends the command
        without a traceback.  The read end is closed before the CLI
        starts, so its first write always meets a closed pipe."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p
        )
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "algorithms", "--json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert "Traceback" not in err, err
        assert "BrokenPipeError" not in err, err


class TestAdmission:
    def test_admission_runs_and_reports(self, capsys):
        code = main([
            "admission", "--scale", "tiny", "--seed", "1",
            "--flows", "400", "--pairs", "40",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Guaranteed-bandwidth admission" in out
        assert "accept ratio" in out
        assert "state digest" in out
        assert "flows/s" in out

    def test_admission_ledger_record(self, tmp_path, capsys):
        import json

        ledger = tmp_path / "ledger.jsonl"
        for _ in range(2):
            assert main([
                "admission", "--scale", "tiny", "--seed", "1",
                "--flows", "400", "--pairs", "40",
                "--ledger", str(ledger),
            ]) == 0
        capsys.readouterr()
        records = [json.loads(l) for l in ledger.read_text().splitlines()]
        assert len(records) == 2
        first, second = records
        assert first["kind"] == "admission"
        assert first["graph_digest"] == second["graph_digest"]
        # Repeat runs are bit-identical: the digest-gated table and the
        # admission state digest both match exactly.
        assert first["result_digest"] == second["result_digest"]
        assert (
            first["params"]["state_digest"] == second["params"]["state_digest"]
        )
        assert set(first["coverage"]) == {
            "accept@0.25x", "accept@0.5x", "accept@1x", "accept@2x",
            "accept@4x",
        }

    def test_admission_rejects_bad_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["admission", "--scale", "galactic"])
