"""Command-line interface: ``repro-broker`` / ``python -m repro``.

Subcommands:

* ``generate`` — build a synthetic Internet topology and save it to disk.
* ``summarize`` — print the Table-2 style summary of a saved topology.
* ``algorithms`` — list the registered selection algorithms (name,
  capabilities, parameters; ``--json`` for machine-readable output).
* ``select`` — run a broker-selection algorithm on a scale profile.
* ``experiment`` — run one (or all) of the paper's tables/figures.
* ``sweep`` — parallel, cache-aware multi-seed/budget sweeps (fig2b, table5).
* ``cache`` — inspect or clear an on-disk result cache.
* ``trace`` — run one experiment with span tracing on and summarize it,
  or analyze a recorded trace file (``--input`` with ``--flame`` /
  ``--critical-path``).
* ``metrics`` — run an experiment (cold + warm-cache) and report the
  kernel/cache/runner counters from :mod:`repro.obs`.
* ``report`` — markdown experiment reports, and (with ``--ledger`` /
  ``--check`` / ``--html`` / ``--export``) the run-ledger views: history
  table, regression gate, single-file HTML dashboard, BENCH export.
* ``serve`` — build the hub-label serving index over a broker
  deployment and either drive the seeded closed-loop load generator
  (recording ``serving`` + ``slo`` ledger runs, with per-query
  latency/SLO summary tables) or expose a JSON-lines TCP query
  endpoint (``--port``) whose ``/health`` / ``/metrics`` / ``/slo``
  admin verbs serve live telemetry.
* ``query`` — one-shot path queries against the serving index.

``experiment``, ``sweep`` and ``resilience`` accept ``--workers`` (1 runs
in this process, more runs a process pool) and ``--cache-dir`` (the
parallel executor + result cache from :mod:`repro.parallel`); those
three and ``convergence`` accept ``--trace-out FILE`` (JSONL span trace
via :mod:`repro.obs`) and ``--ledger FILE`` (append one run record per
executed experiment; defaults to ``$REPRO_LEDGER`` when that is set).
The global ``--log-level`` / ``--log-json`` flags configure the
structured-logging bridge (:mod:`repro.obs.log`) for every subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from repro.datasets.loader import available_scales, load_internet
from repro.datasets.stats import summarize
from repro.exceptions import ReproError
from repro.graph.io import load_graph, save_graph


def _positive(kind, *, zero_ok: bool = False):
    """argparse type: a finite ``kind`` (``int`` or ``float``) above 0,
    or at least 0 when ``zero_ok``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        in_range = value >= 0 if zero_ok else value > 0
        if not (math.isfinite(value) and in_range):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'at least' if zero_ok else 'above'} 0, "
                f"got {text}"
            )
        return value

    return parse


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = load_internet(args.scale, seed=args.seed)
    save_graph(graph, args.output)
    print(f"wrote {graph!r} to {args.output}")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    if args.path:
        graph = load_graph(args.path)
    else:
        graph = load_internet(args.scale, seed=args.seed)
    summary = summarize(graph, estimate_short_paths=True, seed=args.seed)
    print(summary.as_table())
    return 0


def _cmd_algorithms(args: argparse.Namespace) -> int:
    """List the registered broker-selection algorithms."""
    from repro.core.registry import all_specs
    from repro.utils.tables import format_table

    specs = all_specs()
    if args.json:
        import json

        print(json.dumps([spec.describe() for spec in specs], indent=2))
        return 0
    rows = []
    for spec in specs:
        params = ", ".join(
            f"{p.name}={p.default!r}" for p in spec.params
        ) or "-"
        rows.append((
            spec.name,
            "yes" if spec.budgeted else "no",
            ", ".join(spec.capabilities) or "-",
            params,
            spec.summary,
        ))
    print(format_table(
        ["algorithm", "budgeted", "capabilities", "params", "summary"],
        rows,
        title=f"Registered algorithms ({len(specs)})",
    ))
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    from repro.core.registry import algorithm_names
    from repro.core.selector import BrokerSelector

    known = algorithm_names()
    if args.algorithm not in known:
        print(f"unknown algorithm {args.algorithm!r}; choose from {known}")
        return 2
    graph = load_internet(args.scale, seed=args.seed)
    selector = BrokerSelector(graph)
    result = selector.select(args.algorithm, args.budget, seed=args.seed)
    print(result.summary())
    if args.show_brokers:
        names = [graph.name_of(b) for b in result.broker_set[: args.show_brokers]]
        print("top brokers:", ", ".join(names))
    return 0


def _ledger_from_args(args: argparse.Namespace):
    """The ledger a command should append to, or ``None``.

    ``--ledger FILE`` wins; otherwise ``$REPRO_LEDGER`` opts the whole
    environment in (how CI and the benchmark suite record without
    touching each call site).  No flag, no env var — no ledger.
    """
    import os

    from repro.obs.ledger import LEDGER_ENV, Ledger

    path = getattr(args, "ledger", None) or os.environ.get(LEDGER_ENV)
    return Ledger(path) if path else None


def _cmd_ledger_report(args: argparse.Namespace) -> int:
    """The ledger half of ``repro report`` (--ledger/--check/--html/...)."""
    from repro.obs.ledger import Ledger, default_ledger_path
    from repro.obs.regress import RegressionPolicy, check_records
    from repro.obs.report import (
        export_bench,
        render_ledger_table,
        render_verdicts,
        write_dashboard,
    )

    ledger = Ledger(args.ledger or default_ledger_path())
    records = ledger.records()
    print(render_ledger_table(records, last=args.last,
                              title=f"Run ledger: {ledger.path}"))
    check = None
    if args.check or args.html:
        policy = RegressionPolicy(
            timing_tolerance=args.timing_tolerance,
            coverage_tolerance=args.coverage_tolerance,
        )
        check = check_records(records, policy)
        print()
        print(render_verdicts(check))
    if args.html:
        path = write_dashboard(records, args.html, check)
        print(f"\nwrote HTML dashboard ({len(records)} record(s)) to {path}")
    if args.export:
        document = export_bench(records, args.export)
        print(
            f"wrote BENCH export ({len(document['experiments'])} "
            f"experiment(s), {len(document['kernels'])} kernel metric(s)) "
            f"to {args.export}"
        )
    for lineno, reason in ledger.skipped:
        print(f"warning: skipped ledger line {lineno}: {reason}", file=sys.stderr)
    if not args.check:
        return 0
    errors = []
    if ledger.skipped:
        # A skipped line may be the very record the gate should judge.
        errors.append(
            f"{len(ledger.skipped)} unreadable ledger line(s): "
            + ", ".join(f"line {lineno}" for lineno, _ in ledger.skipped)
        )
    if not check.ok:
        errors.append(f"{len(check.regressions)} regression(s) detected")
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    return 1 if errors else 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.check or args.html or args.export or args.ledger:
        return _cmd_ledger_report(args)
    from repro.experiments import ExperimentConfig, list_experiments, run_experiment

    config = ExperimentConfig(scale=args.scale, seed=args.seed)
    lines = [
        "# Reproduction report",
        "",
        f"Scale: `{args.scale}` (seed {args.seed}), "
        f"{config.graph().num_nodes} nodes.",
        "",
    ]
    names = list_experiments() if not args.experiments else args.experiments
    for name in names:
        result = run_experiment(name, config)
        lines.append(f"## {name}")
        lines.append("")
        lines.append("```")
        lines.append(result.render())
        lines.append("```")
        lines.append("")
    text = "\n".join(lines)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
        print(f"wrote report for {len(names)} experiments to {args.output}")
    else:
        print(text)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.graph.export import write_dot, write_gexf

    graph = load_internet(args.scale, seed=args.seed)
    brokers: list[int] = []
    if args.brokers:
        from repro.core.maxsg import maxsg

        brokers = maxsg(graph, args.brokers)
    if args.format == "dot":
        write_dot(graph, args.output, brokers=brokers, max_nodes=args.max_nodes)
    else:
        write_gexf(graph, args.output, brokers=brokers)
    print(f"wrote {graph!r} ({len(brokers)} brokers highlighted) to {args.output}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ExperimentConfig,
        list_experiments,
        run_experiment_batch,
    )

    config = ExperimentConfig(scale=args.scale, seed=args.seed)
    names = list_experiments() if args.name == "all" else [args.name]
    batch = run_experiment_batch(
        names,
        config,
        retries=args.retries,
        timeout=args.timeout,
        checkpoint=args.checkpoint,
        seed=args.seed,
        workers=args.workers,
        cache_dir=args.cache_dir,
        ledger=_ledger_from_args(args),
    )
    if batch.resumed:
        print(f"resumed {len(batch.resumed)} experiment(s) from {args.checkpoint}")
    for result in batch.results:
        print(result.render())
        print()
    for failure in batch.failures:
        print(
            f"FAILED {failure.experiment_id}: {failure.error_type}: "
            f"{failure.message} ({failure.attempts} attempt(s), "
            f"{failure.elapsed:.1f}s)",
            file=sys.stderr,
        )
    return 0 if batch.ok else 1


def _build_fault_schedule(graph, brokers, args, seed: int):
    from repro.experiments.resilience import build_mixed_schedule
    from repro.resilience import (
        flapping_brokers,
        independent_crashes,
        link_cut_campaign,
        regional_outage,
        targeted_removals,
    )

    steps = args.steps
    if args.model == "independent":
        return independent_crashes(
            brokers, num_steps=steps, crash_prob=args.crash_prob, seed=seed
        )
    if args.model == "targeted":
        return targeted_removals(graph, brokers, count=min(steps, len(brokers)))
    if args.model == "regional":
        return regional_outage(graph, brokers, radius=args.radius, step=1, seed=seed)
    if args.model == "linkcut":
        return link_cut_campaign(
            graph, num_steps=steps, brokers=brokers, seed=seed,
            cuts_per_step=max(1, graph.num_edges // 500),
        )
    if args.model == "flapping":
        return flapping_brokers(
            brokers, num_steps=steps, seed=seed,
            num_flappers=max(1, len(brokers) // 5), down_for=2,
        )
    return build_mixed_schedule(graph, brokers, seed)  # mixed — the fig5d campaign


def _cmd_resilience(args: argparse.Namespace) -> int:
    from repro.core.maxsg import maxsg
    from repro.resilience import SlaPolicy, replay_many
    from repro.utils.tables import format_table

    graph = load_internet(args.scale, seed=args.seed)
    budget = args.budget or max(1, round(0.019 * graph.num_nodes))
    brokers = maxsg(graph, budget)
    seeds = list(range(args.seed, args.seed + args.replicates))
    schedules = [_build_fault_schedule(graph, brokers, args, s) for s in seeds]
    policy = SlaPolicy(threshold=args.sla, repair_budget=args.repair_budget)
    from repro.obs import Timer

    with Timer() as timer:
        sweep = replay_many(
            graph,
            brokers,
            schedules,
            policy=policy,
            heal=not args.no_heal,
            workers=args.workers,
            cache_dir=args.cache_dir,
        )
    rendered: list[str] = []
    for seed, schedule, report in zip(seeds, schedules, sweep.reports):
        title = (
            f"Resilience replay: {args.model} x{schedule.num_steps} steps, "
            f"{len(schedule)} faults, |B|={len(brokers)}, seed={seed}"
            f"{' (healing off)' if args.no_heal else ''}"
        )
        rendered.append(format_table(
            ["step", "faults", "degraded", "healed", "recruits"],
            report.as_rows(),
            title=title,
        ))
        print(rendered[-1])
        print(f"  {report.summary()}")
    ledger = _ledger_from_args(args)
    if ledger is not None:
        import hashlib

        from repro.obs.ledger import (
            RunRecord,
            git_revision,
            now,
            summarize_observation,
        )

        ledger.append(RunRecord(
            experiment=f"resilience-{args.model}",
            kind="sweep",
            scale=args.scale,
            seed=args.seed,
            git_rev=git_revision(),
            graph_digest=graph.digest(),
            params={"budget": budget, "steps": args.steps, "sla": args.sla,
                    "replicates": args.replicates, "heal": not args.no_heal},
            counters={"sweep.cache_hits": sweep.cache_hits,
                      "sweep.cache_misses": sweep.cache_misses},
            timings={"experiment.seconds": summarize_observation(timer.elapsed)},
            result_digest=hashlib.sha256(
                "\n".join(rendered).encode()
            ).hexdigest(),
            ts=now(),
        ))
    if args.cache_dir:
        print(
            f"cache: {sweep.cache_hits} hit(s), {sweep.cache_misses} miss(es) "
            f"in {args.cache_dir}"
        )
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    from repro.core.maxsg import maxsg
    from repro.experiments.convergence import (
        FAULT_KINDS,
        disruption_times,
        run_disruption_sweep,
        summarize_cells,
    )
    from repro.obs import Timer
    from repro.resilience import SlaPolicy
    from repro.simulation.convergence import LatencyModel
    from repro.utils.tables import format_table

    graph = load_internet(args.scale, seed=args.seed)
    budget = args.budget or max(1, round(0.019 * graph.num_nodes))
    brokers = maxsg(graph, budget)
    kinds = FAULT_KINDS if args.kind == "all" else (args.kind,)
    repair_budget = args.repair_budget or max(4, budget // 8)
    latency = LatencyModel(mrai=args.mrai, loss_prob=args.loss_prob)
    policy = SlaPolicy(threshold=args.sla, repair_budget=repair_budget)
    with Timer() as timer:
        cells = run_disruption_sweep(
            graph,
            brokers,
            kinds=kinds,
            replicates=args.replicates,
            seed=args.seed,
            latency=latency,
            policy=policy,
            num_destinations=args.destinations,
        )
    summary = format_table(
        ["fault kind", "model", "med TTFR", "med TTC",
         "med pair-s dark", "med msgs"],
        summarize_cells(cells),
        title=(
            f"Disruption time, |B|={len(brokers)} on {args.scale} "
            f"({args.replicates} replicate(s) per kind)"
        ),
    )
    print(summary)
    disruption = {
        model: disruption_times(cells, model) for model in ("broker", "bgp")
    }
    cdf_rows = []
    for model, times in disruption.items():
        if not times:
            cdf_rows.append((model, "-", "-", "-", "-", "-"))
            continue
        q = _quantile_row(times)
        cdf_rows.append((model, *q))
    cdf = format_table(
        ["model", "min", "p25", "median", "p75", "max"],
        cdf_rows,
        title="Time-to-full-convergence distribution (seconds after first fault)",
    )
    print(cdf)
    ledger = _ledger_from_args(args)
    if ledger is not None:
        import hashlib

        from repro.obs.ledger import (
            RunRecord,
            git_revision,
            now,
            summarize_observation,
        )

        digest_material = "\n".join(
            [summary, cdf]
            + [cell[m].digest() for cell in cells for m in ("broker", "bgp")]
        )
        ledger.append(RunRecord(
            experiment="convergence",
            kind="convergence",
            scale=args.scale,
            seed=args.seed,
            git_rev=git_revision(),
            graph_digest=graph.digest(),
            params={
                "budget": budget,
                "kinds": list(kinds),
                "replicates": args.replicates,
                "destinations": args.destinations,
                "sla": args.sla,
                "latency": latency.to_params(),
                "disruption": disruption,
            },
            counters={
                "convergence.cells": len(cells),
                "convergence.broker.messages": sum(
                    c["broker"].messages_sent for c in cells
                ),
                "convergence.bgp.messages": sum(
                    c["bgp"].messages_sent for c in cells
                ),
            },
            timings={"experiment.seconds": summarize_observation(timer.elapsed)},
            result_digest=hashlib.sha256(
                digest_material.encode()
            ).hexdigest(),
            ts=now(),
        ))
    return 0


def _cmd_admission(args: argparse.Namespace) -> int:
    from repro.experiments.admission import run_admission_study
    from repro.experiments.config import ExperimentConfig

    config = ExperimentConfig(scale=args.scale, seed=args.seed)
    study = run_admission_study(
        config,
        flows_per_level=args.flows,
        num_pairs=args.pairs,
    )
    rendered = study.result.render()
    print(rendered)
    print(
        f"kernel: {study.total_flows:,} flows in "
        f"{study.kernel_seconds:.2f}s "
        f"({study.flows_per_second:,.0f} flows/s), "
        f"{study.total_admitted:,} admitted"
    )
    ledger = _ledger_from_args(args)
    if ledger is not None:
        import hashlib

        from repro.obs.ledger import (
            RunRecord,
            git_revision,
            now,
            summarize_observation,
        )

        ledger.append(RunRecord(
            experiment="admission",
            kind="admission",
            scale=args.scale,
            seed=args.seed,
            git_rev=git_revision(),
            graph_digest=study.multigraph_digest,
            params={
                "flows_per_level": args.flows,
                "num_pairs": args.pairs,
                "state_digest": study.state_digest,
            },
            coverage=dict(study.result.paper_values),
            counters={
                "admission.flows": study.total_flows,
                "admission.admitted": study.total_admitted,
            },
            timings={
                "kernel.seconds": summarize_observation(study.kernel_seconds),
            },
            result_digest=hashlib.sha256(rendered.encode()).hexdigest(),
            ts=now(),
        ))
    return 0


def _quantile_row(times: list[float]) -> tuple[str, str, str, str, str]:
    import statistics

    qs = statistics.quantiles(times, n=4) if len(times) > 1 else [times[0]] * 3
    return (
        f"{min(times):.2f}s",
        f"{qs[0]:.2f}s",
        f"{statistics.median(times):.2f}s",
        f"{qs[2]:.2f}s",
        f"{max(times):.2f}s",
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentConfig
    from repro.obs import Timer

    config = ExperimentConfig(
        scale=args.scale,
        seed=args.seed,
        num_sources=args.num_sources,
    )
    budgets = args.budgets or None
    with Timer() as timer:
        if args.kind == "fig2b":
            from repro.experiments.fig2 import fig2b_seed_sweep

            result = fig2b_seed_sweep(
                config,
                seeds=args.seeds or None,
                budgets=budgets,
                workers=args.workers,
                cache_dir=args.cache_dir,
            )
        else:  # table5
            from repro.experiments.table5 import table5_budget_sweep

            result = table5_budget_sweep(
                config,
                budgets=budgets,
                top=args.top,
                workers=args.workers,
                cache_dir=args.cache_dir,
            )
    ledger = _ledger_from_args(args)
    if ledger is not None:
        from repro.experiments.sweeps import record_from_sweep

        ledger.append(record_from_sweep(
            args.kind,
            result,
            graph=config.graph(),
            scale=args.scale,
            seed=args.seed,
            params={"budgets": budgets, "top": getattr(args, "top", None),
                    "num_sources": args.num_sources},
            elapsed=timer.elapsed,
            algorithm="maxsg",
        ))
    text = result.to_json(indent=2 if args.pretty else None)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.kind} sweep ({len(result.payload['cells'])} cells) "
              f"to {args.output}")
    else:
        print(text)
    if args.cache_dir:
        print(
            f"cache: {result.cache_hits} hit(s), {result.cache_misses} miss(es) "
            f"in {args.cache_dir}",
            file=sys.stderr,
        )
    return 0


def _render_trace_analysis(records: list, args: argparse.Namespace) -> None:
    """Flame / critical-path views over span records (``repro trace``)."""
    from repro.obs.collect import (
        build_trees,
        render_critical_path,
        render_flame,
    )

    trees = build_trees(records)
    if args.flame:
        print()
        print(render_flame(trees))
    if args.critical_path:
        print()
        print(render_critical_path(trees))


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.utils.tables import format_table

    if args.input:
        # Analyze an existing trace file (e.g. a merged multi-process
        # trace from --trace-out) instead of running an experiment.
        from repro.obs.collect import read_trace

        meta, records = read_trace(args.input)
        spans = [r for r in records if r.get("type") == "span"]
        aggregate: dict[str, tuple[int, float]] = {}
        for record in spans:
            count, total = aggregate.get(record["name"], (0, 0.0))
            aggregate[record["name"]] = (count + 1, total + record["dur"])
        rows = [
            (name, count, f"{total:.4f}", f"{total / count:.6f}")
            for name, (count, total) in sorted(
                aggregate.items(), key=lambda kv: -kv[1][1]
            )
        ]
        print(format_table(
            ["span", "count", "total s", "mean s"],
            rows or [("(no spans)", "", "", "")],
            title=f"Trace summary: {args.input} "
                  f"({len(records)} record(s), schema "
                  f"{meta.get('schema', 1)})",
        ))
        _render_trace_analysis(records, args)
        return 0

    if not args.name:
        print("error: give an experiment name or --input FILE",
              file=sys.stderr)
        return 2

    from repro.experiments import ExperimentConfig, run_experiment
    from repro.obs import Tracer, use_tracer

    tracer = Tracer(metadata={
        "command": "trace",
        "experiment": args.name,
        "scale": args.scale,
        "seed": args.seed,
    })
    config = ExperimentConfig(scale=args.scale, seed=args.seed)
    with use_tracer(tracer):
        result = run_experiment(args.name, config)
    if args.show_result:
        print(result.render())
        print()
    rows = [
        (name, count, f"{total:.4f}", f"{total / count:.6f}")
        for name, (count, total) in sorted(
            tracer.aggregate().items(), key=lambda kv: -kv[1][1]
        )
    ]
    print(format_table(
        ["span", "count", "total s", "mean s"],
        rows,
        title=f"Trace summary: {args.name} ({args.scale}, seed {args.seed})",
    ))
    from repro.obs.metrics import iter_nonzero_counters

    counter_rows = [(name, value) for name, value in iter_nonzero_counters()]
    if counter_rows:
        print()
        print(format_table(
            ["counter", "value"], counter_rows, title="Nonzero counters",
        ))
    _render_trace_analysis(tracer.records, args)
    if args.output:
        count = tracer.export(args.output)
        print(f"wrote {count} trace record(s) to {args.output}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import tempfile

    from repro.experiments import ExperimentConfig, run_experiment_batch
    from repro.obs import get_registry

    config = ExperimentConfig(scale=args.scale, seed=args.seed)
    tmp = None
    cache_dir = args.cache_dir
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-metrics-")
        cache_dir = tmp.name
    try:
        for _ in range(max(1, args.runs)):
            batch = run_experiment_batch(
                [args.experiment], config, cache_dir=cache_dir, seed=args.seed
            )
            if not batch.ok:
                for failure in batch.failures:
                    print(
                        f"FAILED {failure.experiment_id}: "
                        f"{failure.error_type}: {failure.message}",
                        file=sys.stderr,
                    )
                return 1
    finally:
        if tmp is not None:
            tmp.cleanup()
    registry = get_registry()
    if args.format == "json":
        print(registry.to_json(indent=2))
    else:
        print(registry.render(
            title=f"Metrics: {args.experiment} x{max(1, args.runs)} "
                  f"({args.scale}, seed {args.seed})"
        ))
    return 0


def _slo_monitor_from_args(args: argparse.Namespace):
    """An :class:`SloMonitor` from ``--slo``/``--slo-window`` (or defaults)."""
    from repro.obs.slo import DEFAULT_SLOS, SloMonitor, parse_slo_spec

    specs = DEFAULT_SLOS
    raw = getattr(args, "slo", None)
    if raw:
        try:
            specs = tuple(parse_slo_spec(text) for text in raw)
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
    return SloMonitor(
        specs, horizon_s=getattr(args, "slo_window", 60.0)
    )


def _serving_stack(args: argparse.Namespace):
    """Engine + repairer + service over a seeded broker deployment."""
    from repro.core.engine import DominationEngine
    from repro.core.maxsg import maxsg
    from repro.parallel.cache import ResultCache
    from repro.serving import LabelRepairer, PathQueryService, build_index

    graph = load_internet(args.scale, seed=args.seed)
    budget = args.budget or max(1, round(0.019 * graph.num_nodes))
    brokers = maxsg(graph, budget)
    engine = DominationEngine(graph, brokers)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    index = build_index(engine, cache=cache)
    repairer = LabelRepairer(engine, index)
    service = PathQueryService(
        repairer, slo_monitor=_slo_monitor_from_args(args)
    )
    return graph, brokers, index, service


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import Timer
    from repro.serving import run_loadgen, serve_tcp

    graph, brokers, index, service = _serving_stack(args)
    print(
        f"hub2 index over {args.scale}: {index.n} vertices, "
        f"{len(brokers)} brokers, {index.label_entries()} label entries"
    )
    if args.port is not None:
        import asyncio

        async def forever() -> None:
            server = await serve_tcp(service, args.host, args.port)
            addr = server.sockets[0].getsockname()
            print(f"serving JSON-lines path queries on {addr[0]}:{addr[1]}")
            async with server:
                await server.serve_forever()

        try:
            asyncio.run(forever())
        except KeyboardInterrupt:  # pragma: no cover - interactive stop
            pass
        return 0
    with Timer() as timer:
        report = run_loadgen(service, index, args.queries, seed=args.seed)
    print(
        f"loadgen: {report.queries} queries, {report.reachable} reachable, "
        f"{report.errors} error(s), {report.throughput_qps:.0f} q/s, "
        f"digest {report.answers_digest}"
    )
    from repro.utils.tables import format_table

    slo_verdicts = service.slo.evaluate() if service.slo is not None else []
    latency_rows = [
        ("end-to-end p50", f"{report.latency_p50 * 1e3:.3f} ms"),
        ("end-to-end p99", f"{report.latency_p99 * 1e3:.3f} ms"),
        ("end-to-end max", f"{report.latency_max * 1e3:.3f} ms"),
    ]
    if service.slo is not None:
        window = service.slo.window.snapshot()
        latency_rows += [
            ("rolling p50", f"{window['p50'] * 1e3:.3f} ms"),
            ("rolling p99", f"{window['p99'] * 1e3:.3f} ms"),
            ("rolling error rate", f"{window['error_rate']:.4f}"),
        ]
    print(format_table(
        ["latency", "value"], latency_rows, title="Serving latency",
    ))
    if slo_verdicts:
        print(format_table(
            ["slo", "kind", "target", "burn rate", "alert", "status"],
            [
                (
                    v.spec.name, v.spec.kind, f"{v.spec.target:g}",
                    f"{v.burn_rate:.3f}", f"{v.spec.burn_alert:g}",
                    "BREACHED" if v.breached else "ok",
                )
                for v in slo_verdicts
            ],
            title="SLO verdicts",
        ))
    ledger = _ledger_from_args(args)
    if ledger is not None:
        from repro.obs import get_registry
        from repro.obs.ledger import (
            RunRecord,
            git_revision,
            now,
            summarize_observation,
        )

        histograms = get_registry().snapshot()["histograms"]
        timings = {"experiment.seconds": summarize_observation(timer.elapsed)}
        if "serving.query.seconds" in histograms:
            timings["serving.query.seconds"] = histograms[
                "serving.query.seconds"
            ]
        ledger.append(RunRecord(
            experiment="serving-loadgen",
            kind="serving",
            scale=args.scale,
            seed=args.seed,
            git_rev=git_revision(),
            graph_digest=graph.digest(),
            params={"budget": len(brokers), "queries": args.queries},
            counters={
                "serving.index.label_entries": index.label_entries(),
                "serving.loadgen.reachable": report.reachable,
                "serving.loadgen.errors": report.errors,
            },
            timings=timings,
            result_digest=report.answers_digest,
            ts=now(),
        ))
        if slo_verdicts:
            # A separate slo-kind record: the regression gate treats its
            # verdicts as absolute (any breach fails, even with no
            # baseline), so it must not share a group with the
            # digest/timing-gated serving record.
            breaches = sum(1 for v in slo_verdicts if v.breached)
            ledger.append(RunRecord(
                experiment="serving-slo",
                kind="slo",
                scale=args.scale,
                seed=args.seed,
                git_rev=git_revision(),
                graph_digest=graph.digest(),
                params={
                    "slos": [v.to_dict() for v in slo_verdicts],
                    "window": service.slo.window.snapshot(),
                    "queries": args.queries,
                },
                counters={
                    "slo.breaches": breaches,
                    "slo.total": len(slo_verdicts),
                },
                timings={
                    "serving.request.p99": summarize_observation(
                        report.latency_p99
                    ),
                },
                ts=now(),
            ))
            if breaches:
                print(
                    f"warning: {breaches} SLO breach(es) recorded to ledger",
                    file=sys.stderr,
                )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.serving import QueryRequest

    if len(args.pairs) % 2:
        print("error: queries are SRC DST pairs (got an odd id count)",
              file=sys.stderr)
        return 2
    _, _, _, service = _serving_stack(args)
    status = 0
    for src, dst in zip(args.pairs[::2], args.pairs[1::2]):
        response = service.resolve(QueryRequest(
            src=src, dst=dst, max_hops=args.max_hops,
            want_path=args.show_path,
        ))
        print(json.dumps(response.as_dict()))
        if not response.ok:
            status = 1
    return status


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.parallel.cache import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {args.cache_dir}")
        return 0
    print(cache.stats().render())
    return 0


def _add_parallel_flags(p: argparse.ArgumentParser) -> None:
    """The shared executor/cache knobs (``repro.parallel``)."""
    p.add_argument("--workers", type=_positive(int), default=1,
                   help="1 runs in this process; more runs a process pool "
                        "of that size (shared-memory graph)")
    p.add_argument("--cache-dir", default=None,
                   help="content-addressed result cache directory")
    _add_record_flags(p)


def _add_record_flags(p: argparse.ArgumentParser) -> None:
    """``--trace-out`` and ``--ledger``: where a run leaves its records."""
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="record a JSONL span trace of the run to FILE")
    p.add_argument("--ledger", default=None, metavar="FILE",
                   help="append run records to this JSONL ledger "
                        "(default: $REPRO_LEDGER when set)")


@contextlib.contextmanager
def _maybe_trace(args: argparse.Namespace):
    """Install a recording tracer for the command when ``--trace-out`` is set.

    The trace is exported even when the command fails, so a crashing run
    still leaves its spans behind for debugging.  Process-pool workers
    send their spans home with their results, so the file holds the
    whole run.
    """
    trace_out = getattr(args, "trace_out", None)
    if not trace_out:
        yield
        return
    from repro.obs import Tracer, use_tracer

    tracer = Tracer(metadata={
        "command": args.command,
        "scale": getattr(args, "scale", None),
        "seed": getattr(args, "seed", None),
    })
    with use_tracer(tracer):
        try:
            yield
        finally:
            count = tracer.export(trace_out)
            print(
                f"wrote {count} trace record(s) to {trace_out}",
                file=sys.stderr,
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-broker",
        description="Inter-domain routing via a small broker set — reproduction toolkit",
    )
    parser.add_argument("--log-level", choices=("debug", "info", "warning", "error"),
                        default="warning",
                        help="structured-log verbosity (default: warning)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit structured logs as one JSON object per "
                             "line on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate and save a synthetic topology")
    p.add_argument("--scale", choices=available_scales(), default="small")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="internet.json.gz")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("summarize", help="Table-2 style dataset summary")
    p.add_argument("--scale", choices=available_scales(), default="small")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--path", default=None, help="load a saved topology instead")
    p.set_defaults(fn=_cmd_summarize)

    p = sub.add_parser("algorithms",
                       help="list registered broker-selection algorithms")
    p.add_argument("--json", action="store_true",
                   help="emit the registry as JSON instead of a table")
    p.set_defaults(fn=_cmd_algorithms)

    p = sub.add_parser("select", help="run a broker-selection algorithm")
    p.add_argument("algorithm")
    p.add_argument("--budget", type=_positive(int), default=None)
    p.add_argument("--scale", choices=available_scales(), default="small")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--show-brokers", type=int, default=0)
    p.set_defaults(fn=_cmd_select)

    p = sub.add_parser("experiment", help="reproduce a paper table/figure")
    p.add_argument("name", help="experiment id (e.g. table1, fig5b) or 'all'")
    p.add_argument("--scale", choices=available_scales(), default="small")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--retries", type=_positive(int, zero_ok=True), default=0,
                   help="retry a failing experiment this many times "
                        "(exponential backoff, seeded jitter)")
    p.add_argument("--timeout", type=_positive(float), default=None,
                   help="per-experiment wall-clock budget in seconds")
    p.add_argument("--checkpoint", default=None,
                   help="JSON checkpoint file; reruns resume past "
                        "completed experiments")
    _add_parallel_flags(p)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("sweep",
                       help="parallel, cache-aware multi-seed/budget sweep")
    p.add_argument("kind", choices=("fig2b", "table5"))
    p.add_argument("--scale", choices=available_scales(), default="tiny")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", type=int, nargs="*", default=None,
                   help="sampling seeds (fig2b; default: the graph seed)")
    p.add_argument("--budgets", type=int, nargs="*", default=None,
                   help="broker budgets (default: the paper's three)")
    p.add_argument("--num-sources", type=_positive(int), default=None,
                   help="connectivity sample size (default: exact)")
    p.add_argument("--top", type=_positive(int), default=10,
                   help="ranked rows per cell (table5)")
    p.add_argument("--pretty", action="store_true", help="indent the JSON")
    p.add_argument("--output", default=None, help="write JSON to file")
    _add_parallel_flags(p)
    p.set_defaults(fn=_cmd_sweep)

    def _add_serving_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", choices=available_scales(), default="tiny")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--budget", type=_positive(int), default=None,
                       help="broker-set size (default: 1.9%% of nodes)")
        p.add_argument("--cache-dir", default=None,
                       help="content-addressed cache for index payloads")
        p.add_argument("--slo", action="append", default=None, metavar="SPEC",
                       help="SLO spec 'latency:NAME:TARGET:THRESHOLD_MS"
                            "[:BURN]' or 'availability:NAME:TARGET[:BURN]' "
                            "(repeatable; default: p99<250ms@0.99 + "
                            "availability@0.999)")
        p.add_argument("--slo-window", type=_positive(float), default=60.0,
                       help="sliding-window horizon in seconds for rolling "
                            "stats and SLO burn rates (default 60)")

    p = sub.add_parser("serve",
                       help="hub-label serving tier: loadgen run or TCP "
                            "query endpoint")
    _add_serving_flags(p)
    p.add_argument("--queries", type=_positive(int), default=1000,
                   help="closed-loop loadgen query count (default 1000)")
    p.add_argument("--port", type=int, default=None,
                   help="serve JSON-lines queries on this TCP port "
                        "instead of running the load generator")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address for --port (default 127.0.0.1)")
    p.add_argument("--ledger", default=None, metavar="FILE",
                   help="append 'serving' + 'slo' run records to this JSONL "
                        "ledger (default: $REPRO_LEDGER when set)")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="record a JSONL span trace of the run to FILE "
                        "(per-query serving.request span trees)")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("query",
                       help="one-shot path queries against the serving index")
    p.add_argument("pairs", type=int, nargs="+", metavar="SRC DST",
                   help="vertex id pairs: SRC DST [SRC DST ...]")
    p.add_argument("--max-hops", type=int, default=None,
                   help="hop bound folded into the reachability verdict")
    p.add_argument("--show-path", action="store_true",
                   help="also unfold a shortest dominated path")
    _add_serving_flags(p)
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser("cache", help="inspect or clear a result cache")
    p.add_argument("action", choices=("stats", "clear"))
    p.add_argument("cache_dir", help="cache directory")
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser("trace",
                       help="run one experiment with span tracing on, or "
                            "analyze a recorded trace file")
    p.add_argument("name", nargs="?", default=None,
                   help="experiment id (e.g. table1, fig5b); omit with "
                        "--input to analyze an existing trace")
    p.add_argument("--scale", choices=available_scales(), default="small")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--input", default=None, metavar="FILE",
                   help="analyze this JSONL trace (e.g. from --trace-out) "
                        "instead of running an experiment")
    p.add_argument("--flame", action="store_true",
                   help="render a name-merged text flamegraph")
    p.add_argument("--critical-path", action="store_true",
                   help="render the critical path of the longest traces")
    p.add_argument("--output", default=None, metavar="FILE",
                   help="also write the JSONL trace to FILE")
    p.add_argument("--show-result", action="store_true",
                   help="print the experiment's rendered output first")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("metrics",
                       help="run an experiment and report kernel metrics")
    p.add_argument("--experiment", default="table1",
                   help="experiment id to drive the kernels (default: table1)")
    p.add_argument("--scale", choices=available_scales(), default="tiny")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--runs", type=int, default=2,
                   help="repetitions (default 2 = cold run + warm-cache rerun)")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (default: a temp directory)")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("resilience",
                       help="replay a fault campaign + SLA self-healing")
    p.add_argument("--scale", choices=available_scales(), default="tiny")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--budget", type=_positive(int), default=None,
                   help="broker-set size (default: 1.9%% of nodes)")
    p.add_argument("--model", default="mixed",
                   choices=("independent", "targeted", "regional",
                            "linkcut", "flapping", "mixed"))
    p.add_argument("--steps", type=_positive(int), default=8)
    p.add_argument("--crash-prob", type=float, default=0.05,
                   help="per-step crash probability (independent model)")
    p.add_argument("--radius", type=int, default=1,
                   help="outage radius in hops (regional model)")
    p.add_argument("--sla", type=float, default=0.9,
                   help="SLA: fraction of baseline connectivity to defend")
    p.add_argument("--repair-budget", type=int, default=5,
                   help="max replacement brokers per SLA violation")
    p.add_argument("--no-heal", action="store_true",
                   help="replay the raw degradation without repairs")
    p.add_argument("--replicates", type=_positive(int), default=1,
                   help="replay this many seeded campaigns (seed, seed+1, ...)")
    _add_parallel_flags(p)
    p.set_defaults(fn=_cmd_resilience)

    p = sub.add_parser(
        "convergence",
        help="disruption time under failure: broker control plane "
             "vs message-level BGP (fig6)",
    )
    p.add_argument("--scale", choices=available_scales(), default="tiny")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--budget", type=_positive(int), default=None,
                   help="broker-set size (default: 1.9%% of nodes)")
    p.add_argument("--kind", default="all",
                   choices=("all", "targeted", "regional", "linkcut"),
                   help="fault kind (default: all three)")
    p.add_argument("--replicates", type=_positive(int), default=3,
                   help="seeded outages per fault kind (seed, seed+1, ...)")
    p.add_argument("--destinations", type=int, default=6,
                   help="sampled BGP destinations (per-message state cost)")
    p.add_argument("--sla", type=float, default=0.95,
                   help="SLA the broker controller defends")
    p.add_argument("--repair-budget", type=int, default=None,
                   help="recruits per incident (default: budget/8, min 4)")
    p.add_argument("--mrai", type=float, default=2.0,
                   help="BGP minimum route advertisement interval (seconds)")
    p.add_argument("--loss-prob", type=float, default=0.0,
                   help="broker control-message loss probability")
    _add_record_flags(p)
    p.set_defaults(fn=_cmd_convergence)

    p = sub.add_parser(
        "admission",
        help="guaranteed-bandwidth FCFS admission over the broker "
             "multigraph (vectorized batch kernel)",
    )
    p.add_argument("--scale", choices=available_scales(), default="small")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--flows", type=_positive(int), default=250_000,
                   help="flows per load level (5 levels; default 250000 "
                        "= 1.94M offered flows)")
    p.add_argument("--pairs", type=_positive(int), default=None,
                   help="pooled dominated paths (default: nodes/8, "
                        "clamped to [32, 512])")
    p.add_argument("--ledger", default=None, metavar="FILE",
                   help="append a run record to this JSONL ledger "
                        "(default: $REPRO_LEDGER when set)")
    p.set_defaults(fn=_cmd_admission)

    p = sub.add_parser(
        "report",
        help="markdown experiment reports, or run-ledger views "
             "(--ledger/--check/--html/--export)",
    )
    p.add_argument("experiments", nargs="*", help="experiment ids (default: all)")
    p.add_argument("--scale", choices=available_scales(), default="small")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--output", default=None, help="write to file instead of stdout")
    p.add_argument("--ledger", default=None, metavar="FILE",
                   help="run-ledger JSONL to report on "
                        "(default: $REPRO_LEDGER, else .repro/ledger.jsonl)")
    p.add_argument("--check", action="store_true",
                   help="run the regression gate; exit non-zero on any "
                        "regression verdict")
    p.add_argument("--html", default=None, metavar="FILE",
                   help="write a self-contained HTML dashboard to FILE")
    p.add_argument("--export", default=None, metavar="FILE",
                   help="write the BENCH_4.json document to FILE")
    p.add_argument("--last", type=int, default=None, metavar="N",
                   help="show only the newest N ledger records")
    p.add_argument("--timing-tolerance", type=float, default=0.25,
                   help="allowed fractional slowdown before a timing "
                        "regression (default 0.25)")
    p.add_argument("--coverage-tolerance", type=float, default=0.0,
                   help="allowed absolute coverage drift (default 0 = exact)")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("export", help="export the topology for Graphviz/Gephi")
    p.add_argument("--format", choices=("dot", "gexf"), default="gexf")
    p.add_argument("--scale", choices=available_scales(), default="tiny")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--brokers", type=int, default=0,
                   help="highlight a MaxSG broker set of this size")
    p.add_argument("--max-nodes", type=int, default=2000)
    p.add_argument("--output", default="topology.gexf")
    p.set_defaults(fn=_cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.obs.log import configure_logging

    configure_logging(args.log_level, json_output=args.log_json)
    try:
        with _maybe_trace(args):
            code = args.fn(args)
        sys.stdout.flush()  # surface a closed pipe here, not at exit
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away (``repro ... | head``).  Point stdout at
        # devnull so the flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
