"""Zero-dependency observability: tracing, metrics, profiling, ledger.

Two halves, all stdlib-only:

*In-process* (evaporates at exit):

* :mod:`repro.obs.tracer` — nested spans with JSON-lines export,
  contextvar-carried :class:`TraceContext` (trace/span/parent ids that
  survive asyncio task switches and serialize across processes), a
  no-op default (:class:`NullTracer`) so hot paths pay ~nothing when
  tracing is off, and :meth:`Tracer.absorb`, which re-times the spans a
  pool worker sends home onto the parent's clock;
* :mod:`repro.obs.collect` — reads a trace file back and renders
  critical paths / text flamegraphs from its span trees;
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and histograms (with exact quantiles up to a bounded-memory
  reservoir cutoff) the instrumented kernels/runner/executor/cache
  flush into, and :func:`counter_moves`, what a block moved (how a pool
  chunk's counters come home);
* :mod:`repro.obs.slo` — live serving telemetry: sliding-window
  rolling stats and declarative SLOs with burn-rate alerts;
* :mod:`repro.obs.profile` — the ``@profiled`` decorator combining both;
* :mod:`repro.obs.timing` — the shared :class:`Timer`;
* :mod:`repro.obs.log` — the structured-logging bridge behind the CLI's
  ``--log-level`` / ``--log-json`` flags.

*Longitudinal* (persists across sessions):

* :mod:`repro.obs.ledger` — the append-only JSONL run ledger, one
  content-addressed :class:`RunRecord` per experiment/benchmark run;
* :mod:`repro.obs.regress` — statistical regression detection against
  ledger baselines (median-of-ratios timings, exact coverage gates);
* :mod:`repro.obs.report` — ``repro report`` rendering: terminal
  tables, the BENCH export, and the single-file HTML dashboard.

See docs/observability.md for the span/metric/record schemas, and the
``repro trace`` / ``repro metrics`` / ``repro report`` CLI subcommands
for the user-facing surface.
"""

from repro.obs.metrics import (
    EXACT_SAMPLE_CUTOFF,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    add_counter,
    counter_moves,
    get_registry,
    metrics_disabled,
    metrics_enabled,
    observe,
    observe_many,
    set_gauge,
    set_metrics_enabled,
)
from repro.obs.timing import Timer
from repro.obs.profile import profiled
from repro.obs.tracer import (
    TRACE_SCHEMA_VERSION,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    current_context,
    get_tracer,
    set_tracer,
    use_span_context,
    use_tracer,
)
from repro.obs.collect import (
    CriticalStep,
    SpanNode,
    build_trees,
    critical_path,
    read_trace,
    render_critical_path,
    render_flame,
)
from repro.obs.slo import (
    DEFAULT_SLOS,
    SlidingWindow,
    SloMonitor,
    SloSpec,
    SloVerdict,
    parse_slo_spec,
)
from repro.obs.log import (
    HumanFormatter,
    JsonFormatter,
    configure_logging,
    get_logger,
)
from repro.obs.ledger import (
    LEDGER_ENV,
    LEDGER_SCHEMA_VERSION,
    Ledger,
    RunRecord,
    default_ledger_path,
    git_revision,
    summarize_observation,
    write_atomic,
)
from repro.obs.regress import (
    CheckResult,
    RegressionPolicy,
    Verdict,
    check_records,
    compare_run,
)
from repro.obs.report import (
    bench_document,
    export_bench,
    render_dashboard,
    render_ledger_table,
    render_verdicts,
    sparkline_svg,
    write_dashboard,
)

__all__ = [
    "CheckResult",
    "Counter",
    "CriticalStep",
    "DEFAULT_SLOS",
    "EXACT_SAMPLE_CUTOFF",
    "Gauge",
    "Histogram",
    "HumanFormatter",
    "JsonFormatter",
    "LEDGER_ENV",
    "LEDGER_SCHEMA_VERSION",
    "Ledger",
    "MetricsRegistry",
    "NullTracer",
    "RegressionPolicy",
    "RunRecord",
    "SlidingWindow",
    "SloMonitor",
    "SloSpec",
    "SloVerdict",
    "Span",
    "SpanNode",
    "TRACE_SCHEMA_VERSION",
    "Timer",
    "TraceContext",
    "Tracer",
    "Verdict",
    "add_counter",
    "bench_document",
    "build_trees",
    "check_records",
    "compare_run",
    "configure_logging",
    "counter_moves",
    "critical_path",
    "current_context",
    "default_ledger_path",
    "export_bench",
    "get_logger",
    "get_registry",
    "get_tracer",
    "git_revision",
    "metrics_disabled",
    "metrics_enabled",
    "observe",
    "observe_many",
    "parse_slo_spec",
    "profiled",
    "read_trace",
    "render_critical_path",
    "render_dashboard",
    "render_flame",
    "render_ledger_table",
    "render_verdicts",
    "set_gauge",
    "set_metrics_enabled",
    "set_tracer",
    "sparkline_svg",
    "summarize_observation",
    "use_span_context",
    "use_tracer",
    "write_atomic",
    "write_dashboard",
]
