"""Render the run ledger: terminal tables, BENCH export, HTML dashboard.

Three consumers of :mod:`repro.obs.ledger`, all behind the ``repro
report`` CLI subcommand:

* :func:`render_ledger_table` — the terminal view (one row per run);
* :func:`export_bench` — the machine-readable ``BENCH_4.json`` document
  CI publishes: per-experiment coverage series (the Table-1 numbers) and
  timing medians, plus the kernel timing histograms of the latest
  benchmark session;
* :func:`render_dashboard` — a self-contained single-file HTML dashboard
  with inline SVG sparklines for coverage and timing trends and a
  per-experiment drill-down table.  No external assets, no JavaScript —
  it opens from disk and from CI artifact storage alike.

The dashboard follows the repo-wide dataviz conventions: one accent hue
per sparkline (single series, so no legend), ink/surface colors defined
once as CSS custom properties with a selected dark mode, status colors
only for verdict states and always paired with a text label.
"""

from __future__ import annotations

import html as _html
import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from repro._version import __version__
from repro.obs.ledger import RunRecord, write_atomic
from repro.obs.regress import (
    STATUS_REGRESSION,
    CheckResult,
    Verdict,
)
from repro.utils.tables import format_table

#: Schema tag of the exported BENCH document.
BENCH_SCHEMA_VERSION = 4


def _ts_label(ts: float) -> str:
    if not ts:
        return "-"
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime(
        "%Y-%m-%d %H:%M"
    )


def _coverage_label(coverage: dict) -> str:
    if not coverage:
        return "-"
    parts = []
    for label in sorted(coverage):
        try:
            parts.append(f"{100 * float(coverage[label]):.2f}")
        except (TypeError, ValueError):
            parts.append(str(coverage[label]))
    return "/".join(parts)


def _primary_timing(record: RunRecord) -> float | None:
    for name in ("experiment.seconds", "benchmark.seconds"):
        summary = record.timings.get(name)
        if isinstance(summary, dict) and summary.get("p50") is not None:
            return float(summary["p50"])
    return None


def render_ledger_table(
    records: Sequence[RunRecord], *, last: int | None = None,
    title: str = "Run ledger",
) -> str:
    """The terminal view: one aligned row per ledger record."""
    shown = list(records)[-last:] if last else list(records)
    rows = []
    for r in shown:
        p50 = _primary_timing(r)
        rows.append((
            _ts_label(r.ts),
            r.kind,
            r.experiment,
            r.scale or "-",
            r.seed,
            r.git_rev or "-",
            _coverage_label(r.coverage),
            f"{p50:.3f}s" if p50 is not None else "-",
        ))
    if not rows:
        rows.append(("(empty ledger)", "", "", "", "", "", "", ""))
    return format_table(
        ["when (UTC)", "kind", "experiment", "scale", "seed", "git",
         "coverage %", "p50"],
        rows,
        title=f"{title} ({len(records)} record(s))",
    )


def render_verdicts(result: CheckResult) -> str:
    """Aligned table of regression verdicts (regressions first)."""
    ordered = sorted(
        result.verdicts, key=lambda v: (v.ok, v.experiment, v.metric)
    )
    rows = []
    for v in ordered:
        rows.append((
            v.status.upper() if not v.ok else v.status,
            v.experiment,
            v.metric,
            _fmt_value(v.baseline),
            _fmt_value(v.current),
            f"{v.ratio:.2f}x" if v.ratio is not None else "-",
            v.message or "-",
        ))
    if not rows:
        rows.append(("ok", "(no comparable records)", "", "", "", "", "-"))
    return format_table(
        ["status", "experiment", "metric", "baseline", "current", "ratio",
         "detail"],
        rows,
        title=f"Regression check: {len(result.regressions)} regression(s) "
              f"in {len(result.verdicts)} verdict(s)",
    )


def _fmt_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    return text[:12] if len(text) > 12 else text


# ----------------------------------------------------------------------
# BENCH export
# ----------------------------------------------------------------------

def bench_document(records: Sequence[RunRecord]) -> dict:
    """The ``BENCH_4.json`` payload: longitudinal series per experiment.

    ``experiments`` carries, per experiment id, the coverage series for
    every label (latest value last) and the primary timing-median
    series; ``kernels`` carries the full timing histograms of the most
    recent ``session``/``benchmark`` record that reported kernel
    timings.
    """
    experiments: dict[str, dict] = {}
    kernels: dict[str, dict] = {}
    git_rev = ""
    for record in records:
        if record.git_rev:
            git_rev = record.git_rev
        for name, summary in record.timings.items():
            if name.startswith("kernel.") and isinstance(summary, dict):
                kernels[name] = summary
        entry = experiments.setdefault(record.experiment, {
            "kind": record.kind,
            "runs": 0,
            "coverage": {},
            "timing_p50_seconds": [],
            "latest_coverage": {},
            "latest_git_rev": "",
        })
        entry["runs"] += 1
        entry["latest_git_rev"] = record.git_rev or entry["latest_git_rev"]
        for label, value in record.coverage.items():
            try:
                value = float(value)
            except (TypeError, ValueError):
                continue
            entry["coverage"].setdefault(label, []).append(value)
            entry["latest_coverage"][label] = value
        p50 = _primary_timing(record)
        if p50 is not None:
            entry["timing_p50_seconds"].append(p50)
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "version": __version__,
        "git_rev": git_rev,
        "num_records": len(records),
        "experiments": experiments,
        "kernels": kernels,
    }


def export_bench(records: Sequence[RunRecord], path: str | Path) -> dict:
    """Write :func:`bench_document` to ``path`` atomically; returns it."""
    document = bench_document(records)
    write_atomic(path, json.dumps(document, sort_keys=True, indent=2) + "\n")
    return document


# ----------------------------------------------------------------------
# HTML dashboard
# ----------------------------------------------------------------------

def sparkline_svg(
    values: Sequence[float],
    *,
    width: int = 220,
    height: int = 44,
    color: str = "var(--series-1)",
    label: str = "",
) -> str:
    """An inline SVG sparkline of ``values`` (oldest to newest).

    2px line, 3px end-dot on the latest value, per-point hover circles
    carrying native ``<title>`` tooltips; no axes (the surrounding card
    prints the latest value as text).
    """
    values = [float(v) for v in values]
    if not values:
        return ""
    pad = 4.0
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    n = len(values)
    step = (width - 2 * pad) / max(1, n - 1)

    def xy(i: int, v: float) -> tuple[float, float]:
        x = pad + i * step if n > 1 else width / 2.0
        y = pad + (height - 2 * pad) * (1.0 - (v - lo) / span)
        return round(x, 2), round(y, 2)

    points = [xy(i, v) for i, v in enumerate(values)]
    polyline = " ".join(f"{x},{y}" for x, y in points)
    last_x, last_y = points[-1]
    hover = "".join(
        f'<circle cx="{x}" cy="{y}" r="6" fill="transparent">'
        f"<title>{_html.escape(label)} #{i + 1}: {values[i]:.6g}</title>"
        f"</circle>"
        for i, (x, y) in enumerate(points)
    )
    aria = _html.escape(
        f"{label or 'series'}: {n} runs, latest {values[-1]:.6g}"
    )
    return (
        f'<svg class="spark" viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{aria}">'
        f'<polyline points="{polyline}" fill="none" stroke="{color}" '
        f'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
        f'<circle cx="{last_x}" cy="{last_y}" r="3" fill="{color}"/>'
        f"{hover}</svg>"
    )


def cdf_svg(
    series: dict[str, Sequence[float]],
    *,
    width: int = 300,
    height: int = 120,
    unit: str = "s",
) -> str:
    """Inline-SVG empirical CDF staircases, one per named series.

    Series are drawn in name order with the dashboard's ``--series-N``
    palette; every step carries a native tooltip.  Built for the
    convergence records' disruption-time comparison (broker vs BGP),
    but any ``name -> samples`` mapping renders.
    """
    named = [
        (name, sorted(float(v) for v in values))
        for name, values in sorted(series.items())
        if values
    ]
    if not named:
        return ""
    pad = 6.0
    hi = max(values[-1] for _, values in named)
    lo = 0.0
    span = (hi - lo) or 1.0

    def x_of(v: float) -> float:
        return round(pad + (width - 2 * pad) * (v - lo) / span, 2)

    def y_of(frac: float) -> float:
        return round(pad + (height - 2 * pad) * (1.0 - frac), 2)

    parts: list[str] = []
    for index, (name, values) in enumerate(named):
        color = f"var(--series-{index % 2 + 1})"
        n = len(values)
        points = [(x_of(lo), y_of(0.0))]
        for i, v in enumerate(values):
            x = x_of(v)
            points.append((x, points[-1][1]))
            points.append((x, y_of((i + 1) / n)))
        points.append((x_of(hi), y_of(1.0)))
        polyline = " ".join(f"{x},{y}" for x, y in points)
        parts.append(
            f'<polyline points="{polyline}" fill="none" stroke="{color}" '
            'stroke-width="2" stroke-linejoin="round"/>'
        )
        parts.append("".join(
            f'<circle cx="{x_of(v)}" cy="{y_of((i + 1) / n)}" r="5" '
            'fill="transparent">'
            f"<title>{_html.escape(name)}: {v:.6g}{unit} "
            f"&le; {(100 * (i + 1) / n):.0f}%</title></circle>"
            for i, v in enumerate(values)
        ))
        parts.append(
            f'<text x="{width - pad}" y="{pad + 12 + 14 * index}" '
            f'text-anchor="end" font-size="11" fill="{color}">'
            f"{_html.escape(name)}</text>"
        )
    aria = _html.escape(
        "CDF of " + ", ".join(
            f"{name} ({len(values)} samples)" for name, values in named
        )
    )
    return (
        f'<svg class="cdf" viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="{aria}">{"".join(parts)}'
        "</svg>"
    )


_DASHBOARD_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --text-muted: #898781;
  --grid: #e1e0d9;
  --border: rgba(11, 11, 11, 0.10);
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --status-good: #0ca30c;
  --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --text-muted: #898781;
    --grid: #2c2c2a;
    --border: rgba(255, 255, 255, 0.10);
    --series-1: #3987e5;
    --series-2: #d95926;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 0 0 8px; }
.sub { color: var(--text-secondary); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 20px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 16px; min-width: 130px;
}
.tile .v { font-size: 24px; font-weight: 600; }
.tile .k { color: var(--text-muted); font-size: 12px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px; margin-bottom: 16px;
}
.meta { color: var(--text-muted); font-size: 12px; }
.sparkrow { display: flex; flex-wrap: wrap; gap: 20px; margin: 10px 0 6px; }
.sparkcell .lbl { font-size: 12px; color: var(--text-secondary); }
.sparkcell .val { font-size: 16px; font-weight: 600; }
table { border-collapse: collapse; width: 100%; margin-top: 8px; }
th, td {
  text-align: left; padding: 4px 10px 4px 0;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums;
}
th { color: var(--text-muted); font-weight: 500; font-size: 12px; }
.status { font-weight: 600; }
.status.good { color: var(--status-good); }
.status.bad { color: var(--status-critical); }
.verdict-msg { color: var(--text-secondary); }
"""


def _verdict_rows(verdicts: Sequence[Verdict]) -> str:
    rows = []
    for v in sorted(verdicts, key=lambda v: (v.ok, v.experiment, v.metric)):
        if v.status == STATUS_REGRESSION:
            badge = '<span class="status bad">&#9888; regression</span>'
        else:
            badge = f'<span class="status good">&#10003; {v.status}</span>'
        rows.append(
            "<tr>"
            f"<td>{badge}</td>"
            f"<td>{_html.escape(v.experiment)}</td>"
            f"<td>{_html.escape(v.metric)}</td>"
            f"<td>{_html.escape(_fmt_value(v.baseline))}</td>"
            f"<td>{_html.escape(_fmt_value(v.current))}</td>"
            f"<td class='verdict-msg'>{_html.escape(v.message or '-')}</td>"
            "</tr>"
        )
    return "".join(rows)


def _slo_section(records: Sequence[RunRecord]) -> str:
    """A card summarizing the newest ``slo``-kind record per group.

    Shows each declared SLO's windowed burn rate against its alert
    threshold — the live serving telemetry as it was captured at
    record time (the same verdicts the regression gate judges).
    """
    newest: dict[tuple, RunRecord] = {}
    for record in records:
        if record.kind == "slo":
            newest[record.group_key()] = record
    if not newest:
        return ""
    rows: list[str] = []
    for key in sorted(newest, key=str):
        record = newest[key]
        slos = record.params.get("slos")
        if not isinstance(slos, list):
            continue
        for slo in slos:
            breached = bool(slo.get("breached"))
            badge = (
                '<span class="status bad">&#9888; breached</span>'
                if breached
                else '<span class="status good">&#10003; ok</span>'
            )
            burn = slo.get("burn_rate")
            alert = slo.get("burn_alert")
            burn_cell = f"{float(burn):.3f}" if burn is not None else "-"
            if alert is not None:
                burn_cell += f" / {float(alert):.2f}"
            rows.append(
                "<tr>"
                f"<td>{badge}</td>"
                f"<td>{_html.escape(record.experiment)}</td>"
                f"<td>{_html.escape(str(slo.get('name', '?')))}</td>"
                f"<td>{_html.escape(str(slo.get('kind', '?')))}</td>"
                f"<td>{float(slo.get('target', 0.0)):.4g}</td>"
                f"<td>{burn_cell}</td>"
                f"<td>{int(slo.get('bad', 0))}/{int(slo.get('total', 0))}"
                "</td></tr>"
            )
    if not rows:
        return ""
    return f"""
<div class="card">
  <h2>Serving SLOs <span class="meta">burn rate = windowed bad fraction
    / error budget; breach at burn &ge; alert</span></h2>
  <table>
    <thead><tr><th>status</th><th>experiment</th><th>slo</th><th>kind</th>
      <th>target</th><th>burn / alert</th><th>bad/total</th></tr></thead>
    <tbody>{''.join(rows)}</tbody>
  </table>
</div>"""


def render_dashboard(
    records: Sequence[RunRecord],
    check: CheckResult | None = None,
    *,
    title: str = "Reproduction run ledger",
) -> str:
    """The self-contained single-file HTML dashboard."""
    groups: dict[tuple, list[RunRecord]] = {}
    for record in records:
        groups.setdefault(record.group_key(), []).append(record)
    n_regressions = len(check.regressions) if check is not None else 0
    status_tile = (
        f'<span class="status bad">&#9888; {n_regressions}</span>'
        if n_regressions
        else '<span class="status good">&#10003; 0</span>'
    )
    tiles = f"""
<div class="tiles">
  <div class="tile"><div class="v">{len(records)}</div>
    <div class="k">ledger records</div></div>
  <div class="tile"><div class="v">{len(groups)}</div>
    <div class="k">experiment groups</div></div>
  <div class="tile"><div class="v">{status_tile}</div>
    <div class="k">regressions</div></div>
</div>"""

    cards: list[str] = []
    for key in sorted(groups, key=str):
        history = groups[key]
        latest = history[-1]
        sparkcells: list[str] = []
        labels = sorted({
            label for r in history for label in r.coverage
        })
        for label in labels:
            series = [
                float(r.coverage[label]) for r in history
                if label in r.coverage
            ]
            if not series:
                continue
            sparkcells.append(
                '<div class="sparkcell">'
                f'<div class="lbl">coverage {_html.escape(label)}</div>'
                f'<div class="val">{100 * series[-1]:.2f}%</div>'
                + sparkline_svg(
                    series, label=f"coverage {label}",
                    color="var(--series-1)",
                )
                + "</div>"
            )
        timing_series = [
            t for t in (_primary_timing(r) for r in history) if t is not None
        ]
        if timing_series:
            sparkcells.append(
                '<div class="sparkcell">'
                '<div class="lbl">wall-clock p50</div>'
                f'<div class="val">{timing_series[-1]:.3f}s</div>'
                + sparkline_svg(
                    timing_series, label="wall-clock p50 seconds",
                    color="var(--series-2)",
                )
                + "</div>"
            )
        disruption = latest.params.get("disruption")
        if isinstance(disruption, dict):
            cdf = cdf_svg({
                str(model): samples
                for model, samples in disruption.items()
                if isinstance(samples, (list, tuple)) and samples
            })
            if cdf:
                sparkcells.append(
                    '<div class="sparkcell">'
                    '<div class="lbl">disruption-time CDF '
                    "(time-to-full-convergence)</div>" + cdf + "</div>"
                )
        recent = history[-8:]
        run_rows = "".join(
            "<tr>"
            f"<td>{_html.escape(_ts_label(r.ts))}</td>"
            f"<td>{_html.escape(r.git_rev or '-')}</td>"
            f"<td>{_html.escape(_coverage_label(r.coverage))}</td>"
            f"<td>{_primary_timing(r):.3f}s</td>"
            "</tr>"
            if _primary_timing(r) is not None else
            "<tr>"
            f"<td>{_html.escape(_ts_label(r.ts))}</td>"
            f"<td>{_html.escape(r.git_rev or '-')}</td>"
            f"<td>{_html.escape(_coverage_label(r.coverage))}</td>"
            "<td>-</td>"
            "</tr>"
            for r in reversed(recent)
        )
        cards.append(f"""
<div class="card">
  <h2>{_html.escape(latest.experiment)}
    <span class="meta">{_html.escape(latest.kind)} &middot;
    scale {_html.escape(latest.scale or '-')} &middot;
    seed {latest.seed} &middot; {len(history)} run(s)</span></h2>
  <div class="sparkrow">{''.join(sparkcells) or
    '<span class="meta">no coverage/timing series recorded</span>'}</div>
  <table>
    <thead><tr><th>when (UTC)</th><th>git</th><th>coverage %</th>
      <th>p50</th></tr></thead>
    <tbody>{run_rows}</tbody>
  </table>
</div>""")

    verdict_section = ""
    if check is not None:
        verdict_section = f"""
<div class="card">
  <h2>Regression check</h2>
  <table>
    <thead><tr><th>status</th><th>experiment</th><th>metric</th>
      <th>baseline</th><th>current</th><th>detail</th></tr></thead>
    <tbody>{_verdict_rows(check.verdicts)}</tbody>
  </table>
</div>"""

    generated = _ts_label(max((r.ts for r in records), default=0.0))
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_html.escape(title)}</title>
<style>{_DASHBOARD_CSS}</style>
</head>
<body>
<h1>{_html.escape(title)}</h1>
<p class="sub">repro v{_html.escape(__version__)} &middot;
latest record {generated} UTC</p>
{tiles}
{verdict_section}
{_slo_section(records)}
{''.join(cards)}
</body>
</html>
"""


def write_dashboard(
    records: Sequence[RunRecord],
    path: str | Path,
    check: CheckResult | None = None,
    *,
    title: str = "Reproduction run ledger",
) -> Path:
    """Render and write the dashboard; returns the written path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_dashboard(records, check, title=title))
    return target
