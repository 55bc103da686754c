"""Trace analysis: read a trace file, rebuild span trees, find what gated them.

A trace is the one JSONL file a :class:`~repro.obs.tracer.Tracer`
exports; spans from process-pool workers are already in it, absorbed by
the parent tracer as each chunk came home (see
:meth:`~repro.obs.tracer.Tracer.absorb`).  This module answers questions
about it:

* :func:`read_trace` — load ``(meta, records)``, tolerating schema-1
  files (integer ids);
* :func:`build_trees` / :func:`critical_path` /
  :func:`render_critical_path` / :func:`render_flame` — span-tree
  reconstruction, critical-path extraction (at every span, descend into
  the child that *finished last* — the one that gated the parent), and
  a text flamegraph (name-merged aggregation with proportional bars),
  rendered by ``repro trace --flame`` / ``--critical-path``.

Critical-path timings are **budget-clamped**: a child's contribution is
capped at what remains of its parent's duration, so the reported
self-time sum can never exceed the root span's wall time even when
cross-process clock alignment leaves spans nominally longer than their
parents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


def read_trace(path: str | Path) -> tuple[dict, list[dict]]:
    """Load a trace file → ``(meta, records)``.

    Tolerates schema-1 traces (no ``schema`` field, integer ids): ids
    are stringified so downstream code sees one id type.
    """
    meta: dict = {}
    records: list[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type") == "meta":
                meta = record
            else:
                _normalize_ids(record)
                records.append(record)
    return meta, records


def _normalize_ids(record: dict) -> None:
    record["id"] = str(record["id"])
    if record.get("parent") is not None:
        record["parent"] = str(record["parent"])
    record.setdefault("trace", record["id"])


# ----------------------------------------------------------------------
# Span trees
# ----------------------------------------------------------------------

@dataclass
class SpanNode:
    """One span in a reconstructed tree."""

    record: dict
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record["name"]

    @property
    def start(self) -> float:
        return self.record["start"]

    @property
    def dur(self) -> float:
        return self.record["dur"]

    @property
    def end(self) -> float:
        return self.record["start"] + self.record["dur"]


def build_trees(records: list[dict]) -> list[SpanNode]:
    """Reconstruct span trees (roots sorted by start time).

    Events ride along as zero-duration leaves.  Records whose parent is
    unknown become roots: a span whose parent had not closed when the
    trace was exported, such as one inside a timed-out attempt that is
    still running.
    """
    nodes = {r["id"]: SpanNode(r) for r in records}
    roots: list[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.record.get("parent"))
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: n.start)
    roots.sort(key=lambda n: n.start)
    return roots


@dataclass(frozen=True)
class CriticalStep:
    """One hop of a critical path: a span and its gating self-time."""

    name: str
    span_id: str
    depth: int
    duration: float
    self_time: float


def critical_path(root: SpanNode) -> list[CriticalStep]:
    """The chain of spans that gated ``root``'s wall time.

    At each level, descend into the child that **finished last** — the
    one the parent had to wait for.  Each step's ``self_time`` is the
    parent's (budget-clamped) duration minus its children's; durations
    are clamped to the budget remaining from the root, so
    ``sum(step.self_time) <= root.dur`` holds by construction even when
    cross-process clock alignment leaves a child nominally longer than
    its parent.
    """
    steps: list[CriticalStep] = []

    node, depth, budget = root, 0, root.dur
    while True:
        d = min(node.dur, budget)
        children = [c for c in node.children if c.record["type"] == "span"]
        child_sum = sum(min(c.dur, d) for c in children)
        self_time = max(0.0, d - min(child_sum, d))
        steps.append(
            CriticalStep(
                name=node.name,
                span_id=node.record["id"],
                depth=depth,
                duration=d,
                self_time=self_time,
            )
        )
        if not children:
            break
        gating = max(children, key=lambda c: c.end)
        node, depth, budget = gating, depth + 1, d - self_time
    return steps


def render_critical_path(roots: list[SpanNode], *, limit: int = 5) -> str:
    """Text report: the critical path of the ``limit`` longest traces."""
    ordered = sorted(roots, key=lambda r: r.dur, reverse=True)[:limit]
    if not ordered:
        return "(no spans)"
    lines: list[str] = []
    for root in ordered:
        steps = critical_path(root)
        lines.append(
            f"trace {root.record['trace']}  root={root.name}"
            f"  wall={root.dur * 1e3:.3f} ms"
        )
        for step in steps:
            share = step.self_time / root.dur if root.dur else 0.0
            lines.append(
                f"  {'  ' * step.depth}{step.name}"
                f"  dur={step.duration * 1e3:.3f} ms"
                f"  self={step.self_time * 1e3:.3f} ms ({share:.0%})"
            )
        lines.append("")
    return "\n".join(lines).rstrip("\n")


# ----------------------------------------------------------------------
# Text flamegraph
# ----------------------------------------------------------------------

@dataclass
class _FlameNode:
    name: str
    total: float = 0.0
    count: int = 0
    children: dict = field(default_factory=dict)


def _fold(nodes: list[SpanNode], into: _FlameNode) -> None:
    for node in nodes:
        if node.record["type"] != "span":
            continue
        child = into.children.get(node.name)
        if child is None:
            child = into.children[node.name] = _FlameNode(node.name)
        child.total += node.dur
        child.count += 1
        _fold(node.children, child)


def render_flame(
    roots: list[SpanNode], *, width: int = 60, min_share: float = 0.002
) -> str:
    """Name-merged text flamegraph over every trace in the record set.

    Sibling spans with the same name aggregate (total duration, count);
    each line draws a bar proportional to the node's share of the total
    root duration.  Branches below ``min_share`` are elided with a
    ``(… n hidden)`` marker so deep traces stay readable.
    """
    forest = _FlameNode("<root>")
    _fold(roots, forest)
    total = sum(c.total for c in forest.children.values())
    if total <= 0:
        return "(no spans)"

    lines: list[str] = []

    def walk(node: _FlameNode, depth: int) -> None:
        ordered = sorted(
            node.children.values(), key=lambda c: c.total, reverse=True
        )
        hidden = 0
        for child in ordered:
            share = child.total / total
            if share < min_share:
                hidden += 1
                continue
            bar = "█" * max(1, round(share * width))
            lines.append(
                f"{'  ' * depth}{child.name:<{max(1, 36 - 2 * depth)}}"
                f" {child.total * 1e3:>10.3f} ms"
                f" {share:>6.1%} ×{child.count:<6d} {bar}"
            )
            walk(child, depth + 1)
        if hidden:
            lines.append(f"{'  ' * depth}(… {hidden} hidden)")

    walk(forest, 0)
    header = (
        f"flame over {len(roots)} trace(s), total {total * 1e3:.3f} ms"
        f"  (bar = share of total)"
    )
    return "\n".join([header, *lines])
