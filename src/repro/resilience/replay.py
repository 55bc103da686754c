"""Deterministic replay of a fault schedule through the self-healer.

``replay_schedule`` is the resilience experiment loop: step the clock,
apply the step's faults, measure the degraded connectivity, let the SLA
monitor repair, and record everything.  Because the schedule is a frozen
event stream and the healer consults no RNG, two replays of the same
schedule produce bit-identical :class:`ResilienceReport` objects — the
property the determinism tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import AlgorithmError, ResilienceError
from repro.graph.asgraph import ASGraph
from repro.obs import add_counter, get_tracer, profiled
from repro.resilience.faults import FaultSchedule
from repro.resilience.healing import RepairRecord, SelfHealingBrokerSet, SlaPolicy


@dataclass(frozen=True)
class StepRecord:
    """Connectivity trajectory at one step of the replay."""

    step: int
    faults: int
    degraded: float  # after this step's faults, before any repair
    healed: float    # after the SLA repair (== degraded when none ran)
    added: tuple[int, ...]


@dataclass(frozen=True)
class ResilienceReport:
    """Full trajectory of one fault campaign + repair loop."""

    description: str
    baseline: float
    sla_target: float
    steps: tuple[StepRecord, ...]
    repairs: tuple[RepairRecord, ...]
    final_brokers: tuple[int, ...]

    # ------------------------------------------------------------------
    # Summary metrics
    # ------------------------------------------------------------------
    @property
    def min_degraded(self) -> float:
        return min((s.degraded for s in self.steps), default=self.baseline)

    @property
    def final_connectivity(self) -> float:
        return self.steps[-1].healed if self.steps else self.baseline

    @property
    def total_added(self) -> int:
        return sum(len(s.added) for s in self.steps)

    def recovery_times(self) -> list[int]:
        """Steps spent below the SLA target per violation episode.

        An episode opens when the *healed* connectivity of a step ends
        below the SLA target and closes at the first step back at/above
        it; a violation repaired within its own step counts as 0 (the
        repair restored the SLA before the step closed).
        """
        times: list[int] = []
        open_since: int | None = None
        for record in self.steps:
            below = record.healed < self.sla_target
            if below and open_since is None:
                open_since = record.step
            elif not below and open_since is not None:
                times.append(record.step - open_since)
                open_since = None
        if open_since is not None:
            times.append(self.steps[-1].step - open_since + 1)
        return times

    def as_rows(self) -> list[tuple]:
        """Table rows (step, faults, degraded, healed, recruits)."""
        return [
            (
                s.step,
                s.faults,
                f"{100 * s.degraded:.2f}%",
                f"{100 * s.healed:.2f}%",
                ",".join(str(b) for b in s.added) or "-",
            )
            for s in self.steps
        ]

    def summary(self) -> str:
        recovery = self.recovery_times()
        return (
            f"baseline {100 * self.baseline:.2f}%, "
            f"SLA {100 * self.sla_target:.2f}%, "
            f"min degraded {100 * self.min_degraded:.2f}%, "
            f"final {100 * self.final_connectivity:.2f}%, "
            f"{len(self.repairs)} repairs adding {self.total_added} brokers, "
            f"recovery steps {recovery if recovery else '[]'}"
        )


@profiled("resilience.replay")
def replay_schedule(
    graph: ASGraph,
    brokers: list[int],
    schedule: FaultSchedule,
    *,
    policy: SlaPolicy | None = None,
    heal: bool = True,
    verify_every: int = 0,
) -> ResilienceReport:
    """Run ``schedule`` against ``brokers`` and record the trajectory.

    ``heal=False`` replays the raw degradation (the no-insurance curve
    the paper's Section 7.2 worries about); ``heal=True`` lets the SLA
    monitor recruit repairs after each step's faults.

    ``verify_every=k`` cross-checks the healer's incrementally
    maintained :class:`~repro.core.engine.DominationEngine` against a
    from-scratch recomputation every ``k`` steps (and once more after
    the final step).  Divergence raises a structured
    :class:`~repro.exceptions.ResilienceError` carrying the step index
    and the engine's drift diagnosis — never a bare assertion.
    """
    if verify_every < 0:
        raise AlgorithmError(f"verify_every must be >= 0, got {verify_every}")
    tracer = get_tracer()
    healer = SelfHealingBrokerSet(graph, brokers, policy=policy)

    def _verify(step: int) -> None:
        try:
            healer.engine.verify()
        except AlgorithmError as exc:
            raise ResilienceError(
                "incremental replay state diverged from recomputation",
                step=step,
                details=str(exc),
            ) from exc

    steps: list[StepRecord] = []
    faults_applied = 0
    repairs = 0
    for step in range(1, schedule.num_steps + 1):
        with tracer.span("resilience.step", step=step) as span:
            events = schedule.at(step)
            for event in events:
                healer.apply(event)
            degraded = healer.connectivity()
            record = None
            if heal:
                record = healer.maybe_repair(step, current=degraded)
            healed = record.after if record is not None else degraded
            faults_applied += len(events)
            if record is not None:
                repairs += 1
            if verify_every and step % verify_every == 0:
                _verify(step)
            span.set(faults=len(events), degraded=degraded, healed=healed)
        steps.append(
            StepRecord(
                step=step,
                faults=len(events),
                degraded=degraded,
                healed=healed,
                added=record.added if record is not None else (),
            )
        )
    if verify_every and schedule.num_steps % verify_every != 0:
        _verify(schedule.num_steps)
    add_counter("resilience.steps", schedule.num_steps)
    add_counter("resilience.faults_applied", faults_applied)
    add_counter("resilience.repairs", repairs)
    return ResilienceReport(
        description=schedule.description,
        baseline=healer.baseline,
        sla_target=healer.sla_target,
        steps=tuple(steps),
        repairs=tuple(healer.repairs),
        final_brokers=tuple(healer.active_brokers),
    )


# ----------------------------------------------------------------------
# Serialization (result-cache entries are JSON)
# ----------------------------------------------------------------------

def report_to_dict(report: ResilienceReport) -> dict:
    """JSON-safe form of a :class:`ResilienceReport` (lossless)."""
    return {
        "description": report.description,
        "baseline": report.baseline,
        "sla_target": report.sla_target,
        "steps": [
            {
                "step": s.step,
                "faults": s.faults,
                "degraded": s.degraded,
                "healed": s.healed,
                "added": list(s.added),
            }
            for s in report.steps
        ],
        "repairs": [
            {
                "step": r.step,
                "before": r.before,
                "after": r.after,
                "added": list(r.added),
                "healed": r.healed,
            }
            for r in report.repairs
        ],
        "final_brokers": list(report.final_brokers),
    }


def report_from_dict(data: dict) -> ResilienceReport:
    """Inverse of :func:`report_to_dict`."""
    return ResilienceReport(
        description=str(data["description"]),
        baseline=float(data["baseline"]),
        sla_target=float(data["sla_target"]),
        steps=tuple(
            StepRecord(
                step=int(s["step"]),
                faults=int(s["faults"]),
                degraded=float(s["degraded"]),
                healed=float(s["healed"]),
                added=tuple(int(b) for b in s["added"]),
            )
            for s in data["steps"]
        ),
        repairs=tuple(
            RepairRecord(
                step=int(r["step"]),
                before=float(r["before"]),
                after=float(r["after"]),
                added=tuple(int(b) for b in r["added"]),
                healed=bool(r["healed"]),
            )
            for r in data["repairs"]
        ),
        final_brokers=tuple(int(b) for b in data["final_brokers"]),
    )


def schedule_cache_params(schedule: FaultSchedule) -> dict:
    """Canonical JSON-safe identity of a fault schedule (cache key part)."""
    return {
        "num_steps": schedule.num_steps,
        "description": schedule.description,
        "events": [
            [
                e.step,
                e.kind.value,
                -1 if e.node is None else int(e.node),
                list(e.endpoints) if e.endpoints is not None else [-1, -1],
                e.cause,
            ]
            for e in schedule.events
        ],
    }


# ----------------------------------------------------------------------
# Parallel, cache-aware replay sweeps
# ----------------------------------------------------------------------

#: Cache tag for one replayed schedule.
REPLAY_CELL_TAG = "resilience-replay"


def _replay_cell(task: dict) -> dict:
    """Replay one schedule against the worker's shared graph."""
    from repro.experiments.sweeps import worker_graph

    report = replay_schedule(
        worker_graph(),
        task["brokers"],
        task["schedule"],
        policy=task["policy"],
        heal=task["heal"],
    )
    return report_to_dict(report)


@dataclass(frozen=True)
class ReplaySweep:
    """Outcome of :func:`replay_many`.

    ``reports`` are full :class:`ResilienceReport` objects (inflated
    from the deterministic JSON cells in ``payload``); the cache
    counters describe this invocation only and are not in the payload.
    """

    reports: tuple[ResilienceReport, ...]
    payload: dict
    cache_hits: int = 0
    cache_misses: int = 0


def replay_many(
    graph: ASGraph,
    brokers: list[int],
    schedules: list[FaultSchedule],
    *,
    policy: SlaPolicy | None = None,
    heal: bool = True,
    workers: int = 1,
    cache_dir: str | Path | None = None,
) -> ReplaySweep:
    """Replay many fault campaigns over one shared topology.

    Each schedule's replay is independent — the embarrassingly parallel
    shape of a multi-seed resilience sweep — so replays are dispatched
    through :func:`repro.experiments.sweeps.run_cells` (shared-memory
    graph in a process pool) and cached content-addressed by graph
    digest + brokers + policy + the schedule's canonical event stream.
    Because :func:`replay_schedule` is deterministic, cached and
    recomputed cells are bit-identical.
    """
    from repro.experiments.sweeps import run_cells

    policy = policy if policy is not None else SlaPolicy()
    brokers = [int(b) for b in brokers]
    policy_params = {
        "threshold": policy.threshold,
        "repair_budget": policy.repair_budget,
        "max_total_added": policy.max_total_added,
    }
    cells = [
        (
            {
                "brokers": brokers,
                "policy": policy_params,
                "heal": heal,
                "schedule": schedule_cache_params(schedule),
            },
            {
                "schedule": schedule,
                "brokers": brokers,
                "policy": policy,
                "heal": heal,
            },
        )
        for schedule in schedules
    ]
    ordered, hits, misses = run_cells(
        graph,
        _replay_cell,
        cells,
        tag=REPLAY_CELL_TAG,
        workers=workers,
        cache_dir=cache_dir,
    )
    payload = {
        "sweep": "resilience-replay",
        "graph_digest": graph.digest(),
        "brokers": brokers,
        "heal": heal,
        "policy": policy_params,
        "num_schedules": len(schedules),
        "cells": ordered,
    }
    return ReplaySweep(
        reports=tuple(report_from_dict(c) for c in ordered),
        payload=payload,
        cache_hits=hits,
        cache_misses=misses,
    )
