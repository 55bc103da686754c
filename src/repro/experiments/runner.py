"""Experiment registry, result container, and the hardened batch runner.

Each experiment module registers a callable ``ExperimentConfig ->
ExperimentResult``; the CLI and the benchmark suite look experiments up
by their paper artifact id (``"table1"``, ``"fig5b"``, ...).

:func:`run_experiment_batch` is the fault-tolerant entry point for
multi-experiment sweeps: per-experiment retry with exponential backoff
(jitter drawn from a seeded RNG, so a retried batch is reproducible),
per-experiment wall-clock timeouts, JSON checkpoint/resume so a killed
sweep continues where it stopped, and structured
:class:`ExperimentFailure` records so one broken experiment degrades the
batch gracefully instead of aborting it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import CheckpointError, ReproError
from repro.experiments.config import ExperimentConfig
from repro.obs import (
    add_counter,
    counter_moves,
    get_logger,
    get_tracer,
    write_atomic,
)
from repro.obs.ledger import (
    Ledger,
    RunRecord,
    git_revision,
    now as _ledger_now,
    summarize_observation,
)
from repro.parallel.cache import ResultCache
from repro.parallel.executor import parallel_map, run_with_timeout
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.tables import format_table

_log = get_logger("runner")


@dataclass(frozen=True)
class ExperimentResult:
    """Uniform output of every experiment.

    ``rows``/``headers`` hold the regenerated table; ``paper_values``
    (when applicable) maps row keys to the number the paper reports so
    EXPERIMENTS.md can show paper-vs-measured side by side.
    """

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: list[Sequence[object]]
    notes: str = ""
    paper_values: dict = field(default_factory=dict)

    def render(self) -> str:
        """ASCII rendering for the CLI / bench output."""
        text = format_table(self.headers, self.rows, title=self.title)
        if self.notes:
            text += f"\n  note: {self.notes}"
        return text


_REGISTRY: dict[str, Callable[[ExperimentConfig], ExperimentResult]] = {}


def register(name: str):
    """Decorator adding an experiment function to the registry."""

    def deco(fn: Callable[[ExperimentConfig], ExperimentResult]):
        if name in _REGISTRY:
            raise ReproError(f"duplicate experiment registration: {name}")
        _REGISTRY[name] = fn
        return fn

    return deco


def _ensure_loaded() -> None:
    # Experiment modules self-register on import.
    from repro.experiments import (  # noqa: F401
        ablations,
        admission,
        convergence,
        dynamics,
        economics,
        extensions,
        fig1,
        fig2,
        fig3,
        fig4,
        fig5,
        resilience,
        table1,
        table2,
        table3,
        table4,
        table5,
    )


def list_experiments() -> list[str]:
    """All registered experiment ids, sorted."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def run_experiment(
    name: str, config: ExperimentConfig | None = None
) -> ExperimentResult:
    """Run one experiment by id."""
    _ensure_loaded()
    if name not in _REGISTRY:
        raise ReproError(
            f"unknown experiment {name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name](config or ExperimentConfig())


# ----------------------------------------------------------------------
# Hardened batch execution
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentFailure:
    """Structured record of one experiment that exhausted its retries."""

    experiment_id: str
    attempts: int
    error_type: str
    message: str
    elapsed: float

    def as_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "attempts": self.attempts,
            "error_type": self.error_type,
            "message": self.message,
            "elapsed": self.elapsed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentFailure":
        return cls(
            experiment_id=str(data["experiment_id"]),
            attempts=int(data["attempts"]),
            error_type=str(data["error_type"]),
            message=str(data["message"]),
            elapsed=float(data["elapsed"]),
        )


@dataclass(frozen=True)
class BatchResult:
    """Outcome of a hardened multi-experiment run."""

    results: list[ExperimentResult]
    failures: list[ExperimentFailure]
    resumed: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _jsonify(value):
    """Coerce numpy scalars/arrays and tuples into JSON-safe values.

    Arbitrary objects (e.g. a ``DatasetSummary`` stuffed into
    ``paper_values``) degrade to dicts or strings — the rendered table
    only depends on ``headers``/``rows``, so this is lossless where the
    resume-equivalence guarantee needs it to be.
    """
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonify(dataclasses.asdict(value))
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def result_to_dict(result: ExperimentResult) -> dict:
    """JSON-normalized form of an :class:`ExperimentResult`.

    Round-tripping through this form stringifies ``paper_values`` keys
    and turns row tuples into lists — the *rendered* table is identical,
    which is what checkpoint/resume equivalence is defined over.
    """
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "headers": _jsonify(list(result.headers)),
        "rows": _jsonify(result.rows),
        "notes": result.notes,
        "paper_values": _jsonify(result.paper_values),
    }


def result_from_dict(data: dict) -> ExperimentResult:
    return ExperimentResult(
        experiment_id=str(data["experiment_id"]),
        title=str(data["title"]),
        headers=list(data["headers"]),
        rows=[tuple(row) for row in data["rows"]],
        notes=str(data.get("notes", "")),
        paper_values=dict(data.get("paper_values", {})),
    )


def _coverage_from_paper_values(paper_values: dict) -> dict:
    """The deterministic fractions a result reports, keyed by label.

    Experiments shape ``paper_values`` as ``{label: {"paper": x,
    "measured": y, ...}}`` (the Table-1 style), as ``{label: {key:
    number, ...}}`` (curves and per-policy values) or as ``{label:
    number}``.  The first gives ``{label: measured}``, the second one
    ``"label/key"`` per numeric leaf, so the ledger's exact regression
    gate covers every deterministic headline value.  Booleans, strings
    and arrays are skipped.
    """
    coverage: dict[str, float] = {}
    for label, value in paper_values.items():
        if not isinstance(value, dict):
            leaves = {str(label): value}
        elif "measured" in value:
            leaves = {str(label): value["measured"]}
        else:
            leaves = {f"{label}/{key}": leaf for key, leaf in value.items()}
        for name, leaf in leaves.items():
            if isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
                coverage[name] = float(leaf)
    return coverage


def record_from_result(
    result: ExperimentResult,
    config: ExperimentConfig,
    *,
    elapsed: float | None = None,
    kind: str = "experiment",
) -> RunRecord:
    """Build the ledger :class:`RunRecord` for one experiment result.

    Captures git revision, graph digest (cheap — the graph is lru-cached
    after the experiment ran), the flattened coverage values, the run's
    wall-clock as a one-observation histogram, and the SHA-256 of the
    rendered table as the exact-match ``result_digest``.  ``counters``
    is left empty: only the runner knows which counters one experiment's
    attempts moved, and it fills them in.
    """
    try:
        graph_digest = config.graph().digest()
    except Exception:  # noqa: BLE001 — a record beats no record
        graph_digest = ""
    timings = (
        {"experiment.seconds": summarize_observation(elapsed)}
        if elapsed is not None
        else {}
    )
    return RunRecord(
        experiment=result.experiment_id,
        kind=kind,
        scale=config.scale,
        seed=config.seed,
        git_rev=git_revision(),
        graph_digest=graph_digest,
        params=_experiment_cache_params(config),
        coverage=_coverage_from_paper_values(result.paper_values),
        timings=timings,
        result_digest=hashlib.sha256(result.render().encode()).hexdigest(),
        ts=_ledger_now(),
    )


_CHECKPOINT_VERSION = 1


def _load_checkpoint(path: Path, config: ExperimentConfig) -> dict:
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if data.get("version") != _CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {data.get('version')!r}, "
            f"expected {_CHECKPOINT_VERSION}"
        )
    if data.get("scale") != config.scale or data.get("seed") != config.seed:
        raise CheckpointError(
            f"checkpoint {path} was written for scale={data.get('scale')!r} "
            f"seed={data.get('seed')!r}, not scale={config.scale!r} "
            f"seed={config.seed!r}"
        )
    return data


def _write_checkpoint(
    path: Path,
    config: ExperimentConfig,
    completed: dict[str, dict],
    failures: list[ExperimentFailure],
) -> None:
    """Atomic write (tmp file + rename) so a kill never corrupts it."""
    payload = {
        "version": _CHECKPOINT_VERSION,
        "scale": config.scale,
        "seed": config.seed,
        "completed": completed,
        "failures": [f.as_dict() for f in failures],
    }
    write_atomic(path, json.dumps(payload))


def backoff_delays(
    retries: int, *, base: float, cap: float, seed: SeedLike
) -> list[float]:
    """Exponential backoff schedule with deterministic jitter.

    Delay before retry ``i`` (1-based) is ``min(cap, base · 2^(i−1))``
    scaled by a jitter factor in ``[1, 2)`` drawn from the seeded RNG, so
    the whole retry timeline of a batch is reproducible.
    """
    rng = ensure_rng(seed)
    return [
        min(cap, base * (2.0 ** i)) * (1.0 + float(rng.random()))
        for i in range(retries)
    ]


def _attempt_experiment(
    name: str,
    config: ExperimentConfig,
    *,
    retries: int,
    timeout: float | None,
    backoff_base: float,
    backoff_cap: float,
    seed: SeedLike,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[ExperimentResult | None, ExperimentFailure | None, float, dict]:
    """One experiment's full attempt loop (retries + backoff + timeout).

    Returns ``(result, failure, elapsed_seconds, counters)`` — elapsed
    covers the attempts themselves (not backoff sleeps), and counters
    are how far each process-wide counter moved across them (wherever
    the experiment runs, caller or pool worker); both are what the run
    ledger records.  Timeouts run through
    :func:`repro.parallel.executor.run_with_timeout` — a fresh daemon
    thread per attempt, so a timed-out attempt is abandoned without
    delaying any later attempt or task.
    """
    fn = _REGISTRY.get(name)
    tracer = get_tracer()
    delays = backoff_delays(retries, base=backoff_base, cap=backoff_cap, seed=seed)
    elapsed_total = 0.0
    last_error: Exception | None = None
    # ``moved`` fills in as the block exits, before a caller sees it.
    with counter_moves() as moved:
        for attempt in range(1, retries + 2):
            start = time.perf_counter()
            add_counter("runner.attempts")
            if attempt > 1:
                add_counter("runner.retries")
            try:
                with tracer.span(
                    "experiment.attempt", experiment=name, attempt=attempt
                ):
                    if fn is None:
                        raise ReproError(
                            f"unknown experiment {name!r}; "
                            f"available: {sorted(_REGISTRY)}"
                        )
                    outcome = run_with_timeout(
                        fn, (config,), timeout=timeout, name=name
                    )
            except Exception as exc:  # noqa: BLE001 — graceful degradation
                elapsed_total += time.perf_counter() - start
                last_error = exc
                if attempt <= retries:
                    delay = delays[attempt - 1]
                    _log.warning(
                        "experiment attempt failed; retrying",
                        extra={
                            "experiment": name,
                            "attempt": attempt,
                            "error": type(exc).__name__,
                            "backoff": round(delay, 3),
                        },
                    )
                    if delay > 0:
                        sleep(delay)
                continue
            elapsed_total += time.perf_counter() - start
            return outcome, None, elapsed_total, moved
    assert last_error is not None
    add_counter("runner.failures")
    _log.error(
        "experiment exhausted its retries",
        extra={
            "experiment": name,
            "attempts": retries + 1,
            "error": type(last_error).__name__,
        },
    )
    return None, ExperimentFailure(
        experiment_id=name,
        attempts=retries + 1,
        error_type=type(last_error).__name__,
        message=str(last_error),
        elapsed=elapsed_total,
    ), elapsed_total, {}


def _batch_task(task: tuple) -> tuple[str, dict, float, dict]:
    """Worker-side wrapper for one experiment of a parallel batch.

    Returns picklable ``("ok", result_dict, elapsed, counters)`` /
    ``("fail", failure_dict, elapsed, {})`` tuples; the parent
    re-inflates them (and writes the ledger — workers never touch it, so
    appends come from one process per batch unless the caller opts into
    sharing a path).
    """
    name, config, retries, timeout, backoff_base, backoff_cap, seed = task
    _ensure_loaded()
    outcome, failure, elapsed, counters = _attempt_experiment(
        name,
        config,
        retries=retries,
        timeout=timeout,
        backoff_base=backoff_base,
        backoff_cap=backoff_cap,
        seed=seed,
    )
    if failure is not None:
        return ("fail", failure.as_dict(), elapsed, counters)
    assert outcome is not None
    return ("ok", result_to_dict(outcome), elapsed, counters)


#: Cache tag for experiment-level entries (``<tag>:<experiment id>``).
_EXPERIMENT_CACHE_TAG = "experiment"


def _experiment_cache_params(config: ExperimentConfig) -> dict:
    """The config knobs an experiment's output can depend on.

    The algorithm-registry fingerprint rides along: a changed roster or
    default knob means cached experiment outputs may no longer match
    what the code would produce.
    """
    from repro.core.registry import registry_fingerprint

    return {
        "scale": config.scale,
        "seed": config.seed,
        "num_sources": config.num_sources,
        "max_hops": config.max_hops,
        "beta": config.beta,
        "registry": registry_fingerprint(),
    }


def run_experiment_batch(
    names: Sequence[str],
    config: ExperimentConfig | None = None,
    *,
    retries: int = 0,
    timeout: float | None = None,
    checkpoint: str | Path | None = None,
    backoff_base: float = 0.1,
    backoff_cap: float = 30.0,
    seed: SeedLike = 0,
    sleep: Callable[[float], None] = time.sleep,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    ledger: Ledger | str | Path | None = None,
) -> BatchResult:
    """Run many experiments, surviving per-experiment failures.

    Each experiment gets ``1 + retries`` attempts; failed attempts back
    off exponentially with deterministic jitter (``seed``).  ``timeout``
    bounds each attempt's wall-clock seconds.  With ``checkpoint``, every
    completed experiment (and exhausted failure) is persisted atomically
    to JSON, and a rerun pointing at the same file skips straight past
    them — so a killed sweep resumes instead of restarting.  Results come
    back in ``names`` order; experiments that exhausted their retries are
    reported as :class:`ExperimentFailure` records, never as exceptions.

    ``workers > 1`` fans the pending experiments out over a process pool
    through :func:`repro.parallel.parallel_map` (``workers=1`` keeps the
    sequential loop in the caller; the pool uses real ``time.sleep`` for
    backoff and returns results that are render-identical to the
    sequential ones, like checkpoint resume).  ``cache_dir`` adds a
    content-addressed result cache keyed by graph digest + experiment id
    + config + code version: warm entries skip execution entirely and
    count as completed.

    ``ledger`` (a :class:`~repro.obs.ledger.Ledger` or a path) appends
    one :class:`~repro.obs.ledger.RunRecord` per freshly-executed
    experiment — cache hits and checkpoint resumes are *not* re-recorded,
    so ledger history stays one record per real run.  Each record's
    counters are the ones its own attempts moved, whichever process ran
    them.
    """
    _ensure_loaded()
    if retries < 0:
        raise ReproError(f"retries must be >= 0, got {retries}")
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        raise ReproError(f"timeout must be finite and positive, got {timeout}")
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers}")
    config = config or ExperimentConfig()
    checkpoint_path = Path(checkpoint) if checkpoint is not None else None
    completed: dict[str, dict] = {}
    failures: list[ExperimentFailure] = []
    failed_ids: set[str] = set()
    resumed: list[str] = []
    if checkpoint_path is not None and checkpoint_path.exists():
        state = _load_checkpoint(checkpoint_path, config)
        completed = dict(state.get("completed", {}))
        failures = [
            ExperimentFailure.from_dict(f) for f in state.get("failures", [])
        ]
        failed_ids = {f.experiment_id for f in failures}
        resumed = [n for n in names if n in completed or n in failed_ids]
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    cache_digest = config.graph().digest() if cache is not None else ""
    cache_params = _experiment_cache_params(config) if cache is not None else {}
    if ledger is not None and not isinstance(ledger, Ledger):
        ledger = Ledger(ledger)

    results: dict[str, ExperimentResult] = {}
    pending: list[str] = []
    for name in dict.fromkeys(names):
        if name in failed_ids:
            continue
        if name in completed:
            results[name] = result_from_dict(completed[name])
            continue
        if cache is not None:
            hit = cache.get(
                graph_digest=cache_digest,
                algorithm=f"{_EXPERIMENT_CACHE_TAG}:{name}",
                params=cache_params,
            )
            if hit is not None:
                results[name] = result_from_dict(hit)
                completed[name] = hit
                continue
        pending.append(name)
    if checkpoint_path is not None and (completed or failures):
        _write_checkpoint(checkpoint_path, config, completed, failures)

    def record_success(
        name: str, outcome: ExperimentResult, elapsed: float, counters: dict
    ) -> None:
        results[name] = outcome
        as_dict = result_to_dict(outcome)
        completed[name] = as_dict
        if cache is not None:
            cache.put(
                as_dict,
                graph_digest=cache_digest,
                algorithm=f"{_EXPERIMENT_CACHE_TAG}:{name}",
                params=cache_params,
            )
        if ledger is not None:
            try:
                record = record_from_result(outcome, config, elapsed=elapsed)
                ledger.append(dataclasses.replace(record, counters=counters))
            except OSError as exc:
                _log.warning(
                    "ledger append failed",
                    extra={"experiment": name, "error": str(exc)},
                )

    if workers > 1 and pending:
        # Build the topology before the pool forks, so every worker
        # inherits the cached graph instead of regenerating it.  A scale
        # that cannot be built fails each experiment in its worker, as
        # it does in the caller.
        try:
            config.graph()
        except ReproError:
            pass
        tasks = [
            (name, config, retries, timeout, backoff_base, backoff_cap, seed)
            for name in pending
        ]
        wave = parallel_map(
            _batch_task,
            tasks,
            workers=workers,
            chunk_size=1,
            capture_errors=True,
        )
        for name, outcome, task_failure in zip(
            pending, wave.results, _failures_by_index(wave, len(pending))
        ):
            if task_failure is not None:
                failures.append(
                    ExperimentFailure(
                        experiment_id=name,
                        attempts=retries + 1,
                        error_type=task_failure.error_type,
                        message=task_failure.message,
                        elapsed=0.0,
                    )
                )
                failed_ids.add(name)
                continue
            status, payload, elapsed, counters = outcome
            if status == "ok":
                record_success(
                    name, result_from_dict(payload), elapsed, counters
                )
            else:
                failures.append(ExperimentFailure.from_dict(payload))
                failed_ids.add(name)
        if checkpoint_path is not None:
            _write_checkpoint(checkpoint_path, config, completed, failures)
    else:
        for name in pending:
            outcome, failure, elapsed, counters = _attempt_experiment(
                name,
                config,
                retries=retries,
                timeout=timeout,
                backoff_base=backoff_base,
                backoff_cap=backoff_cap,
                seed=seed,
                sleep=sleep,
            )
            if failure is not None:
                failures.append(failure)
                failed_ids.add(name)
            else:
                assert outcome is not None
                record_success(name, outcome, elapsed, counters)
            if checkpoint_path is not None:
                _write_checkpoint(checkpoint_path, config, completed, failures)
    ordered = [results[n] for n in dict.fromkeys(names) if n in results]
    batch_failures = [f for f in failures if f.experiment_id in set(names)]
    return BatchResult(
        results=ordered, failures=batch_failures, resumed=tuple(resumed)
    )


def _failures_by_index(wave, count: int) -> list:
    """Spread a ``ParallelResult``'s failures back onto task indices."""
    by_index = {f.index: f for f in wave.failures}
    return [by_index.get(i) for i in range(count)]
