"""Shared benchmark configuration.

Benchmarks regenerate the paper's tables and figures at the ``small``
profile by default (3,019 nodes — minutes, laptop-friendly, exact
connectivity).  Set ``REPRO_BENCH_SCALE=medium`` (or ``large``/``full``)
to rerun the whole harness closer to paper scale.

Each benchmark prints the regenerated artifact (run with ``-s`` to see
them) and asserts the paper's qualitative shape, so a passing benchmark
run doubles as the reproduction record behind EXPERIMENTS.md.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import ExperimentConfig


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    seed = int(os.environ.get("REPRO_BENCH_SEED", "1"))
    return ExperimentConfig(scale=scale, seed=seed)


@pytest.fixture(scope="session")
def warm_graph(config):
    """Generate the topology once, outside any timed region."""
    return config.graph()


@pytest.fixture(scope="session")
def _warm_small_config() -> ExperimentConfig:
    seed = int(os.environ.get("REPRO_BENCH_SEED", "1"))
    config = ExperimentConfig(scale="small", seed=seed)
    config.graph()
    return config


@pytest.fixture
def small_config(request, _warm_small_config) -> ExperimentConfig:
    """The ``small`` profile whatever ``REPRO_BENCH_SCALE`` says, warmed.

    For benchmarks whose asserted shape is a claim about a graph of
    paper size, which the 604-node ``tiny`` profile is too small to show.
    The test's ledger record names ``small``.
    """
    pin_profile(request, "small", _warm_small_config.seed)
    return _warm_small_config


def pin_profile(request, scale: str, seed: int) -> None:
    """Record the profile a test ran at when it ignores the environment.

    :func:`pytest_runtest_logreport` labels the test's ledger record with
    it instead of ``REPRO_BENCH_SCALE``/``REPRO_BENCH_SEED``.
    """
    request.node.user_properties.append(("bench_profile", (scale, seed)))


@pytest.fixture(scope="session", autouse=True)
def _bench_tracing():
    """Record a JSONL span trace of the whole benchmark session.

    Enabled by pointing ``REPRO_BENCH_TRACE`` at an output file (CI
    uploads it as the benchmark-job artifact); otherwise the default
    no-op tracer stays installed and the benchmarks run untraced.
    """
    path = os.environ.get("REPRO_BENCH_TRACE")
    if not path:
        yield
        return
    from repro.obs import Tracer, use_tracer

    tracer = Tracer(metadata={"harness": "benchmarks"})
    with use_tracer(tracer):
        yield
    count = tracer.export(path)
    print(f"\nwrote {count} benchmark trace record(s) to {path}")


def _session_ledger():
    """The run ledger benchmarks append to, or ``None`` when not opted in.

    Opt-in is the ``REPRO_LEDGER`` environment variable (what CI sets) —
    local benchmark runs stay side-effect free by default.
    """
    from repro.obs.ledger import LEDGER_ENV, Ledger

    path = os.environ.get(LEDGER_ENV)
    return Ledger(path) if path else None


def _bench_scale_seed() -> tuple[str, int]:
    return (
        os.environ.get("REPRO_BENCH_SCALE", "small"),
        int(os.environ.get("REPRO_BENCH_SEED", "1")),
    )


def pytest_runtest_logreport(report):
    """One ledger record per passed benchmark: its wall-clock duration."""
    if report.when != "call" or not report.passed:
        return
    ledger = _session_ledger()
    if ledger is None:
        return
    from repro.obs.ledger import (
        RunRecord,
        git_revision,
        now,
        summarize_observation,
    )

    scale, seed = dict(report.user_properties).get(
        "bench_profile", _bench_scale_seed()
    )
    ledger.append(RunRecord(
        experiment=report.nodeid.split("::")[-1],
        kind="benchmark",
        scale=scale,
        seed=seed,
        git_rev=git_revision(),
        timings={"benchmark.seconds": summarize_observation(report.duration)},
        ts=now(),
    ))


def pytest_sessionfinish(session, exitstatus):
    """Append the kernel metric counters accumulated across the session."""
    from repro.obs import get_registry

    registry = get_registry()
    snapshot = registry.snapshot()
    if any(snapshot["counters"].values()):
        print()
        print(registry.render(title="Kernel metrics (whole benchmark session)"))
    ledger = _session_ledger()
    if ledger is not None:
        from repro.obs.ledger import RunRecord, git_revision, now

        scale, seed = _bench_scale_seed()
        kernel_timings = {
            name: summary
            for name, summary in snapshot["histograms"].items()
            if name.startswith("kernel.")
        }
        ledger.append(RunRecord(
            experiment="benchmarks",
            kind="session",
            scale=scale,
            seed=seed,
            git_rev=git_revision(),
            counters={
                name: value
                for name, value in snapshot["counters"].items()
                if value
            },
            timings=kernel_timings,
            ts=now(),
        ))
        print(f"\nappended benchmark session record to {ledger.path}")


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def timed_once(benchmark, fn, *args, **kwargs):
    """``(result, seconds)`` of one benchmarked call.

    Under ``--benchmark-disable`` (what the CI smoke job passes)
    ``benchmark.stats`` is ``None`` and ``pedantic`` degrades to a plain
    call; ``seconds`` is then ``None`` so speedup benchmarks can keep
    their result-equality checks but skip timing assertions — disabled
    timers and the ``tiny`` CI profile are both too noisy to gate on.
    """
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    stats = getattr(benchmark, "stats", None)
    return result, None if stats is None else stats.stats.total
