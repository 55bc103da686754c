"""``paper``: the Fig. 2b roster at ``small``.

One cell is one ``run_algorithm`` call and one exact 8-hop
``connectivity_curve`` on the default kernel backend.  The roster is the
five budgeted algorithms at the paper's three budgets plus the
broker-free, all-IXP and Tier-1 baselines: 18 cells.  The measured phase
runs rosters, each in a seeded order, until ``--seconds`` have passed.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

import numpy as np

from bench import inputs
from bench.layers import Outcome, blank_layers
from bench.oracles import component_labels, connectivity
from bench.stats import median
from bench.tracing import NULL_RECORDER, Recorder, counter_value
from repro.core.connectivity import connectivity_curve
from repro.core.registry import run_algorithm
from repro.datasets.loader import load_internet
from repro.experiments.config import PAPER_BROKER_FRACTIONS

SCALE = "small"
TOPOLOGY_SEED = 1
MAX_HOPS = 8
SETUP_REPEATS = 5
BUDGETED = (("maxsg", {}), ("approx", {"beta": 4}), ("greedy", {}),
            ("degree", {}), ("pagerank", {}))
#: ``None`` evaluates the broker-free topology.
BASELINES = (None, "ixp", "tier1")
#: Cells checked against the exact-BFS oracle in one run.
ORACLE_CELLS = 1
COUNTERS = (
    "kernel.maxsg.gain_evaluations",
    "kernel.lazy_greedy.gain_evaluations",
    "kernel.approx_mcbg.roots_tried",
    "kernel.batched_bfs.sources",
)


@dataclass(frozen=True)
class Cell:
    algorithm: str | None
    budget: int | None = None
    knobs: tuple = ()

    @property
    def label(self) -> str:
        name = self.algorithm or "free"
        return name if self.budget is None else f"{name}@{self.budget}"


def roster(num_nodes: int) -> list[Cell]:
    budgets = [max(1, round(f * num_nodes)) for f in PAPER_BROKER_FRACTIONS.values()]
    cells = [Cell(name, b, tuple(knobs.items()))
             for name, knobs in BUDGETED for b in budgets]
    return cells + [Cell(name) for name in BASELINES]


def run_cell(graph, cell: Cell, rec=NULL_RECORDER):
    brokers = None
    if cell.algorithm is not None:
        brokers, _ = rec.call(f"core.select.{cell.algorithm}", run_algorithm,
                              cell.algorithm, graph, budget=cell.budget,
                              **dict(cell.knobs))
    curve = rec.call("core.connectivity.curve", connectivity_curve, graph,
                     brokers, max_hops=MAX_HOPS)
    return brokers, curve


def measure(graph, cells, seed: int, out: Outcome, *, seconds=None,
            rosters=None, rec=NULL_RECORDER):
    """Rosters until ``seconds`` pass (or ``rosters`` are done).

    The first roster always completes.  After it the phase stops at the
    first cell that would start past ``seconds``, so a timed run ends
    within one cell of its deadline and a late roster is cut short.
    Returns the results, each cell's latencies, and the elapsed time.
    """
    results, latencies = [], [[] for _ in cells]
    start = time.perf_counter()
    r = 0
    while rosters is None or r < rosters:
        for c in inputs.cell_order(len(cells), seed, r):
            if r and seconds is not None and time.perf_counter() - start >= seconds:
                return results, latencies, time.perf_counter() - start
            out.attempted += 1
            with rec.span("paper.cell", cell=cells[c].label):
                t0 = time.perf_counter()
                try:
                    brokers, curve = run_cell(graph, cells[c], rec)
                except Exception as exc:  # a failed cell, not a failed run
                    out.fail(f"{cells[c].label}: {type(exc).__name__}: {exc}")
                    continue
                latencies[c].append(time.perf_counter() - t0)
            results.append((c, brokers, curve))
        r += 1
    return results, latencies, time.perf_counter() - start


def roster_s(latencies) -> float:
    """Seconds of an average roster: the sum of each cell's mean latency.

    A run cut short at its deadline ends inside a roster, so cells are
    averaged one by one rather than over every cell the run finished.
    """
    return sum(statistics.fmean(times) for times in latencies if times)


def median_cell(latencies) -> float:
    """Latency of the roster's median cell.

    Each cell's latency is its median over the run's rosters; the result
    is the median over the 18 cells.  Taking the median over every copy
    of every cell instead lets the middle rank jump between neighbouring
    cell types as their copies reorder from run to run.
    """
    return statistics.median(
        statistics.median(times) for times in latencies if times
    )


def check(graph, cells, results, seed: int, out: Outcome) -> None:
    """Every cell for validity and repeatability; a seeded few exactly."""
    n = graph.num_nodes
    components = component_labels(graph)
    first: dict[int, tuple] = {}
    for c, brokers, curve in results:
        cell = cells[c]
        fractions = np.asarray(curve.fractions)
        if brokers is not None:
            ids = np.asarray(brokers)
            if len(set(ids.tolist())) != len(ids) or (
                len(ids) and (ids.min() < 0 or ids.max() >= n)
            ):
                out.fail(f"{cell.label}: brokers are not distinct vertex ids")
            if cell.budget is not None and len(ids) > cell.budget:
                out.fail(f"{cell.label}: {len(ids)} brokers for budget {cell.budget}")
            elif cell.budget is not None and len(ids) < cell.budget:
                # Selection may stop early only once it covers every vertex
                # of every component it placed a broker in.
                is_broker = np.zeros(n, dtype=bool)
                is_broker[ids] = True
                hit = is_broker[graph.edge_src] | is_broker[graph.edge_dst]
                covered = is_broker.copy()
                covered[graph.edge_src[hit]] = covered[graph.edge_dst[hit]] = True
                if not covered[np.isin(components, components[ids])].all():
                    out.fail(f"{cell.label}: stopped at {len(ids)} brokers "
                             "with vertices uncovered")
        if (len(fractions) != MAX_HOPS or np.any(np.diff(fractions) < 0)
                or fractions[-1] > curve.saturated or not curve.exact):
            out.fail(f"{cell.label}: malformed connectivity curve")
        key = (None if brokers is None else list(brokers),
               fractions.tolist(), curve.saturated)
        if first.setdefault(c, key) != key:
            out.fail(f"{cell.label}: differs between rosters")
    for c in inputs.sample_indices(len(cells), ORACLE_CELLS, seed, 0):
        if c not in first:
            continue
        brokers, fractions, saturated = first[c]
        want, want_saturated = connectivity(graph, brokers, MAX_HOPS)
        if fractions != want or saturated != want_saturated:
            out.fail(f"{cells[c].label}: curve {fractions}/{saturated} != "
                     f"BFS {want}/{want_saturated}")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from bench.env import peak_rss_mb

    out = Outcome()
    setups, graph = [], None
    for _ in range(SETUP_REPEATS):
        graph = None
        gc.collect()
        t0 = time.perf_counter()
        graph = load_internet(SCALE, seed=TOPOLOGY_SEED)
        setups.append(time.perf_counter() - t0)
    cells = roster(graph.num_nodes)
    results, latencies, _ = measure(graph, cells, seed, out, seconds=seconds)
    rss = peak_rss_mb()
    check(graph, cells, results, seed, out)
    out.metrics = {
        "setup_s": median(setups),
        "throughput": sum(1 for t in latencies if t) / roster_s(latencies),
        "p50_ms": 1e3 * median_cell(latencies),
        "peak_rss_mb": rss,
    }
    out.notes["setup_samples_s"] = setups
    out.notes["cell_ms"] = {cells[c].label: [round(1e3 * t, 1) for t in times]
                            for c, times in enumerate(latencies)}
    counts: dict[str, int] = {}
    for c, _, _ in results:
        counts[cells[c].label] = counts.get(cells[c].label, 0) + 1
    out.traffic = {"cells": len(results), "cells_per_algorithm_budget": counts}
    if trace:
        _traced(seed, out)
    return out


def _traced(seed: int, out: Outcome) -> None:
    rec = Recorder({"workload": "paper", "seed": seed})
    before = {name: counter_value(name) for name in COUNTERS}
    graph = rec.call("datasets.load_internet", load_internet, SCALE,
                     seed=TOPOLOGY_SEED)
    cells = roster(graph.num_nodes)
    results, _, wall = measure(graph, cells, seed, out, rosters=1, rec=rec)
    check(graph, cells, results, seed, out)
    records = rec.records
    layers = blank_layers()
    layers["datasets.generate_s"] = next(
        r["dur"] for r in records if r["name"] == "datasets.load_internet"
    )
    select = [r for r in records if r["name"].startswith("core.select.")]
    layers["core.select_s"] = sum(r["dur"] for r in select)
    layers["core.select.busy_share"] = layers["core.select_s"] / wall
    for name, _ in BUDGETED:
        layers[f"core.select.{name}_s"] = sum(
            r["dur"] for r in select if r["name"] == f"core.select.{name}"
        )
    curves = [r["dur"] for r in records if r["name"] == "core.connectivity.curve"]
    layers["core.connectivity.curve_ms.p50"] = 1e3 * median(curves)
    layers["core.connectivity.busy_share"] = sum(curves) / wall
    for name in COUNTERS:
        layers[name] = counter_value(name) - before[name]
    throughput = len(results) / wall
    layers["tracing.overhead"] = 1.0 - throughput / out.metrics["throughput"]
    out.notes["prediction"] = {
        "claim": "connectivity curves are most of paper time",
        "curve_share_of_wall": layers["core.connectivity.busy_share"],
        "holds": layers["core.connectivity.busy_share"] > 0.5,
    }
    out.metrics = layers
    out.notes["trace_file"] = rec.export("paper", seed)
