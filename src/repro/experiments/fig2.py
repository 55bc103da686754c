"""Fig. 2 — (a) Set-Cover broker-set size CDF; (b) algorithm comparison.

Fig. 2a runs the randomized SC dominating-set heuristic 300 times and
reports the CDF of the resulting set sizes — the paper's point being that
guaranteed 100 % coverage costs ~76 % of all vertices.

Fig. 2b sweeps the hop bound ``l`` and compares the l-hop E2E
connectivity of every algorithm at the paper's broker budgets: MaxSG and
the Algorithm-2 approximation dominate, DB/PRB plateau (marginal effect),
IXPB and Tier1Only stay low.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.baselines import set_cover_dominating
from repro.core.connectivity import connectivity_curve
from repro.core.maxsg import maxsg
from repro.core.registry import get_algorithm, run_algorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, register
from repro.experiments.sweeps import (
    SweepResult,
    jsonify_cell,
    run_graph_tasks,
    worker_graph,
)
from repro.parallel.cache import ResultCache
from repro.utils.rng import spawn_rngs


@register("fig2a")
def run_fig2a(config: ExperimentConfig, *, iterations: int = 300) -> ExperimentResult:
    graph = config.graph()
    n = graph.num_nodes
    rngs = spawn_rngs(config.seed, iterations)
    sizes = np.array(
        [len(set_cover_dominating(graph, seed=rng)) for rng in rngs]
    )
    quantiles = [0.05, 0.25, 0.5, 0.75, 0.95]
    rows = [
        (f"p{int(100 * q)}", int(np.quantile(sizes, q)),
         f"{100 * np.quantile(sizes, q) / n:.1f}%")
        for q in quantiles
    ]
    rows.append(("mean", int(sizes.mean()), f"{100 * sizes.mean() / n:.1f}%"))
    return ExperimentResult(
        experiment_id="fig2a",
        title=f"Fig. 2a: SC broker-set size over {iterations} runs (n={n})",
        headers=["Statistic", "Set size", "Fraction of |V|"],
        rows=rows,
        paper_values={"sizes": sizes},
        notes="Paper: SC needs ~40,000 nodes (76% of vertices) for 100% coverage.",
    )


@register("fig2b")
def run_fig2b(config: ExperimentConfig) -> ExperimentResult:
    graph = config.graph()
    budget = config.broker_budgets()["1.9%"]
    hops = list(range(1, config.max_hops + 1))

    # Display label -> (registered algorithm, extra knobs); every entry
    # resolves through the registry so fig2b's roster and the CLI's
    # ``repro algorithms`` listing cannot drift apart.
    roster = (
        ("MaxSG", "maxsg", {}),
        ("Approx (Alg. 2)", "approx", {"beta": config.beta}),
        ("Degree-Based", "degree", {}),
        ("PageRank-Based", "pagerank", {}),
        ("IXPB (all IXPs)", "ixp", {}),
        ("Tier1Only", "tier1", {}),
    )
    algorithms = {}
    for label, name, knobs in roster:
        spec = get_algorithm(name)
        brokers, _ = run_algorithm(
            name, graph, budget=budget if spec.budgeted else None, **knobs
        )
        algorithms[label] = brokers
    free = connectivity_curve(
        graph, None, max_hops=config.max_hops,
        num_sources=config.num_sources, seed=config.seed,
    )
    rows = []
    curves = {"ASesWithIXPs": free}
    cells = ["ASesWithIXPs (free)", "-"]
    cells += [f"{100 * free.at(h):.2f}%" for h in hops]
    cells.append(f"{100 * free.saturated:.2f}%")
    rows.append(tuple(cells))
    for name, brokers in algorithms.items():
        curve = connectivity_curve(
            graph, brokers, max_hops=config.max_hops,
            num_sources=config.num_sources, seed=config.seed,
        )
        curves[name] = curve
        cells = [name, len(brokers)]
        cells += [f"{100 * curve.at(h):.2f}%" for h in hops]
        cells.append(f"{100 * curve.saturated:.2f}%")
        rows.append(tuple(cells))
    return ExperimentResult(
        experiment_id="fig2b",
        title=f"Fig. 2b: l-hop connectivity by algorithm (budget={budget})",
        headers=["Algorithm", "|B|"] + [f"l={h}" for h in hops] + ["saturated"],
        rows=rows,
        paper_values={"curves": curves, "budget": budget},
        notes="Paper ordering: MaxSG ~ Approx > DB ~ PRB >> IXPB > Tier1Only.",
    )


# ----------------------------------------------------------------------
# Fig. 2b-style multi-seed / multi-budget prefix sweep
# ----------------------------------------------------------------------

#: Cache tag for one (seed, budget) connectivity cell of the sweep.
FIG2B_CELL_TAG = "fig2b-cell"


def _fig2b_cell(task: dict) -> dict:
    """One sweep cell: l-hop connectivity of a MaxSG prefix.

    Runs in a sweep worker; the graph comes from the worker slot (a
    shared-memory attachment under the process backend), the MaxSG
    prefix rides along in the task.
    """
    graph = worker_graph()
    curve = connectivity_curve(
        graph,
        task["brokers"],
        max_hops=task["max_hops"],
        num_sources=task["num_sources"],
        seed=task["seed"],
    )
    return {
        "fractions": [float(f) for f in curve.fractions],
        "saturated": float(curve.saturated),
        "num_sources": int(curve.num_sources),
        "exact": bool(curve.exact),
    }


def fig2b_seed_sweep(
    config: ExperimentConfig,
    *,
    seeds: list[int] | None = None,
    budgets: list[int] | None = None,
    workers: int = 1,
    backend: str = "serial",
    cache_dir: str | Path | None = None,
    chunk_size: int | None = None,
) -> SweepResult:
    """Fig. 2b's prefix sweep across sampling seeds and broker budgets.

    One MaxSG run at the largest budget provides every prefix (greedy
    selection order is prefix-consistent), then each ``(seed, budget)``
    cell — an independent ``O(l(|V|+|E|))`` connectivity evaluation — is
    dispatched through the parallel executor and the result cache.  The
    returned payload is bit-identical across backends and across
    cold/warm cache runs.
    """
    graph = config.graph()
    if budgets is None:
        budgets = sorted(config.broker_budgets().values())
    else:
        budgets = sorted(dict.fromkeys(int(b) for b in budgets))
    seeds = [config.seed] if seeds is None else [int(s) for s in seeds]
    brokers_full = maxsg(graph, max(budgets))
    digest = graph.digest()
    cache = ResultCache(cache_dir) if cache_dir is not None else None

    cells: dict[tuple[int, int], dict] = {}
    tasks: list[dict] = []
    for s in seeds:
        for b in budgets:
            params = {
                "seed": s,
                "budget": b,
                "max_hops": config.max_hops,
                "num_sources": config.num_sources,
                "algorithm": "maxsg-prefix",
            }
            if cache is not None:
                hit = cache.get(
                    graph_digest=digest, algorithm=FIG2B_CELL_TAG, params=params
                )
                if hit is not None:
                    cells[(s, b)] = hit
                    continue
            tasks.append(
                {
                    "seed": s,
                    "budget": b,
                    "brokers": brokers_full[: min(b, len(brokers_full))],
                    "max_hops": config.max_hops,
                    "num_sources": config.num_sources,
                    "params": params,
                }
            )
    computed = run_graph_tasks(
        graph,
        _fig2b_cell,
        tasks,
        backend=backend,
        workers=workers,
        chunk_size=chunk_size,
    ).values()
    for task, cell in zip(tasks, computed):
        if cache is not None:
            cell = cache.put(
                cell,
                graph_digest=digest,
                algorithm=FIG2B_CELL_TAG,
                params=task["params"],
            )
        else:
            cell = jsonify_cell(cell)
        cells[(task["seed"], task["budget"])] = cell

    payload = {
        "sweep": "fig2b",
        "scale": config.scale,
        "graph_seed": config.seed,
        "graph_digest": digest,
        "algorithm": "maxsg-prefix",
        "max_hops": config.max_hops,
        "num_sources": config.num_sources,
        "seeds": seeds,
        "budgets": budgets,
        "alliance_size": len(brokers_full),
        "cells": [
            {"seed": s, "budget": b, **cells[(s, b)]}
            for s in seeds
            for b in budgets
        ],
    }
    return SweepResult(
        payload=payload,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
    )
