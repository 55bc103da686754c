"""Table 5 — who the top brokers are: ranking and service categories.

The paper lists the highest-ranked members of the 3,540-alliance —
dominated by IXPs (Equinix, LINX, DE-CIX) and large transit/access
networks (Level3, Cogent, AT&T, Hurricane), with content and enterprise
ASes appearing further down.  We regenerate the ranking (selection order
= importance) with each broker's category and degree.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.connectivity import saturated_connectivity
from repro.core.coverage import coverage_fraction
from repro.core.maxsg import maxsg
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, register
from repro.experiments.sweeps import SweepResult, run_cells, worker_graph
from repro.types import BusinessCategory


@register("table5")
def run(config: ExperimentConfig) -> ExperimentResult:
    graph = config.graph()
    budget = config.broker_budgets()["6.8%"]
    brokers = maxsg(graph, budget)
    degrees = graph.degrees()

    rows = []
    for rank, b in enumerate(brokers[:15], start=1):
        rows.append(
            (
                rank,
                BusinessCategory(int(graph.categories[b])).name,
                graph.name_of(b),
                int(degrees[b]),
            )
        )

    # Category histogram over the whole alliance (Fig. 5a's composition).
    cats = graph.categories[np.asarray(brokers)]
    histogram = {
        cat.name: int(np.count_nonzero(cats == int(cat)))
        for cat in BusinessCategory
    }
    top10 = brokers[: max(len(brokers) // 10, 1)]
    ixp_in_top = float(
        np.mean(graph.categories[np.asarray(top10)] == int(BusinessCategory.IXP))
    )
    return ExperimentResult(
        experiment_id="table5",
        title=f"Table 5: top-ranked brokers of the {len(brokers)}-alliance",
        headers=["Rank", "Type", "Name", "Degree"],
        rows=rows,
        paper_values={
            "composition": histogram,
            "ixp_fraction_in_top_decile": ixp_in_top,
            "alliance_size": len(brokers),
        },
        notes=(
            "Paper's top ranks mix IXPs and transit/access ISPs; composition "
            f"here: {histogram}."
        ),
    )


# ----------------------------------------------------------------------
# Table 5-style ranking sweep across broker budgets
# ----------------------------------------------------------------------

#: Cache tag for one budget cell of the ranking sweep.
TABLE5_CELL_TAG = "table5-cell"


def _table5_cell(task: dict) -> dict:
    """One budget's ranking/composition/evaluation cell (worker side)."""
    graph = worker_graph()
    brokers = task["brokers"]
    degrees = graph.degrees()
    cats = graph.categories[np.asarray(brokers)]
    composition = {
        cat.name: int(np.count_nonzero(cats == int(cat)))
        for cat in BusinessCategory
    }
    top10 = brokers[: max(len(brokers) // 10, 1)]
    ixp_in_top = float(
        np.mean(graph.categories[np.asarray(top10)] == int(BusinessCategory.IXP))
    )
    top_rows = [
        [
            rank,
            BusinessCategory(int(graph.categories[b])).name,
            graph.name_of(b),
            int(degrees[b]),
        ]
        for rank, b in enumerate(brokers[: task["top"]], start=1)
    ]
    return {
        "alliance_size": len(brokers),
        "coverage_fraction": float(coverage_fraction(graph, brokers)),
        "saturated_connectivity": float(saturated_connectivity(graph, brokers)),
        "composition": composition,
        "ixp_fraction_in_top_decile": ixp_in_top,
        "top": top_rows,
    }


def table5_budget_sweep(
    config: ExperimentConfig,
    *,
    budgets: list[int] | None = None,
    top: int = 10,
    workers: int = 1,
    cache_dir: str | Path | None = None,
) -> SweepResult:
    """Table 5's ranking regenerated at many broker budgets.

    Like :func:`repro.experiments.fig2.fig2b_seed_sweep`, one MaxSG run
    at the largest budget yields every prefix; each budget's evaluation
    (coverage, saturated connectivity, composition, top ranks) is an
    independent cell dispatched through
    :func:`~repro.experiments.sweeps.run_cells`.
    """
    graph = config.graph()
    if budgets is None:
        budgets = sorted(config.broker_budgets().values())
    else:
        budgets = sorted(dict.fromkeys(int(b) for b in budgets))
    brokers_full = maxsg(graph, max(budgets))
    cells = []
    for b in budgets:
        params = {"budget": b, "top": top, "algorithm": "maxsg-prefix"}
        cells.append((params, {**params, "brokers": brokers_full[:b]}))
    values, hits, misses = run_cells(
        graph,
        _table5_cell,
        cells,
        tag=TABLE5_CELL_TAG,
        workers=workers,
        cache_dir=cache_dir,
    )
    payload = {
        "sweep": "table5",
        "scale": config.scale,
        "graph_seed": config.seed,
        "graph_digest": graph.digest(),
        "algorithm": "maxsg-prefix",
        "top": top,
        "budgets": budgets,
        "cells": [{"budget": b, **value} for b, value in zip(budgets, values)],
    }
    return SweepResult(payload=payload, cache_hits=hits, cache_misses=misses)
