"""From-scratch failure sweep: one full connectivity evaluation per point.

:func:`repro.core.robustness.failure_sweep` replays removals backwards
through one :class:`~repro.core.engine.DominationEngine`; the reference
below recomputes saturated connectivity from the surviving broker mask
at every reported point.  Both must agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.connectivity import saturated_connectivity
from repro.core.robustness import FailureSweepResult, _sweep_plan
from repro.graph.asgraph import ASGraph
from repro.utils.rng import SeedLike


def failure_sweep_reference(
    graph: ASGraph,
    brokers: list[int],
    *,
    strategy: str = "random",
    max_failures: int | None = None,
    step: int = 1,
    seed: SeedLike = 0,
) -> FailureSweepResult:
    """From-scratch :func:`failure_sweep`: one full connectivity
    evaluation per reported point.

    Kept as the differential-testing oracle and the baseline the engine
    speedup benchmark measures against.
    """
    brokers, order, removed_counts, _ = _sweep_plan(
        graph, brokers, strategy, max_failures, step, seed
    )
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[brokers] = True
    surviving = len(brokers)
    connectivity = []
    removed_so_far = 0
    for k in removed_counts:
        for b in order[removed_so_far:k]:
            mask[b] = False
        surviving -= k - removed_so_far
        removed_so_far = k
        connectivity.append(
            saturated_connectivity(graph, mask) if surviving else 0.0
        )
    return FailureSweepResult(
        removed=np.asarray(removed_counts),
        connectivity=np.asarray(connectivity),
        strategy=strategy,
    )
