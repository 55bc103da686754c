"""Shared experiment configuration.

Every experiment takes an :class:`ExperimentConfig`, so the whole suite
can be re-run at a different scale / seed / sampling fidelity by changing
one object.  The defaults target the ``small`` profile (3,019 nodes),
where the connectivity engine runs exactly and the whole suite finishes
in minutes on a laptop; pass ``scale="full"`` for the paper-sized
52,079-node topology.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache

from repro.datasets.loader import load_internet
from repro.graph.asgraph import ASGraph
from repro.obs import add_counter, get_tracer, observe

#: The paper's three headline broker-set sizes as fractions of the
#: 52,079-node topology: 100, 1,000 and 3,540 brokers.
PAPER_BROKER_FRACTIONS: dict[str, float] = {
    "0.19%": 100 / 52_079,
    "1.9%": 1_000 / 52_079,
    "6.8%": 3_540 / 52_079,
}

#: Paper-reported saturated connectivity for those sizes (Table 1).
PAPER_COVERAGE: dict[str, float] = {
    "0.19%": 0.5313,
    "1.9%": 0.8541,
    "6.8%": 0.9929,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments."""

    scale: str = "small"
    seed: int = 1
    #: BFS sources for connectivity curves; ``None`` = exact (every vertex).
    num_sources: int | None = None
    max_hops: int = 8
    #: (alpha, beta)-graph hop bound used by Algorithm 2.
    beta: int = 4

    def graph(self) -> ASGraph:
        """The topology for this configuration (cached per scale/seed)."""
        return _cached_graph(self.scale, self.seed)

    def broker_budgets(self) -> dict[str, int]:
        """The paper's broker fractions translated to this scale."""
        n = self.graph().num_nodes
        return {
            label: max(1, round(frac * n))
            for label, frac in PAPER_BROKER_FRACTIONS.items()
        }

    def with_scale(self, scale: str) -> "ExperimentConfig":
        return replace(self, scale=scale)


# Instrumentation sits under ``lru_cache`` so only real builds emit a
# graph.build span/timing — cache hits bypass it entirely.
@lru_cache(maxsize=4)
def _cached_graph(scale: str, seed: int) -> ASGraph:
    t0 = time.perf_counter()
    with get_tracer().span("graph.build", scale=scale, seed=seed):
        graph = load_internet(scale, seed=seed)
    add_counter("graph.build.calls")
    observe("graph.build.seconds", time.perf_counter() - t0)
    return graph
