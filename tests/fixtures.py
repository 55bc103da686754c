"""Seeded fixture graphs shared across the suite.

Centralises every ``load_internet(...)`` the tests need behind
``lru_cache``d builders so (a) each seeded topology is generated once per
session no matter how many test modules want it, and (b) non-fixture
consumers — hypothesis property tests, golden-number scripts, benchmarks —
can reuse the exact same graphs without going through pytest fixtures.

The pytest fixtures in ``conftest.py`` delegate here.
"""

from __future__ import annotations

import os
from functools import lru_cache

from repro.core.maxsg import maxsg
from repro.datasets.loader import load_internet
from repro.datasets.synthetic_internet import InternetConfig, generate_internet
from repro.graph.asgraph import ASGraph

#: The paper's three broker-budget fractions (Table 1 rows).
PAPER_FRACTIONS = {"0.19%": 0.0019, "1.9%": 0.019, "6.8%": 0.068}

#: Env var that opts the suite into the paper-sized 52,079-node profile.
FULL_PROFILE_ENV = "REPRO_TEST_FULL"


def full_profile_enabled() -> bool:
    """Whether full-scale tests should run (``REPRO_TEST_FULL=1``)."""
    return os.environ.get(FULL_PROFILE_ENV, "") not in ("", "0")


@lru_cache(maxsize=1)
def full_internet(seed: int = 1) -> ASGraph:
    """The paper-sized ``full`` profile (~52k nodes, built once per run).

    Callers must gate on :func:`full_profile_enabled` — building this
    graph takes tens of seconds, so it only belongs in explicitly
    opted-in (CI smoke) runs.
    """
    return load_internet("full", seed=seed)


@lru_cache(maxsize=None)
def internet(scale: str = "tiny", seed: int = 1) -> ASGraph:
    """A cached seeded synthetic internet (treat as read-only)."""
    return load_internet(scale, seed=seed)


@lru_cache(maxsize=None)
def mini_internet_graph(seed: int = 3) -> ASGraph:
    """The ~120-node custom internet used for exact checks."""
    config = InternetConfig().scaled(100 / 51_757)
    return generate_internet(config, seed=seed)


@lru_cache(maxsize=None)
def maxsg_brokers(scale: str, seed: int, budget: int) -> tuple[int, ...]:
    """Cached MaxSG broker set on a fixture internet (selection order)."""
    return tuple(maxsg(internet(scale, seed), budget))


def paper_budgets(graph: ASGraph) -> dict[str, int]:
    """Table-1 broker budgets for ``graph`` (fraction label -> count)."""
    return {
        label: max(1, round(frac * graph.num_nodes))
        for label, frac in PAPER_FRACTIONS.items()
    }
