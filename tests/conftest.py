"""Shared fixtures: small deterministic topologies for the whole suite.

The seeded internets delegate to the cached builders in
``tests/fixtures.py`` so fixture and non-fixture consumers (property
tests, golden scripts, benchmarks) share one graph instance per seed.

Hypothesis runs under the ``ci`` profile by default: every run draws
the same examples and no example database is read or written, so the
suite passes or fails the same way each time.  ``HYPOTHESIS_PROFILE=
random`` draws fresh examples (and honours ``--hypothesis-seed``); pin
any counterexample it finds as a deterministic test.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

import repro.parallel.executor as executor_module
from repro.graph.asgraph import ASGraph
from repro.graph.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from tests import fixtures

settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("random")
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(scope="session")
def tiny_internet() -> ASGraph:
    """The 604-node tiny profile — shared, read-only."""
    return fixtures.internet("tiny", 1)


@pytest.fixture(scope="session")
def tiny_internet4() -> ASGraph:
    """A second tiny profile (seed 4) for cross-seed/integration tests."""
    return fixtures.internet("tiny", 4)


@pytest.fixture(scope="session")
def mini_internet() -> ASGraph:
    """An even smaller custom internet (~120 nodes) for exact checks."""
    return fixtures.mini_internet_graph(3)


@pytest.fixture(scope="session")
def full_internet() -> ASGraph:
    """The paper-sized 52k-node profile, gated behind REPRO_TEST_FULL=1.

    Session-scoped: the graph builds once no matter how many full-scale
    tests opt in; everything else skips in milliseconds.
    """
    if not fixtures.full_profile_enabled():
        pytest.skip(
            f"full-profile tests disabled (set {fixtures.FULL_PROFILE_ENV}=1)"
        )
    return fixtures.full_internet(1)


@pytest.fixture()
def star10() -> ASGraph:
    return star_graph(10)


@pytest.fixture()
def path10() -> ASGraph:
    return path_graph(10)


@pytest.fixture()
def cycle8() -> ASGraph:
    return cycle_graph(8)


@pytest.fixture()
def k5() -> ASGraph:
    return complete_graph(5)


@pytest.fixture()
def two_triangles() -> ASGraph:
    """Two triangles joined by a bridge: 0-1-2 and 3-4-5, bridge 2-3."""
    return ASGraph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    )


@pytest.fixture()
def disconnected_pair() -> ASGraph:
    """Two disjoint edges — exercises non-connected behaviour."""
    return ASGraph.from_edges(4, [(0, 1), (2, 3)])


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def fresh_orphan_registry(monkeypatch):
    """An empty timeout-orphan registry for this test.

    Orphans that other tests abandon sleep for seconds and leave the
    process-wide registry whenever they finish, so a count read across
    them races; a test that counts orphans starts from its own list.
    """
    monkeypatch.setattr(executor_module, "_orphans", [])
