"""Puts the benchmark package and the program source on the path.

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout root.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "perfbench", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture(scope="session")
def tiny_stack():
    """The serving stack of the benchmark, at ``tiny``."""
    from bench.serving import BROKER_SHARE, Stack
    from repro.core.engine import DominationEngine
    from repro.core.maxsg import maxsg
    from repro.datasets.loader import load_internet
    from repro.serving import LabelRepairer, PathQueryService, build_index

    graph = load_internet("tiny", seed=1)
    brokers = maxsg(graph, max(1, round(BROKER_SHARE * graph.num_nodes)))
    engine = DominationEngine(graph, brokers)
    index = build_index(engine)
    repairer = LabelRepairer(engine, index)
    return Stack(graph, brokers, engine, index, repairer,
                 PathQueryService(repairer))
