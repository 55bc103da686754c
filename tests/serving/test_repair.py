"""What fixed ranks buy the label repairer.

The repairer keeps the index equal to the canonical labeling of the
current dominated subgraph in a rank order that never changes, so:

* a break followed by its heal restores the index **byte for byte**
  (``to_payload()``), not merely its answers;
* repair work is local: failing a degree-1 vertex re-sweeps exactly one
  hub, the leaf itself;
* the index cache key (``engine_state_digest``) is a pure function of
  the dominated subgraph, pinned to its historical string, whatever
  the engine's mutation history or the snapshot's representation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import DominationEngine
from repro.graph.asgraph import ASGraph
from repro.obs.metrics import get_registry
from repro.serving import LabelRepairer, build_index, engine_state_digest
from tests import fixtures


def _tiny_engine() -> DominationEngine:
    graph = fixtures.internet("tiny", 1)
    budget = max(1, round(0.019 * graph.num_nodes))
    return DominationEngine(graph, fixtures.maxsg_brokers("tiny", 1, budget))


def _dominated_degrees(engine) -> np.ndarray:
    src, dst = engine.dominated_alive_edges()
    return np.bincount(np.concatenate([src, dst]), minlength=engine.num_nodes)


def _counter(name: str) -> int:
    return get_registry().snapshot()["counters"].get(name, 0)


def _breaks() -> list[tuple[str, tuple[int, ...]]]:
    """Three link flaps and three outages (two non-brokers, one broker)."""
    engine = _tiny_engine()
    src, dst = engine.dominated_alive_edges()
    links = [(int(src[i]), int(dst[i]))
             for i in np.linspace(0, len(src) - 1, 3).astype(int)]
    degrees = _dominated_degrees(engine)
    plain = np.flatnonzero((degrees > 0) & ~engine.broker_view)
    nodes = [int(plain[0]), int(plain[len(plain) // 2]), engine.brokers()[-1]]
    return [("link", e) for e in links] + [("node", (v,)) for v in nodes]


BREAKS = _breaks()


@pytest.mark.parametrize("kind,target", BREAKS,
                         ids=["-".join(map(str, (k, *t))) for k, t in BREAKS])
def test_break_then_heal_restores_the_labels(kind, target):
    engine = _tiny_engine()
    repairer = LabelRepairer(engine, build_index(engine))
    before = repairer.index.to_payload()
    if kind == "link":
        assert engine.cut_link(*target)
    else:
        assert engine.fail_node(*target)
    assert repairer.sync()
    assert repairer.index.to_payload() != before
    if kind == "link":
        assert engine.restore_link(*target)
    else:
        assert engine.restore_node(*target)
    assert repairer.sync()
    assert repairer.index.to_payload() == before


def test_leaf_failure_sweeps_one_hub():
    engine = _tiny_engine()
    repairer = LabelRepairer(engine)
    leaf = int(np.flatnonzero(_dominated_degrees(engine) == 1)[0])
    swept = _counter("serving.repair.hubs_swept")
    engine.fail_node(leaf)
    assert repairer.sync()
    assert _counter("serving.repair.hubs_swept") == swept + 1
    assert not repairer.index.hub_dists[leaf]
    assert not any(leaf in entries for entries in repairer.index.hub_dists)


def _small_engine() -> DominationEngine:
    graph = ASGraph.from_edges(12, [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
        (0, 8), (8, 9), (2, 10), (10, 11), (11, 4),
    ])
    return DominationEngine(graph, [1, 4, 8, 10])


class TestCacheKey:
    def test_digest_is_pinned(self):
        assert engine_state_digest(_small_engine()) == (
            "3b10f08296841f92c325290f2c718dbcbc06d136865823d716a0fb28412dfab4"
        )

    def test_digest_does_not_depend_on_history(self):
        engine = _small_engine()
        engine.fail_node(3)
        assert engine_state_digest(engine) == (
            "47fe24938cda79b4addf39bbc89f9da214f9d65874e5093a323c96bd0012e857"
        )
        engine.restore_node(3)
        assert engine_state_digest(engine) == engine_state_digest(
            _small_engine()
        )


def test_rolled_back_add_node_leaves_a_dead_id():
    """The index never shrinks: a deallocated vertex stays as a dead id,
    and a later ``add_node`` of that id revives it at its old rank."""
    engine = _small_engine()
    repairer = LabelRepairer(engine)
    token = engine.checkpoint()
    v = engine.add_node([0, 8])
    repairer.sync()
    rank = int(repairer.index.rank[v])
    engine.rollback(token)
    repairer.sync()
    assert engine.num_nodes == v and repairer.index.n == v + 1
    assert not repairer.index.alive[v] and not repairer.index.hub_dists[v]
    assert repairer.index.verify()
    assert engine.add_node([5]) == v
    repairer.sync()
    assert repairer.index.rank[v] == rank
    assert repairer.index.verify()
