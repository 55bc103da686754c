import json

import numpy as np

from bench import inputs


def _same(a, b) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("src", "dst", "max_hops", "want_path"))


def test_query_stream_is_seeded():
    a = inputs.query_stream(500, 2000, seed=7)
    assert _same(a, inputs.query_stream(500, 2000, seed=7))
    assert not _same(a, inputs.query_stream(500, 2000, seed=8))
    queries = list(a)
    assert len(queries) == 2000 and queries[5] == a[5]
    assert all(0 <= q.src < 500 and 0 <= q.dst < 500 for q in queries)
    bounded = [q.max_hops for q in queries if q.max_hops is not None]
    assert set(bounded) <= set(range(1, inputs.MAX_HOP_BOUND + 1))
    assert 0.2 < 1 - len(bounded) / len(queries) < 0.3
    assert 0.05 < sum(q.want_path for q in queries) / len(queries) < 0.15
    assert json.loads(a[5].line()) == a[5].as_request()


def test_break_plan_is_seeded_and_alternates(tiny_stack):
    engine = tiny_stack.engine
    plan = inputs.break_plan(engine, 40, seed=3)
    assert plan == inputs.break_plan(engine, 40, seed=3)
    assert plan != inputs.break_plan(engine, 40, seed=4)
    assert [b.kind for b in plan[:4]] == ["link", "node", "link", "node"]
    brokers = set(engine.brokers())
    assert all(b.vertices[0] not in brokers for b in plan if b.kind == "node")


def test_every_break_shrinks_and_heals(tiny_stack):
    from repro.core.engine import DominationEngine

    engine = DominationEngine(tiny_stack.graph, tiny_stack.brokers)
    pristine = len(engine.dominated_alive_edges()[0])
    for brk in inputs.break_plan(engine, 10, seed=5):
        assert brk.apply(engine)
        assert len(engine.dominated_alive_edges()[0]) < pristine
        assert brk.heal(engine)
        assert len(engine.dominated_alive_edges()[0]) == pristine


def test_flow_batches_and_cell_orders_are_seeded():
    classes = [0.25, 0.5, 1.0, 2.0]
    p1, d1 = inputs.flow_batch(75, 1000, classes, seed=1, rung=0, ladder=0)
    p2, d2 = inputs.flow_batch(75, 1000, classes, seed=1, rung=0, ladder=0)
    p3, _ = inputs.flow_batch(75, 1000, classes, seed=2, rung=0, ladder=0)
    p4, _ = inputs.flow_batch(75, 1000, classes, seed=1, rung=1, ladder=0)
    p5, _ = inputs.flow_batch(75, 1000, classes, seed=1, rung=0, ladder=1)
    assert np.array_equal(p1, p2) and np.array_equal(d1, d2)
    assert not any(np.array_equal(p1, p) for p in (p3, p4, p5))
    assert set(d1.tolist()) == set(classes) and p1.max() < 75
    assert sorted(inputs.cell_order(18, 1, 0)) == list(range(18))
    assert inputs.cell_order(18, 1, 0) == inputs.cell_order(18, 1, 0)
    assert inputs.cell_order(18, 1, 0) != inputs.cell_order(18, 2, 0)
