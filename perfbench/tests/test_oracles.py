import copy

import numpy as np

from bench import inputs, oracles
from repro.serving import QueryRequest


def _answers(stack, queries):
    return [
        stack.service.resolve(
            QueryRequest(q.src, q.dst, q.max_hops, q.want_path)
        ).as_dict()
        for q in queries
    ]


def test_bfs_oracle_agrees_with_the_service(tiny_stack):
    queries = inputs.query_stream(tiny_stack.graph.num_nodes, 600, seed=11)
    graph = oracles.DominatedGraph(tiny_stack.engine)
    answers = _answers(tiny_stack, queries)
    assert [graph.check(q, a) for q, a in zip(queries, answers)] == [None] * 600
    assert any(a["path"] for a in answers) and any(not a["reachable"] for a in answers)


def test_bfs_oracle_flags_planted_answers(tiny_stack):
    queries = inputs.query_stream(tiny_stack.graph.num_nodes, 600, seed=12)
    answers = _answers(tiny_stack, queries)
    graph = oracles.DominatedGraph(tiny_stack.engine)
    q, a = next((q, a) for q, a in zip(queries, answers) if a["path"] and len(a["path"]) > 2)
    for field, value in (("distance", a["distance"] + 1),
                         ("reachable", False),
                         ("path", a["path"][:1] + a["path"][2:]),
                         ("ok", False)):
        planted = copy.deepcopy(a)
        planted[field] = value
        assert graph.check(q, planted) is not None


def test_bfs_oracle_follows_engine_mutations(tiny_stack):
    from repro.core.engine import DominationEngine

    engine = DominationEngine(tiny_stack.graph, tiny_stack.brokers)
    brk = inputs.break_plan(engine, 1, seed=1)[0]
    u, v = brk.vertices
    before = oracles.DominatedGraph(engine)
    brk.apply(engine)
    after = oracles.DominatedGraph(engine)
    assert (min(u, v), max(u, v)) in before.edges - after.edges


def _admission_stack():
    from bench.admission import build_stack

    return build_stack()


def test_fcfs_oracles_agree_with_admit_batch_and_flag_wrong_decisions():
    from repro.experiments.admission import DEMAND_CLASSES, admit_batch

    stack = _admission_stack()
    pool, capacity = stack.pool, stack.capacity
    paths, demands = inputs.flow_batch(pool.num_paths, 3000, DEMAND_CLASSES,
                                       seed=4, rung=0, ladder=0)
    outcome = admit_batch(capacity, pool, paths, demands)
    args = (pool.indptr, pool.instances, paths, demands)
    want = oracles.fcfs_prefix(capacity, *args, 3000)
    assert np.array_equal(want, outcome.admitted)
    assert 0 < want.sum() < len(want)
    residual = oracles.residual_after(capacity, *args, outcome.admitted)
    assert np.array_equal(residual, outcome.residual)
    assert oracles.unexplained_rejections(residual, *args, outcome.admitted) == 0
    flipped = outcome.admitted.copy()
    flipped[np.flatnonzero(~flipped)[0]] = True
    assert not np.array_equal(want, flipped)
    assert not np.array_equal(
        oracles.residual_after(capacity, *args, flipped), outcome.residual
    )
    # Reject a late admitted flow: its room stays free, so the whole-batch
    # check finds it where the prefix check does not look.
    dropped = outcome.admitted.copy()
    dropped[np.flatnonzero(dropped)[-1]] = False
    freed = oracles.residual_after(capacity, *args, dropped)
    assert oracles.unexplained_rejections(freed, *args, dropped) >= 1


def test_admission_batch_check_flags_a_late_wrong_rejection():
    from dataclasses import replace

    from bench import admission
    from repro.experiments.admission import DEMAND_CLASSES, admit_batch

    stack = _admission_stack()
    paths, demands = inputs.flow_batch(stack.pool.num_paths, 8192,
                                       DEMAND_CLASSES, seed=5, rung=2, ladder=0)
    outcome = admit_batch(stack.capacity, stack.pool, paths, demands)
    assert admission.check_batch(stack, paths, demands, outcome) is None
    late = np.flatnonzero(outcome.admitted)[-1]
    assert late >= admission.ORACLE_PREFIX
    admitted = outcome.admitted.copy()
    admitted[late] = False
    residual = oracles.residual_after(stack.capacity, stack.pool.indptr,
                                      stack.pool.instances, paths, demands,
                                      admitted)
    wrong = replace(outcome, admitted=admitted, residual=residual)
    assert "rejected flows would still fit" in admission.check_batch(
        stack, paths, demands, wrong)


def test_connectivity_oracle_agrees_with_the_curve(tiny_stack):
    from repro.core.connectivity import connectivity_curve

    graph = tiny_stack.graph
    for brokers in (None, tiny_stack.brokers):
        curve = connectivity_curve(graph, brokers, max_hops=8)
        fractions, saturated = oracles.connectivity(graph, brokers, 8)
        assert fractions == curve.fractions.tolist()
        assert saturated == curve.saturated
    fractions, _ = oracles.connectivity(graph, tiny_stack.brokers[:-1], 8)
    assert fractions != connectivity_curve(graph, tiny_stack.brokers, max_hops=8).fractions.tolist()


def test_paper_check_flags_a_planted_curve(tiny_stack):
    from bench import paper
    from bench.layers import Outcome

    graph = tiny_stack.graph
    cells = paper.roster(graph.num_nodes)[:3]
    results = [(c, *paper.run_cell(graph, cells[c])) for c in range(3)]
    clean = Outcome()
    paper.check(graph, cells, results, seed=1, out=clean)
    assert clean.failures == []
    c, brokers, curve = results[0]
    bad = copy.copy(curve)
    object.__setattr__(bad, "fractions", curve.fractions[::-1].copy())
    planted = Outcome()
    paper.check(graph, cells, results + [(c, brokers, bad)], seed=1, out=planted)
    assert planted.failures


def _logged(stack, queries, plant=None):
    from bench.serving import AnswerLog, Load

    log = AnswerLog(static=True)
    for i, answer in enumerate(_answers(stack, queries)):
        if i == plant:
            answer = dict(answer, distance=answer["distance"] + 1)
        log.add(i, answer, 0.001, keep=i % 3 == 0)
    return Load(log, 1.0, [])


def test_resolve_oracle_flags_a_planted_answer(tiny_stack):
    from bench.layers import Outcome
    from bench.serving import check_tcp

    queries = inputs.query_stream(tiny_stack.graph.num_nodes, 300, seed=5)
    clean, planted = Outcome(), Outcome()
    check_tcp(tiny_stack, queries, _logged(tiny_stack, queries), clean)
    check_tcp(tiny_stack, queries, _logged(tiny_stack, queries, plant=7), planted)
    assert clean.failures == []
    assert len(planted.failures) == 1 and "query 7" in planted.failures[0]


def test_answer_log_flags_a_changed_repeat_and_a_refusal(tiny_stack):
    from bench.serving import STREAM, AnswerLog

    log = AnswerLog(static=True)
    answer = {"ok": True, "src": 1, "dst": 2, "distance": 3, "reachable": True}
    log.add(5, answer, 0.001)
    log.add(5 + STREAM, dict(reversed(answer.items())), 0.001)
    assert log.changed_repeats == 0
    log.add(5 + 2 * STREAM, dict(answer, distance=4), 0.001)
    assert log.changed_repeats == 1
    log.add(6, {"ok": False, "error": "bad request"}, 0.001)
    log.add(7, None, 0.001)
    assert len(log.bad) == 2 and log.count == 5
    assert log.slots(AnswerLog.OK).tolist() == [5]


def test_churn_replay_agrees_and_flags_a_planted_answer(tiny_stack):
    import asyncio

    from bench.layers import Outcome
    from bench.serving import PHASE_QUERIES, Stack, churn_load, check_churn
    from repro.core.engine import DominationEngine
    from repro.serving import LabelRepairer, PathQueryService, build_index

    engine = DominationEngine(tiny_stack.graph, tiny_stack.brokers)
    repairer = LabelRepairer(engine, build_index(engine))
    stack = Stack(tiny_stack.graph, tiny_stack.brokers, engine, repairer.index,
                  repairer, PathQueryService(repairer))
    queries = inputs.query_stream(stack.graph.num_nodes, 65536, seed=6)
    plan = inputs.break_plan(engine, 10, seed=6)
    load = asyncio.run(churn_load(stack, queries, plan, 1, phases=6))
    assert load.phases == 6 and load.log.count == 6 * PHASE_QUERIES
    assert len(load.log.kept) == 6 * 5
    clean = Outcome()
    props = check_churn(stack, queries, plan, load, clean)
    assert clean.failures == []
    assert props["mutations"] == 6 and props["shrinking_share"] == 0.5
    # Plant a wrong distance on every kept answer of the first break's phase.
    for i in range(PHASE_QUERIES):
        if i in load.log.kept:
            load.log.kept[i]["distance"] += 1
    planted = Outcome()
    check_churn(stack, queries, plan, load, planted)
    assert len(planted.failures) == 5
    assert all("phase 0" in f for f in planted.failures)
