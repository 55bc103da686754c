import asyncio

from bench import inputs
from bench.tracing import Recorder, ServingProbe
from repro.serving import QueryRequest


def test_probe_matches_spans_to_requests(tiny_stack):
    rec = Recorder({})
    probe = ServingProbe(rec, tiny_stack)
    queries = inputs.query_stream(tiny_stack.graph.num_nodes, 40, seed=2)

    async def drive():
        async def one(i, q):
            probe.expect(i, q)
            return await tiny_stack.service.submit(
                QueryRequest(q.src, q.dst, q.max_hops, q.want_path))
        return await asyncio.gather(*(one(i, q) for i, q in enumerate(queries)))

    try:
        answers = asyncio.run(drive())
    finally:
        probe.close()
    assert probe.mismatches == 0
    assert len(answers) == 40
    by_name = {}
    for r in rec.records:
        by_name.setdefault(r["name"], []).append(r)
    for name in ("serving.service.submit", "serving.repair.sync", "serving.labels.query"):
        assert sorted(r["attrs"]["request"] for r in by_name[name]) == list(range(40))
    submit = {r["attrs"]["request"]: r["id"] for r in by_name["serving.service.submit"]}
    assert all(r["parent"] == submit[r["attrs"]["request"]]
               for r in by_name["serving.labels.query"])
    assert "submit" not in vars(tiny_stack.service)
