"""Serving telemetry: span trees, SLO feed, admin channel, equivalence.

The instrumentation must be *behaviorally invisible*: with a tracer
active, every submitted answer stays bit-identical to the untraced
``resolve``, and each request yields a complete span tree —
``serving.request`` with ``serving.repair.sync`` and ``serving.query``
children plus a ``serving.respond`` event — with no orphans.  The
admin channel must report the same numbers the SLO monitor holds.

No ``pytest-asyncio`` in the toolchain: coroutines run via
``asyncio.run`` directly.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.engine import DominationEngine
from repro.graph.asgraph import ASGraph
from repro.obs import Tracer, use_tracer
from repro.obs.slo import SloMonitor, SloSpec
from repro.serving import (
    ADMIN_VERBS,
    LabelRepairer,
    PathQueryService,
    QueryRequest,
    admin_response,
    serve_tcp,
)


@pytest.fixture()
def engine() -> DominationEngine:
    graph = ASGraph.from_edges(12, [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
        (0, 8), (8, 9), (2, 10), (10, 11), (11, 4),
    ])
    return DominationEngine(graph, [1, 4, 8, 10])


@pytest.fixture()
def service(engine) -> PathQueryService:
    return PathQueryService(LabelRepairer(engine))


def _requests(n: int) -> list[QueryRequest]:
    return [QueryRequest(s, t) for s in range(n) for t in range(n)]


def _submit_all(service: PathQueryService, requests) -> list:
    async def run() -> list:
        return [await service.submit(req) for req in requests]

    return asyncio.run(run())


def _children_of(records: list[dict], span_id: str) -> list[dict]:
    return [r for r in records if r.get("parent") == span_id]


class TestRequestSpanTrees:
    def test_batched_submit_yields_complete_tree_per_request(self, service):
        tracer = Tracer()
        reqs = _requests(3)
        with use_tracer(tracer):
            _submit_all(service, reqs)
        records = tracer.records
        requests = [r for r in records if r["name"] == "serving.request"]
        assert len(requests) == len(reqs)
        known = {r["id"] for r in records}
        assert all(
            r["parent"] is None or r["parent"] in known for r in records
        ), "span tree has orphans"
        for req_span in requests:
            assert req_span["parent"] is None
            assert req_span["attrs"] == {"ok": True}
            kids = _children_of(records, req_span["id"])
            names = sorted(k["name"] for k in kids)
            assert names == [
                "serving.query", "serving.repair.sync", "serving.respond",
            ]
            respond = next(
                k for k in kids if k["name"] == "serving.respond"
            )
            assert respond["type"] == "event"
            # Children share the request's trace id.
            assert {k["trace"] for k in kids} == {req_span["trace"]}
        # Nothing but request trees.
        assert len(records) == 4 * len(reqs)

    def test_unbatched_resolve_tree(self, service):
        tracer = Tracer()
        with use_tracer(tracer):
            service.resolve(QueryRequest(0, 7))
        records = tracer.records
        req_span = next(
            r for r in records if r["name"] == "serving.request"
        )
        assert req_span["attrs"] == {"ok": True}
        names = sorted(
            k["name"] for k in _children_of(records, req_span["id"])
        )
        assert names == [
            "serving.query", "serving.repair.sync", "serving.respond",
        ]

    def test_malformed_request_span_marked_not_ok(self, service):
        tracer = Tracer()
        with use_tracer(tracer):
            response = asyncio.run(service.submit(QueryRequest("x", 1)))
        assert not response.ok
        req_span = next(
            r for r in tracer.records if r["name"] == "serving.request"
        )
        assert req_span["attrs"]["ok"] is False
        names = {
            k["name"] for k in _children_of(tracer.records, req_span["id"])
        }
        assert "serving.query" not in names  # never reached the index

    def test_no_tracing_no_spans(self, service):
        responses = _submit_all(service, _requests(2))
        assert all(r.ok for r in responses)


class TestTracedEquivalence:
    def test_batched_equals_unbatched_with_tracing_enabled(self, engine):
        """Acceptance criterion: instrumentation changes no answers."""
        reqs = [
            QueryRequest(s, t, want_path=(s + t) % 3 == 0)
            for s in range(12) for t in range(12)
        ]
        reference = PathQueryService(LabelRepairer(engine))
        expected = [reference.resolve(r).as_dict() for r in reqs]
        with use_tracer(Tracer()):
            traced = PathQueryService(
                LabelRepairer(engine), slo_monitor=SloMonitor()
            )
            got = [r.as_dict() for r in _submit_all(traced, reqs)]
        assert got == expected


class TestSloFeed:
    def _monitored(self, engine, specs=None) -> PathQueryService:
        monitor = SloMonitor(specs) if specs else SloMonitor()
        return PathQueryService(LabelRepairer(engine), slo_monitor=monitor)

    def test_every_request_feeds_the_window(self, engine):
        service = self._monitored(engine)
        _submit_all(service, _requests(3))
        service.resolve(QueryRequest(0, 1))
        assert service.slo.window.snapshot()["count"] == 10
        assert service.slo.snapshot()["lifetime"]["count"] == 10

    def test_malformed_requests_count_as_errors(self, engine):
        service = self._monitored(engine)
        asyncio.run(service.submit(QueryRequest("bogus", 1)))
        asyncio.run(service.submit(QueryRequest(0, 1)))
        snap = service.slo.window.snapshot()
        assert snap["count"] == 2
        assert snap["errors"] == 1

    def test_breach_shows_up_in_evaluate(self, engine):
        # Impossible latency SLO: everything is a bad event.
        service = self._monitored(engine, [SloSpec(
            name="strict", kind="latency", target=0.99, threshold=1e-12,
        )])
        _submit_all(service, _requests(2))
        (verdict,) = service.slo.breaches()
        assert verdict.spec.name == "strict"
        assert verdict.burn_rate > 1.0


class TestAdminChannel:
    def test_health_ok_and_breached(self, engine):
        service = PathQueryService(
            LabelRepairer(engine), slo_monitor=SloMonitor()
        )
        payload = admin_response(service, "/health")
        assert payload["ok"] is True
        assert payload["status"] == "ok"
        assert set(payload) == {"ok", "status", "uptime_s", "slo_breaches"}
        service.slo = SloMonitor([SloSpec(
            name="strict", kind="latency", target=0.99, threshold=1e-12,
        )])
        service.slo.observe(1.0)
        assert admin_response(service, "/health")["status"] == "breached"

    def test_slo_verb_matches_monitor_snapshot(self, engine):
        service = PathQueryService(
            LabelRepairer(engine), slo_monitor=SloMonitor()
        )
        service.slo.observe(0.010)
        payload = admin_response(service, "/slo")
        assert payload["ok"] is True
        assert payload["window"]["count"] == 1
        assert payload["lifetime"] == {"count": 1, "errors": 0}
        assert {s["name"] for s in payload["slos"]} == {
            "latency-p99", "availability",
        }

    def test_slo_verb_without_monitor_is_structured_error(self, engine):
        service = PathQueryService(LabelRepairer(engine))
        payload = admin_response(service, "/slo")
        assert payload["ok"] is False
        assert "no SLO monitor" in payload["error"]

    def test_metrics_verb_snapshots_registry(self, engine):
        service = PathQueryService(
            LabelRepairer(engine), slo_monitor=SloMonitor()
        )
        service.resolve(QueryRequest(0, 1))
        payload = admin_response(service, "/metrics")
        assert payload["ok"] is True
        assert "serving.queries" in payload["metrics"]["counters"]
        assert payload["window"]["count"] == 1

    def test_unknown_verb_lists_the_menu(self, engine):
        service = PathQueryService(LabelRepairer(engine))
        payload = admin_response(service, "/nope")
        assert payload["ok"] is False
        for verb in ADMIN_VERBS:
            assert verb in payload["error"]

    def test_admin_verbs_over_real_tcp(self, engine):
        """Admin lines answered out-of-band on the JSON-lines socket."""
        service = PathQueryService(
            LabelRepairer(engine), slo_monitor=SloMonitor()
        )

        async def scenario():
            server = await serve_tcp(service, port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            out = []
            lines = [
                b'{"src": 0, "dst": 4}\n',
                b"/health\n",
                b"/slo\n",
                b"/metrics\n",
                b"/bogus\n",
            ]
            for line in lines:
                writer.write(line)
                await writer.drain()
                out.append(json.loads(await reader.readline()))
            writer.close()
            server.close()
            await server.wait_closed()
            return out

        query, health, slo, metrics, bogus = asyncio.run(scenario())
        assert query["ok"] is True and query["reachable"] is True
        assert health["status"] == "ok"
        assert slo["window"]["count"] == 1  # the one query above
        assert "counters" in metrics["metrics"]
        assert bogus["ok"] is False

