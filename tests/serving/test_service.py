"""Service-tier contract: resolve, metrics, errors, loadgen, TCP framing.

``submit`` answers inline through ``resolve``, so the two must agree
bit for bit, a mutation between two submits must be seen by the later
one, and malformed requests must resolve to structured errors.  The
load generator must be deterministic end-to-end — same index + same
seed, same queries and the same ``answers_digest`` — because ledger
regression checks compare those digests across sessions.  The TCP
endpoint must answer every line exactly once and never drop the
connection over bad input.

No ``pytest-asyncio`` in the toolchain: coroutines run via
``asyncio.run`` directly.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import DominationEngine
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.obs.metrics import get_registry
from repro.serving import (
    LabelRepairer,
    PathQueryService,
    QueryRequest,
    build_index,
    generate_queries,
    run_loadgen,
    serve_tcp,
)
from repro.serving.labels import HubLabelIndex
from repro.serving.service import _read_line, _serve_connection


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


def _submit_all(service: PathQueryService, requests) -> list:
    async def run() -> list:
        return [await service.submit(req) for req in requests]

    return asyncio.run(run())


def _all_requests(n: int) -> list[QueryRequest]:
    return [
        QueryRequest(s, t, want_path=(s + t) % 3 == 0)
        for s in range(n) for t in range(n)
    ]


class TestBatchingEquivalence:
    def test_batched_equals_unbatched(self, engine, service):
        """``submit`` and ``resolve`` give bit-identical answers."""
        requests = _all_requests(engine.num_nodes)
        submitted = _submit_all(service, requests)
        for req, got in zip(requests, submitted):
            assert got.as_dict() == service.resolve(req).as_dict()

    def test_mid_batch_mutation_visible_like_unbatched(self, engine):
        """A mutation between two submits is seen by the later one."""
        service = PathQueryService(LabelRepairer(engine))

        async def query_mutate_query() -> list:
            # 0-1-2-10-11-4 is the only dominated route from 0 to 4.
            first = await service.submit(QueryRequest(0, 4))
            engine.fail_node(11)
            second = await service.submit(QueryRequest(0, 4))
            return [first, second]

        first, second = asyncio.run(query_mutate_query())
        assert first.reachable is True
        assert second.reachable is False
        assert second.as_dict() == service.resolve(
            QueryRequest(0, 4)
        ).as_dict()


class TestStructuredErrors:
    def test_malformed_does_not_kill_the_batch(self, service):
        requests = [
            QueryRequest(0, 5),
            QueryRequest("nope", 5),
            QueryRequest(0, 10**9),
            QueryRequest(0, 5, max_hops=-2),
            QueryRequest(5, 0),
        ]
        responses = _submit_all(service, requests)
        assert [r.ok for r in responses] == [True, False, False, False, True]
        for bad in responses[1:4]:
            assert bad.error
            assert bad.distance is None and bad.reachable is None
        assert responses[0].as_dict() == service.resolve(
            requests[0]
        ).as_dict()

    def test_error_counter_increments(self, service):
        before = get_registry().snapshot()["counters"].get(
            "serving.errors", 0
        )
        assert service.resolve(QueryRequest(None, 0)).ok is False
        assert service.resolve(QueryRequest(0, True)).ok is False
        after = get_registry().snapshot()["counters"]["serving.errors"]
        assert after - before == 2

    def test_resolve_never_raises_on_bool(self, service):
        response = service.resolve(QueryRequest(0, 1, max_hops=True))
        assert response.ok is False
        assert "max_hops" in response.error


class TestMetrics:
    def test_latency_histograms_recorded(self, service):
        before = {
            name: summary["count"]
            for name, summary in get_registry()
            .snapshot()["histograms"].items()
        }
        _submit_all(service, [
            QueryRequest(i % 12, (i * 5) % 12) for i in range(7)
        ])
        histograms = get_registry().snapshot()["histograms"]
        for name in ("serving.query.seconds", "serving.request.seconds"):
            assert name in histograms, f"missing histogram {name}"
            # The registry is process-global: assert *this* run observed.
            assert histograms[name]["count"] == before.get(name, 0) + 7


class TestLoadgen:
    def test_deterministic_queries_and_digest(self, engine, service):
        index = service._index
        q1 = generate_queries(index, 60, seed=11)
        q2 = generate_queries(index, 60, seed=11)
        assert q1 == q2
        r1 = run_loadgen(service, index, 60, seed=11)
        r2 = run_loadgen(service, index, 60, seed=11)
        assert r1.answers_digest == r2.answers_digest
        assert r1.queries == 60
        assert r1.errors == 0

    def test_seed_changes_workload(self, service):
        index = service._index
        assert generate_queries(index, 60, seed=1) != generate_queries(
            index, 60, seed=2
        )

    def test_loadgen_report_is_json_safe(self, engine, service):
        report = run_loadgen(service, service._index, 20, seed=3)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["queries"] == 20
        assert payload["answers_digest"] == report.answers_digest


class TestIndexOnlyService:
    def test_service_over_bare_index(self, engine):
        index = HubLabelIndex.build(engine)
        service = PathQueryService(index)
        responses = _submit_all(
            service, [QueryRequest(0, 4), QueryRequest(4, 0)]
        )
        assert responses[0].distance == responses[1].distance


class TestTcpEndpoint:
    def test_json_lines_round_trip(self, engine):
        service = PathQueryService(LabelRepairer(engine))

        async def roundtrip() -> list[dict]:
            server = await serve_tcp(service, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            lines = [
                json.dumps({"src": 0, "dst": 4, "path": True}),
                "this is not json",
                json.dumps({"src": 0, "dst": "x"}),
                json.dumps({"src": 3, "dst": 3}),
            ]
            out = []
            for line in lines:
                writer.write((line + "\n").encode())
                await writer.drain()
                out.append(json.loads(await reader.readline()))
            writer.close()
            server.close()
            await server.wait_closed()
            return out

        ok, not_json, bad_dst, self_query = asyncio.run(roundtrip())
        assert ok["ok"] and ok["reachable"] and ok["path"][0] == 0
        assert not_json["ok"] is False and not_json["error"]
        assert bad_dst["ok"] is False and "dst" in bad_dst["error"]
        assert self_query["ok"] and self_query["distance"] == 0


#: Request lines worth mixing into the framing fuzz.
AWKWARD_LINES = [
    b'{"src": 0, "dst": 4, "path": true}',
    b"/health",
    b"/nope",
    b"{}",
    b"null",
    b"[" * 5000,
    b'{"src": 1e400, "dst": 0}',
    b'{"src": 0, "dst": 4, "max_hops": -1}',
    b"\xff\xfe{\x00",
    b"\r",
    b"",
]


async def _exchange(service, payload: bytes, replies: int) -> tuple:
    """Send ``payload``, read ``replies`` lines, then what follows EOF."""
    server = await serve_tcp(service, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()

    async def read() -> tuple:
        lines = [await reader.readline() for _ in range(replies)]
        writer.write_eof()
        return lines, await reader.read()

    lines, rest = await asyncio.wait_for(read(), timeout=30)
    writer.close()
    server.close()
    await server.wait_closed()
    return [json.loads(line) for line in lines], rest


class _ResetWriter:
    """A stream writer whose peer reset the connection."""

    closed = False

    def write(self, data: bytes) -> None:
        pass

    async def drain(self) -> None:
        raise ConnectionResetError("peer reset")

    def close(self) -> None:
        self.closed = True


class TestTcpHardening:
    def test_oversize_and_non_utf8_lines_get_one_error_each(self, service):
        payload = (
            b'{"src": 0, "dst": "' + b"x" * 100_000 + b'"}\n'
            + b"\xff\xfe\x80\n"
            + b'{"src": 0, "dst": 4}\n'
        )
        (too_long, binary, query), rest = asyncio.run(
            _exchange(service, payload, 3)
        )
        assert too_long == {"ok": False, "error": "line too long",
                            "src": None, "dst": None}
        assert binary["ok"] is False and binary["error"]
        assert query == service.resolve(QueryRequest(0, 4)).as_dict()
        assert rest == b""

    @pytest.mark.parametrize("chunks", [
        [b"0123456789abc\nnext\n"],         # newline already buffered
        [b"0123456789ab", b"cdef\nnext\n"],  # newline arrives later
        [b"0123456789ab", b"cdefghijklmnop", b"\nnext\n"],
    ])
    def test_overlong_line_is_dropped_through_its_newline(self, chunks):
        async def scenario() -> list:
            reader = asyncio.StreamReader(limit=8)
            reader.feed_data(chunks[0])
            first = asyncio.ensure_future(_read_line(reader))
            for chunk in chunks[1:]:
                await asyncio.sleep(0)
                reader.feed_data(chunk)
            reader.feed_eof()
            return [await first, await _read_line(reader),
                    await _read_line(reader)]

        assert asyncio.run(scenario()) == [None, b"next\n", b""]

    def test_client_reset_during_drain_ends_the_handler(self, service):
        async def scenario() -> _ResetWriter:
            reader = asyncio.StreamReader()
            reader.feed_data(b'{"src": 0, "dst": 4}\n{"src": 1, "dst": 5}\n')
            writer = _ResetWriter()
            await _serve_connection(service, reader, writer)
            return writer

        assert asyncio.run(scenario()).closed

    def test_client_reset_during_read_ends_the_handler(self, service):
        async def scenario() -> _ResetWriter:
            reader = asyncio.StreamReader()
            reader.set_exception(ConnectionResetError("peer reset"))
            writer = _ResetWriter()
            await _serve_connection(service, reader, writer)
            return writer

        assert asyncio.run(scenario()).closed

    @given(st.lists(
        st.one_of(
            st.binary(max_size=64).map(lambda b: b.replace(b"\n", b"")),
            st.sampled_from(AWKWARD_LINES),
        ),
        max_size=6,
    ))
    @settings(max_examples=40, deadline=None)
    def test_every_line_gets_exactly_one_json_reply(self, lines):
        graph = ASGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4)])
        service = PathQueryService(
            LabelRepairer(DominationEngine(graph, [1, 3]))
        )
        payload = b"".join(line + b"\n" for line in lines)
        payload += b'{"src": 0, "dst": 4}\n'
        replies, rest = asyncio.run(
            _exchange(service, payload, len(lines) + 1)
        )
        assert all(isinstance(reply, dict) for reply in replies)
        assert replies[-1] == service.resolve(QueryRequest(0, 4)).as_dict()
        assert replies[-1]["reachable"] is True
        assert rest == b""


def truncated_labels(payload: dict) -> None:
    payload["labels"].pop()


def out_of_range_hub(payload: dict) -> None:
    payload["labels"][0].append([payload["n"], 1])


def duplicate_alive_rank(payload: dict) -> None:
    payload["rank"][1] = payload["rank"][0]


def labels_on_dead_vertex(payload: dict) -> None:
    payload["labels"][7] = [[6, 1]]  # vertex 7 failed before the build


CORRUPTIONS = [
    ("labels", truncated_labels),
    ("labels", out_of_range_hub),
    ("rank", duplicate_alive_rank),
    ("labels", labels_on_dead_vertex),
]


class TestCachedBuild:
    def test_cache_round_trip_same_answers(self, engine, tmp_path):
        from repro.parallel.cache import ResultCache

        cache = ResultCache(tmp_path)
        cold = build_index(engine, cache=cache)
        warm = build_index(engine, cache=cache)
        assert cache.misses == 1 and cache.hits == 1
        assert cold.to_payload() == warm.to_payload()
        assert warm.verify()

    @pytest.mark.parametrize("field,corrupt", CORRUPTIONS,
                             ids=[c.__name__ for _, c in CORRUPTIONS])
    def test_from_payload_names_the_bad_field(self, engine, field, corrupt):
        engine.fail_node(7)
        payload = HubLabelIndex.build(engine).to_payload()
        corrupt(payload)
        with pytest.raises(AlgorithmError, match=f"'{field}'"):
            HubLabelIndex.from_payload(payload)

    @pytest.mark.parametrize("field,corrupt", CORRUPTIONS,
                             ids=[c.__name__ for _, c in CORRUPTIONS])
    def test_corrupt_cache_entry_is_rebuilt(self, engine, tmp_path, field,
                                            corrupt):
        from repro.parallel.cache import ResultCache

        engine.fail_node(7)
        cache = ResultCache(tmp_path)
        fresh = build_index(engine, cache=cache).to_payload()
        (path,) = tmp_path.glob("*/*.json")
        entry = json.loads(path.read_text())
        corrupt(entry["value"])
        path.write_text(json.dumps(entry))
        rejects = get_registry().snapshot()["counters"].get(
            "serving.index.cache_rejects", 0
        )
        index = build_index(engine, cache=cache)
        assert index.verify()
        assert index.to_payload() == fresh
        assert json.loads(path.read_text())["value"] == fresh
        assert get_registry().snapshot()["counters"][
            "serving.index.cache_rejects"
        ] == rejects + 1
