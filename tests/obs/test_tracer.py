"""Unit tests for the span tracer (repro.obs.tracer)."""

import asyncio
import json
import threading

import pytest

from repro._version import __version__
from repro.obs import (
    NullTracer,
    TraceContext,
    Tracer,
    current_context,
    get_tracer,
    set_tracer,
    use_span_context,
    use_tracer,
)
from repro.obs.tracer import NullSpan, _NULL_SPAN


class TestNullTracer:
    def test_default_tracer_is_null(self):
        assert isinstance(get_tracer(), NullTracer)
        assert get_tracer().enabled is False

    def test_span_returns_shared_null_span(self):
        tracer = NullTracer()
        span = tracer.span("anything", attr=1)
        assert span is _NULL_SPAN
        with span as s:
            assert s.set(more=2) is s  # chainable, stateless
        assert tracer.records == []

    def test_event_is_noop(self):
        tracer = NullTracer()
        assert tracer.event("tick") is None
        assert tracer.records == []

    def test_null_span_swallows_nothing(self):
        """NullSpan must not suppress exceptions raised inside it."""
        with pytest.raises(ValueError):
            with NullSpan():
                raise ValueError("boom")


class TestTracer:
    def test_records_span_with_timing(self):
        tracer = Tracer()
        with tracer.span("work", key="value"):
            pass
        (record,) = tracer.records
        assert record["type"] == "span"
        assert record["name"] == "work"
        assert record["parent"] is None
        assert record["attrs"] == {"key": "value"}
        assert record["dur"] >= 0.0
        assert record["start"] >= 0.0

    def test_nesting_sets_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        inner_rec, outer_rec = tracer.records  # children close first
        assert inner_rec["name"] == "inner"
        assert inner_rec["parent"] == outer.span_id
        assert outer_rec["parent"] is None

    def test_set_attaches_attributes(self):
        tracer = Tracer()
        with tracer.span("sel") as span:
            span.set(vertex=3, gain=7)
        assert tracer.records[0]["attrs"] == {"vertex": 3, "gain": 7}

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("fails"):
                raise RuntimeError("x")
        assert tracer.records[0]["attrs"]["error"] == "RuntimeError"

    def test_event_records_point_in_time(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.event("tick", n=1)
        event = next(r for r in tracer.records if r["type"] == "event")
        assert event["name"] == "tick"
        assert event["parent"] == outer.span_id
        assert event["dur"] == 0.0

    def test_aggregate_counts_and_totals(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("round"):
                pass
        agg = tracer.aggregate()
        count, total = agg["round"]
        assert count == 3
        assert total >= 0.0

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        seen = {}

        def worker():
            with tracer.span("thread-root") as span:
                seen["parent"] = span.parent_id

        with tracer.span("main-root"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        # The worker's span must NOT be parented under main's open span.
        assert seen["parent"] is None

    def test_span_ids_unique(self):
        tracer = Tracer()
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [r["id"] for r in tracer.records]
        assert len(set(ids)) == len(ids)


class TestTraceContext:
    def test_round_trips_through_dict(self):
        ctx = TraceContext("t1", "s1", "p1")
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_current_context_follows_open_span(self):
        tracer = Tracer()
        assert current_context() is None
        with tracer.span("outer") as outer:
            ctx = current_context()
            assert ctx.span_id == outer.span_id
            assert ctx.trace_id == outer.trace_id
        assert current_context() is None

    def test_use_span_context_adopts_and_restores(self):
        tracer = Tracer()
        foreign = TraceContext("tX", "sX")
        with use_span_context(foreign):
            with tracer.span("child"):
                pass
        (record,) = tracer.records
        assert record["parent"] == "sX"
        assert record["trace"] == "tX"
        assert current_context() is None

    def test_explicit_parent_overrides_ambient(self):
        tracer = Tracer()
        with tracer.span("ambient"):
            with tracer.span("child", parent=TraceContext("tZ", "sZ")):
                pass
        child = next(r for r in tracer.records if r["name"] == "child")
        assert child["parent"] == "sZ"
        assert child["trace"] == "tZ"

    def test_root_spans_start_fresh_traces(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        traces = {r["trace"] for r in tracer.records}
        assert len(traces) == 2

    def test_children_inherit_trace_id(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("mid"):
                with tracer.span("leaf"):
                    pass
        assert {r["trace"] for r in tracer.records} == {root.trace_id}


class TestExplicitLifecycle:
    def test_start_finish_records_without_ambient_context(self):
        tracer = Tracer()
        span = tracer.span("request").start()
        # Explicit lifecycle must not leak into the ambient context.
        assert current_context() is None
        span.finish()
        (record,) = tracer.records
        assert record["name"] == "request"
        assert record["dur"] >= 0.0

    def test_children_attach_via_span_context(self):
        tracer = Tracer()
        req = tracer.span("request").start()
        child = tracer.span("stage", parent=req.context).start()
        child.finish()
        req.finish()
        stage = next(r for r in tracer.records if r["name"] == "stage")
        assert stage["parent"] == req.span_id
        assert stage["trace"] == req.trace_id


class TestAsyncioIsolation:
    def test_interleaved_tasks_get_independent_span_stacks(self):
        """Regression: two tasks sharing one loop must not mis-parent.

        With the old thread-local stack, task B's span opened while task
        A's span was still on the shared stack, so B's span was parented
        under A's — and A's close popped B's span.  Contextvars give
        every task its own stack.
        """
        tracer = Tracer()

        async def request(name: str, gate_in: asyncio.Event,
                          gate_out: asyncio.Event):
            with tracer.span(name) as span:
                gate_out.set()
                await gate_in.wait()
                with tracer.span(f"{name}.child"):
                    pass
            return span

        async def main():
            a_entered, b_entered = asyncio.Event(), asyncio.Event()
            task_a = asyncio.create_task(
                request("req-a", b_entered, a_entered)
            )
            task_b = asyncio.create_task(
                request("req-b", a_entered, b_entered)
            )
            return await asyncio.gather(task_a, task_b)

        span_a, span_b = asyncio.run(main())
        records = {r["name"]: r for r in tracer.records}
        # Both requests are roots of their own traces...
        assert records["req-a"]["parent"] is None
        assert records["req-b"]["parent"] is None
        assert span_a.trace_id != span_b.trace_id
        # ...and each child is parented under ITS OWN task's span.
        assert records["req-a.child"]["parent"] == span_a.span_id
        assert records["req-b.child"]["parent"] == span_b.span_id
        assert records["req-a.child"]["trace"] == span_a.trace_id
        assert records["req-b.child"]["trace"] == span_b.trace_id

    def test_gathered_tasks_inherit_creating_context(self):
        tracer = Tracer()

        async def leaf(n: int):
            with tracer.span(f"leaf-{n}"):
                await asyncio.sleep(0)

        async def main():
            with tracer.span("batch") as batch:
                await asyncio.gather(*(leaf(i) for i in range(3)))
            return batch

        batch = asyncio.run(main())
        leaves = [r for r in tracer.records if r["name"].startswith("leaf")]
        assert len(leaves) == 3
        assert all(r["parent"] == batch.span_id for r in leaves)


class TestAbsorb:
    def test_start_shifts_by_wall_epoch_difference(self):
        tracer = Tracer()
        record = {
            "type": "span", "name": "worker", "id": "b.1", "trace": "T",
            "parent": "a.1", "start": 0.5, "dur": 1.0, "attrs": {},
        }
        # The worker tracer's epoch is 6 wall-seconds after this one's.
        tracer.absorb([record], tracer.wall_epoch + 6.0)
        (absorbed,) = tracer.records
        assert absorbed["start"] == pytest.approx(6.5)
        assert absorbed["id"] == "b.1"
        assert record["start"] == 0.5

    def test_ids_carry_process_unique_prefix(self):
        a, b = Tracer(), Tracer()
        with a.span("x"):
            pass
        with b.span("x"):
            pass
        id_a = a.records[0]["id"]
        id_b = b.records[0]["id"]
        assert id_a != id_b
        assert id_a.rsplit(".", 1)[0] != id_b.rsplit(".", 1)[0]


class TestExport:
    def test_jsonl_meta_record_first(self):
        tracer = Tracer(metadata={"seed": 7, "scale": "tiny"})
        with tracer.span("a"):
            pass
        lines = tracer.to_jsonl().strip().splitlines()
        meta = json.loads(lines[0])
        assert meta["type"] == "meta"
        assert meta["version"] == __version__
        assert meta["metadata"] == {"seed": 7, "scale": "tiny"}
        assert meta["num_records"] == 1
        assert all(json.loads(line) for line in lines[1:])

    def test_meta_record_embeds_metrics_snapshot(self):
        from repro.obs import add_counter

        tracer = Tracer()
        with tracer.span("a"):
            add_counter("test.trace.meta.counter", 3)
        meta = json.loads(tracer.to_jsonl().splitlines()[0])
        assert set(meta["metrics"]) == {"counters", "gauges", "histograms"}
        assert meta["metrics"]["counters"]["test.trace.meta.counter"] >= 3

    def test_export_writes_file_and_returns_count(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        path = tmp_path / "trace.jsonl"
        assert tracer.export(path) == 2
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3  # meta + two spans
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "meta"
        assert {r["name"] for r in records[1:]} == {"a", "b"}

    def test_non_json_attrs_stringified(self, tmp_path):
        tracer = Tracer()
        with tracer.span("odd") as span:
            span.set(obj=object())
        # default=str in to_jsonl keeps the export parseable regardless.
        for line in tracer.to_jsonl().strip().splitlines():
            json.loads(line)


class TestGlobalTracer:
    def test_set_tracer_returns_previous(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(previous)
        assert get_tracer() is previous

    def test_use_tracer_restores_on_exit(self):
        before = get_tracer()
        tracer = Tracer()
        with use_tracer(tracer) as active:
            assert active is tracer
            assert get_tracer() is tracer
        assert get_tracer() is before

    def test_use_tracer_restores_on_error(self):
        before = get_tracer()
        with pytest.raises(KeyError):
            with use_tracer(Tracer()):
                raise KeyError("x")
        assert get_tracer() is before
