"""Trace collection tests: shard merge, clock skew, orphans, analysis."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer, use_tracer
from repro.obs.collect import (
    build_trees,
    critical_path,
    discover_shards,
    merge,
    merge_into,
    read_shard,
    read_trace,
    render_critical_path,
    render_flame,
)


def _square(x):
    return x * x


def _span(span_id, name, *, trace=None, parent=None, start=0.0, dur=1.0,
          attrs=None):
    return {
        "type": "span",
        "name": name,
        "id": span_id,
        "trace": trace if trace is not None else f"t{span_id}",
        "parent": parent,
        "start": start,
        "dur": dur,
        "attrs": attrs or {},
    }


class TestMerge:
    def test_shard_starts_normalized_by_wall_epoch(self):
        meta = {"type": "meta", "wall_epoch": 1000.0}
        root = _span("a.1", "root", trace="T", start=5.0, dur=4.0)
        shard = _span(
            "b.1", "worker", trace="T", parent="a.1", start=0.5, dur=1.0
        )
        # The shard tracer's epoch is 6 wall-seconds after the root's.
        shard["_wall_epoch"] = 1006.0
        merged_meta, records = merge(meta, [root], [shard])
        worker = next(r for r in records if r["name"] == "worker")
        assert worker["start"] == pytest.approx(6.5)
        assert merged_meta["merged_shard_records"] == 1
        assert merged_meta["num_records"] == 2

    def test_orphan_adopted_by_trace_root(self):
        meta = {"type": "meta", "wall_epoch": 0.0}
        root = _span("a.1", "root", trace="T", start=0.0, dur=10.0)
        orphan = _span(
            "b.7", "lost", trace="T", parent="b.6", start=1.0, dur=1.0
        )
        orphan["_wall_epoch"] = 0.0
        merged_meta, records = merge(meta, [root], [orphan])
        lost = next(r for r in records if r["name"] == "lost")
        assert lost["parent"] == "a.1"
        assert lost["attrs"]["adopted"] is True
        assert merged_meta["adopted_orphans"] == 1

    def test_rootless_trace_promotes_earliest_orphan(self):
        meta = {"type": "meta", "wall_epoch": 0.0}
        early = _span("b.2", "early", trace="T", parent="gone", start=1.0)
        late = _span("b.3", "late", trace="T", parent="gone", start=2.0)
        _, records = merge(meta, [], [dict(r, _wall_epoch=0.0)
                                      for r in (early, late)])
        by_name = {r["name"]: r for r in records}
        assert by_name["early"]["parent"] is None
        assert by_name["late"]["parent"] == "b.2"

    def test_no_orphans_remain_after_merge(self):
        meta = {"type": "meta", "wall_epoch": 0.0}
        root = _span("a.1", "root", trace="T", start=0.0, dur=10.0)
        shards = [
            dict(
                _span(f"b.{i}", f"w{i}", trace="T", parent=f"missing.{i}"),
                _wall_epoch=0.0,
            )
            for i in range(5)
        ]
        _, records = merge(meta, [root], shards)
        known = {r["id"] for r in records}
        assert all(
            r["parent"] is None or r["parent"] in known for r in records
        )

    def test_merge_into_rewrites_file(self, tmp_path):
        tracer = Tracer(metadata={"test": True})
        with tracer.span("root"):
            pass
        trace_path = tmp_path / "trace.jsonl"
        tracer.export(trace_path)

        worker = Tracer()
        with worker.span("worker-chunk"):
            pass
        shard_dir = tmp_path / "shards"
        worker.export_shard(shard_dir)

        merged, adopted = merge_into(trace_path, shard_dir)
        assert merged == 1
        meta, records = read_trace(trace_path)
        assert meta["num_records"] == len(records) == 2
        assert {r["name"] for r in records} == {"root", "worker-chunk"}

    def test_discover_shards_empty_dir(self, tmp_path):
        assert discover_shards(tmp_path / "nope") == []

    def test_read_shard_tracks_interleaved_clocks(self, tmp_path):
        path = tmp_path / "shard-1.jsonl"
        lines = [
            json.dumps({"type": "clock", "prefix": "a", "wall_epoch": 10.0}),
            json.dumps(_span("a.1", "one")),
            json.dumps({"type": "clock", "prefix": "b", "wall_epoch": 20.0}),
            json.dumps(_span("b.1", "two")),
        ]
        path.write_text("\n".join(lines) + "\n")
        records = read_shard(path)
        assert [r["_wall_epoch"] for r in records] == [10.0, 20.0]

    def test_schema1_integer_ids_normalized(self, tmp_path):
        path = tmp_path / "old.jsonl"
        old = {
            "type": "span", "name": "legacy", "id": 3, "parent": 1,
            "start": 0.0, "dur": 1.0, "attrs": {},
        }
        path.write_text(
            json.dumps({"type": "meta", "num_records": 1}) + "\n"
            + json.dumps(old) + "\n"
        )
        _, records = read_trace(path)
        assert records[0]["id"] == "3"
        assert records[0]["parent"] == "1"
        assert records[0]["trace"] == "3"


class TestMultiprocessRoundTrip:
    def test_process_backend_spans_merge_into_complete_trace(self, tmp_path):
        """Real end-to-end: a process pool's shards → merged trace."""
        from repro.parallel.executor import parallel_map

        shard_dir = tmp_path / "shards"
        tracer = Tracer(metadata={"test": "mp"}, shard_dir=shard_dir)
        with use_tracer(tracer):
            with tracer.span("driver"):
                result = parallel_map(
                    _square, list(range(8)), workers=2, chunk_size=2,
                )
        assert result.values() == [i * i for i in range(8)]
        assert discover_shards(shard_dir), "workers wrote no shards"

        trace_path = tmp_path / "trace.jsonl"
        tracer.export(trace_path)
        merge_into(trace_path, shard_dir)
        _, records = read_trace(trace_path)

        known = {r["id"] for r in records}
        assert all(
            r["parent"] is None or r["parent"] in known for r in records
        ), "merged trace has orphan spans"
        names = [r["name"] for r in records]
        assert names.count("parallel.chunk") == 4
        assert names.count("parallel.task") == 8
        # Every chunk hangs off the parent's parallel.map span, which
        # hangs off the driver span — one connected tree.
        trees = build_trees(records)
        roots = [t for t in trees if t.record["parent"] is None]
        assert len(roots) == 1
        assert roots[0].name == "driver"


class TestCriticalPath:
    def test_descends_into_last_finishing_child(self):
        records = [
            _span("r", "root", trace="T", start=0.0, dur=10.0),
            _span("a", "fast", trace="T", parent="r", start=0.0, dur=2.0),
            _span("b", "slow", trace="T", parent="r", start=3.0, dur=6.0),
        ]
        (root,) = build_trees(records)
        steps = critical_path(root)
        assert [s.name for s in steps] == ["root", "slow"]

    def test_self_time_sum_bounded_by_root_wall_time(self):
        records = [
            _span("r", "root", trace="T", start=0.0, dur=10.0),
            # Clock skew: child nominally longer than its parent.
            _span("c", "skewed", trace="T", parent="r", start=1.0, dur=50.0),
        ]
        (root,) = build_trees(records)
        steps = critical_path(root)
        assert sum(s.self_time for s in steps) <= root.dur + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_property_self_times_never_exceed_root(self, data):
        """Random span forests: Σ self-time ≤ root wall time, always."""
        n = data.draw(st.integers(min_value=1, max_value=20))
        records = [_span("s0", "root", trace="T", start=0.0,
                         dur=data.draw(st.floats(0.001, 100.0)))]
        for i in range(1, n):
            parent = data.draw(st.integers(min_value=0, max_value=i - 1))
            records.append(_span(
                f"s{i}", f"n{i}", trace="T", parent=f"s{parent}",
                start=data.draw(st.floats(0.0, 100.0)),
                dur=data.draw(st.floats(0.0, 100.0)),
            ))
        (root,) = build_trees(records)
        steps = critical_path(root)
        assert sum(s.self_time for s in steps) <= root.dur + 1e-9
        assert all(s.self_time >= 0.0 for s in steps)
        assert all(s.duration >= 0.0 for s in steps)


class TestRendering:
    def _sample_records(self):
        return [
            _span("r1", "request", trace="T1", start=0.0, dur=4.0),
            _span("q1", "query", trace="T1", parent="r1", start=1.0, dur=2.0),
            _span("r2", "request", trace="T2", start=5.0, dur=2.0),
            _span("q2", "query", trace="T2", parent="r2", start=5.5, dur=1.0),
        ]

    def test_flame_merges_siblings_by_name(self):
        text = render_flame(build_trees(self._sample_records()))
        assert "request" in text
        assert "×2" in text  # both requests aggregated on one line
        assert "query" in text

    def test_flame_empty(self):
        assert render_flame([]) == "(no spans)"

    def test_critical_path_renders_longest_traces_first(self):
        text = render_critical_path(build_trees(self._sample_records()))
        assert text.index("T1") < text.index("T2")  # 4.0s before 2.0s
        assert "wall=" in text
        assert "self=" in text

    def test_events_ride_along_as_leaves(self):
        records = self._sample_records()
        records.append({
            "type": "event", "name": "respond", "id": "e1", "trace": "T1",
            "parent": "r1", "start": 3.9, "dur": 0.0, "attrs": {},
        })
        trees = build_trees(records)
        t1 = next(t for t in trees if t.record["trace"] == "T1")
        assert any(c.record["type"] == "event" for c in t1.children)
        # Events never appear in the flamegraph (zero-duration noise).
        assert "respond" not in render_flame(trees)
