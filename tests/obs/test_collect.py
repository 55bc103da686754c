"""Trace collection tests: reading traces, pool spans coming home, analysis."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer, use_tracer
from repro.obs.collect import (
    build_trees,
    critical_path,
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


class TestReadTrace:
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
    def test_process_backend_spans_merge_into_complete_trace(self):
        """Real end-to-end: a process pool's spans come home in band."""
        from repro.parallel.executor import parallel_map

        tracer = Tracer(metadata={"test": "mp"})
        with use_tracer(tracer):
            with tracer.span("driver"):
                result = parallel_map(
                    _square, list(range(8)), workers=2, chunk_size=2,
                )
        assert result.values() == [i * i for i in range(8)]
        records = tracer.records

        known = {r["id"] for r in records}
        assert all(
            r["parent"] is None or r["parent"] in known for r in records
        ), "trace has orphan spans"
        names = [r["name"] for r in records]
        assert names.count("parallel.chunk") == 4
        assert names.count("parallel.task") == 8
        # Every chunk hangs off the parent's parallel.map span, which
        # hangs off the driver span — one connected tree — and lies
        # inside the map span's window once moved onto its clock.
        trees = build_trees(records)
        assert len(trees) == 1
        assert trees[0].name == "driver"
        (pool_map,) = [r for r in records if r["name"] == "parallel.map"]
        for chunk in (r for r in records if r["name"] == "parallel.chunk"):
            assert pool_map["start"] <= chunk["start"]
            assert (
                chunk["start"] + chunk["dur"]
                <= pool_map["start"] + pool_map["dur"]
            )


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
