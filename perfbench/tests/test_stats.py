import pytest

from bench.stats import InsufficientSamples, covered_length, percentile, self_times


def test_p99_needs_ten_samples_beyond_it():
    with pytest.raises(InsufficientSamples):
        percentile(list(range(999)), 0.99)
    assert percentile(list(range(1000)), 0.99) == 989
    with pytest.raises(InsufficientSamples):
        percentile(list(range(9999)), 0.999)
    assert percentile(list(range(10000)), 0.999) == 9989


def test_median_is_nearest_rank():
    assert percentile([5.0], 0.5) == 5.0
    assert percentile([4, 1, 3, 2], 0.5) == 2
    with pytest.raises(InsufficientSamples):
        percentile([], 0.5)


def _span(sid, start, dur, parent=None):
    return {"id": sid, "parent": parent, "start": start, "dur": dur}


def test_self_time_subtracts_children_once():
    records = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, "root"),     # 1..4
        _span("b", 2.0, 4.0, "root"),     # 2..6, overlaps a
        _span("c", 8.0, 4.0, "root"),     # 8..12, runs past the root
        _span("a1", 1.5, 1.0, "a"),       # 1.5..2.5
    ]
    own = self_times(records)
    assert own["root"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own["a"] == pytest.approx(2.0)
    assert own["b"] == pytest.approx(4.0)
    assert own["a1"] == pytest.approx(1.0)


def test_covered_length_merges_nested_and_disjoint():
    assert covered_length(0, 10, [(1, 5), (2, 3), (7, 8)]) == 5
    assert covered_length(0, 10, []) == 0
