"""Property tests for the hub-label invariants the serving tier relies on.

Beyond answer exactness (the differential suite's job), the index makes
structural promises that queries and repairs exploit:

* per-vertex hub arrays are **sorted unique** (the sorted-merge query
  depends on it) and every ``(hub, dist)`` entry equals the true
  dominated-subgraph distance;
* fresh canonical builds are **pruned-minimal**: an entry survives only
  if no pair of strictly-earlier-rank hubs already answers it — the
  landmark pruning invariant that keeps label counts near-linear;
* ``distance`` is symmetric (undirected subgraph, asymmetric labels);
* ``index.verify()`` — the all-pairs from-scratch oracle — passes after
  **every** incremental repair step, and serialization round-trips
  bit-identical answers;
* fresh builds and every repair leave the labels **canonical** in the
  index's own rank order: ``h ∈ L(v)`` with value ``d(h, v)`` iff ``h``
  outranks every other vertex on every shortest ``h–v`` path — checked
  against that definition directly, from all-pairs BFS;
* a sync re-sweeps every hub whose canonical entries change on vertices
  alive on both sides, and no hub outside the tight-only rule
  (``tests/oracles/repair.py``) plus the born and died vertices;
* the repairer's snapshot keys (sorted, not deduplicated) equal
  ``edge_keys``' sorted unique keys in every engine state.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.labels import HubLabelIndex, _snapshot, edge_keys
from repro.serving.repair import LabelRepairer
from tests.oracles.repair import tight_hubs
from tests.serving.test_label_differential import (
    _apply_mutation,
    engines,
    naive_distances,
)

MUTATIONS = st.tuples(st.integers(0, 7), st.integers(0, 63), st.integers(0, 63))


def canonical_labels(engine, rank) -> list[dict[int, int]]:
    """The canonical labeling by definition: ``w`` lies on a shortest
    ``h–v`` path iff ``d(h, w) + d(w, v) == d(h, v)``."""
    dist = [naive_distances(engine, v) for v in range(engine.num_nodes)]
    return [
        {
            h: d
            for h, d in dist[v].items()
            if all(rank[w] > rank[h] for w, dw in dist[v].items()
                   if w != h and dist[h][w] + dw == d)
        }
        for v in range(engine.num_nodes)
    ]


def assert_canonical(index: HubLabelIndex, engine) -> None:
    alive_ranks = index.rank[index.alive]
    assert len(set(alive_ranks.tolist())) == len(alive_ranks)
    expected = canonical_labels(engine, index.rank)
    expected += [{}] * (index.n - engine.num_nodes)
    assert index.hub_dists == expected


class TestLabelStructure:
    @given(engines())
    @settings(max_examples=25, deadline=None)
    def test_fresh_build_is_canonical(self, engine):
        index = HubLabelIndex.build(engine)
        assert_canonical(index, engine)

    @given(engines())
    @settings(max_examples=25, deadline=None)
    def test_hub_arrays_sorted_unique_and_exact(self, engine):
        index = HubLabelIndex.build(engine)
        for v in range(index.n):
            hubs, dists = index.labels_of(v)
            assert len(hubs) == len(set(hubs.tolist()))
            assert np.all(np.diff(hubs) > 0) or len(hubs) <= 1
            truth = naive_distances(engine, v)
            for h, d in zip(hubs.tolist(), dists.tolist()):
                assert truth.get(h) == d, (
                    f"label entry ({v}, hub {h}) = {d}, true distance "
                    f"{truth.get(h)}"
                )

    @given(engines())
    @settings(max_examples=25, deadline=None)
    def test_fresh_build_is_pruned_minimal(self, engine):
        """Entry (v, h) exists only if earlier-rank hubs can't answer it."""
        index = HubLabelIndex.build(engine)
        for v in range(index.n):
            for h, d in index.hub_dists[v].items():
                if h == v:
                    continue
                h_label = index.hub_dists[h]
                for h2, d2 in index.hub_dists[v].items():
                    if index.rank[h2] >= index.rank[h]:
                        continue
                    via = h_label.get(h2)
                    assert via is None or d2 + via > d, (
                        f"entry ({v}, {h}) = {d} is covered by earlier "
                        f"hub {h2}: {d2} + {via}"
                    )

    @given(engines())
    @settings(max_examples=25, deadline=None)
    def test_distance_symmetry(self, engine):
        index = HubLabelIndex.build(engine)
        for s in range(index.n):
            for t in range(s, index.n):
                assert index.distance(s, t) == index.distance(t, s)

    @given(engines(max_nodes=20))
    @settings(max_examples=20, deadline=None)
    def test_dead_vertices_carry_no_labels(self, engine):
        for v in range(min(3, engine.num_nodes)):
            engine.fail_node(v)
        index = HubLabelIndex.build(engine)
        for v in range(engine.num_nodes):
            if not engine.is_alive(v):
                assert not index.hub_dists[v]
                assert index.distance(v, v) is None


class TestRepairInvariants:
    @given(
        engines(max_nodes=14),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 63),
                           st.integers(0, 63)),
                 min_size=1, max_size=10),
    )
    @settings(max_examples=25, deadline=None)
    def test_verify_passes_after_every_repair(self, engine, script):
        repairer = LabelRepairer(engine)
        assert repairer.index.verify()
        for op, a, b in script:
            _apply_mutation(engine, op, a, b)
            repairer.sync()
            assert repairer.index.verify()

    @given(
        engines(max_nodes=16),
        st.lists(
            st.lists(st.tuples(st.integers(0, 7), st.integers(0, 63),
                               st.integers(0, 63)),
                     min_size=1, max_size=3),
            min_size=1, max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_labels_stay_canonical_after_every_sync(self, engine, script):
        repairer = LabelRepairer(engine)
        for ops in script:
            for op, a, b in ops:
                _apply_mutation(engine, op, a, b)
            repairer.sync()
            assert_canonical(repairer.index, engine)

    @given(
        engines(max_nodes=14),
        st.lists(st.lists(MUTATIONS, min_size=1, max_size=4),
                 min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_sync_sweeps_changed_hubs_within_the_tight_rule(self, engine,
                                                            script):
        repairer = LabelRepairer(engine)
        index = repairer.index
        swept: list[int] = []
        sweep = index._pruned_bfs
        index._pruned_bfs = lambda h: (swept.append(h), sweep(h))
        for ops in script:
            before = canonical_labels(engine, index.rank)
            _, old_alive, old_keys = _snapshot(engine)
            for op, a, b in ops:
                _apply_mutation(engine, op, a, b)
            swept.clear()
            repairer.sync()
            _, alive, keys = _snapshot(engine)
            after = canonical_labels(engine, index.rank)
            changed = {
                h
                for v in range(len(old_alive)) if old_alive[v] and alive[v]
                for h in before[v].keys() | after[v].keys()
                if before[v].get(h) != after[v].get(h)
            }
            assert changed <= set(swept), (
                f"hubs {sorted(changed - set(swept))} changed unswept"
            )
            grow = index.n - len(old_alive), index.n - len(alive)
            assert set(swept) <= tight_hubs(
                old_keys, np.pad(old_alive, (0, grow[0])),
                keys, np.pad(alive, (0, grow[1])),
            )

    @given(engines(max_nodes=16), st.lists(MUTATIONS, min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_snapshot_keys_are_the_unique_edge_keys(self, engine, script):
        def check():
            _, _, keys = _snapshot(engine)
            assert np.array_equal(keys, edge_keys(*engine.dominated_alive_edges()))
            assert keys.dtype == np.int64

        token = engine.checkpoint()
        for op, a, b in script:
            _apply_mutation(engine, op, a, b)
            check()
        engine.rollback(token)
        check()

    @given(engines(max_nodes=20))
    @settings(max_examples=15, deadline=None)
    def test_payload_round_trip_preserves_answers(self, engine):
        index = HubLabelIndex.build(engine)
        clone = HubLabelIndex.from_payload(index.to_payload())
        assert clone.verify()
        for s in range(index.n):
            for t in range(index.n):
                assert index.distance(s, t) == clone.distance(s, t)

    @given(engines(max_nodes=16))
    @settings(max_examples=15, deadline=None)
    def test_unsubscribed_repairer_stops_observing(self, engine):
        repairer = LabelRepairer(engine)
        repairer.close()
        alive = [v for v in range(engine.num_nodes) if engine.is_alive(v)]
        engine.fail_node(alive[0])
        assert not repairer.dirty
