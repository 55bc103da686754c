"""Unit tests for the attributed multigraph and its simple projection."""

import numpy as np
import pytest

from repro.exceptions import GraphValidationError
from repro.graph.asgraph import ASGraph, EdgeAttributes
from repro.graph.generators import parallel_multigraph
from repro.graph.multigraph import MultiGraph, synthesize_edge_attributes
from repro.types import LinkKind, Relationship


def attrs_for(m, *, capacity=None, latency=None, kind=None):
    return EdgeAttributes(
        capacity_gbps=(
            np.full(m, 10.0) if capacity is None else np.asarray(capacity, float)
        ),
        latency_ms=(
            np.full(m, 5.0) if latency is None else np.asarray(latency, float)
        ),
        link_kind=(
            np.full(m, int(LinkKind.PRIVATE_PEERING), dtype=np.uint8)
            if kind is None
            else np.asarray(kind, dtype=np.uint8)
        ),
    )


def triangle_with_parallels():
    """0-1 (x3 parallel), 1-2 (x1), 0-2 (x2 parallel), six instances."""
    src = np.array([0, 1, 0, 1, 0, 2])
    dst = np.array([1, 2, 1, 0, 2, 0])
    attrs = attrs_for(
        6,
        capacity=[10.0, 40.0, 20.0, 30.0, 5.0, 15.0],
        latency=[9.0, 4.0, 3.0, 7.0, 2.0, 6.0],
        kind=[
            int(LinkKind.PRIVATE_PEERING),
            int(LinkKind.TRANSIT_CIRCUIT),
            int(LinkKind.IXP_PORT),
            int(LinkKind.IXP_LAG),
            int(LinkKind.PRIVATE_PEERING),
            int(LinkKind.IXP_PORT),
        ],
    )
    return MultiGraph.from_arrays(3, src, dst, attrs=attrs)


class TestConstruction:
    def test_from_arrays_basic(self):
        mg = triangle_with_parallels()
        assert mg.num_nodes == 3
        assert mg.num_edge_instances == 6

    def test_rejects_self_loops(self):
        with pytest.raises(GraphValidationError):
            MultiGraph.from_arrays(
                2, [0, 1], [0, 0], attrs=attrs_for(2)
            )

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphValidationError):
            MultiGraph.from_arrays(2, [0], [5], attrs=attrs_for(1))

    def test_rejects_misaligned_attrs(self):
        with pytest.raises(GraphValidationError):
            MultiGraph.from_arrays(3, [0, 1], [1, 2], attrs=attrs_for(3))

    def test_rejects_misaligned_relationships(self):
        with pytest.raises(GraphValidationError):
            MultiGraph.from_arrays(
                3, [0, 1], [1, 2], attrs=attrs_for(2), relationships=[1]
            )

    def test_from_asgraph_requires_attrs(self):
        g = ASGraph.from_edges(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphValidationError):
            MultiGraph.from_asgraph(g)

    def test_from_asgraph_lifts_attached_attrs(self):
        g = ASGraph.from_edges(3, [(0, 1), (1, 2)]).with_edge_attrs(
            attrs_for(2)
        )
        mg = MultiGraph.from_asgraph(g)
        assert mg.num_edge_instances == 2
        np.testing.assert_array_equal(mg.edge_src, g.edge_src)
        np.testing.assert_array_equal(
            mg.attrs.capacity_gbps, g.edge_attrs.capacity_gbps
        )


class TestSimplify:
    def test_parallel_free_round_trip_digest(self, tiny_internet):
        """A lift of a simple graph simplifies back byte-identically."""
        attrs = synthesize_edge_attributes(tiny_internet, seed=7)
        mg = MultiGraph.from_asgraph(tiny_internet, attrs)
        view = mg.simplify(annotate=False)
        assert view.graph.digest() == tiny_internet.digest()
        np.testing.assert_array_equal(
            view.edge_of_instance, np.arange(tiny_internet.num_edges)
        )
        assert (view.group_sizes == 1).all()

    def test_collapse_aggregation(self):
        mg = triangle_with_parallels()
        view = mg.simplify()
        g = view.graph
        assert g.num_edges == 3
        # First-occurrence order: 0-1, then 1-2, then 0-2.
        np.testing.assert_array_equal(view.representative, [0, 1, 4])
        np.testing.assert_array_equal(view.group_sizes, [3, 1, 2])
        np.testing.assert_array_equal(
            view.edge_of_instance, [0, 1, 0, 0, 2, 2]
        )
        # Capacity sums per bundle, latency is the bundle minimum.
        np.testing.assert_allclose(
            g.edge_attrs.capacity_gbps, [60.0, 40.0, 20.0]
        )
        np.testing.assert_allclose(g.edge_attrs.latency_ms, [3.0, 4.0, 2.0])
        # Kind and orientation come from the representative instance.
        assert g.edge_attrs.link_kind[0] == int(LinkKind.PRIVATE_PEERING)
        assert (int(g.edge_src[0]), int(g.edge_dst[0])) == (0, 1)

    def test_annotate_false_matches_plain_from_edges(self):
        mg = triangle_with_parallels()
        bare = mg.simplify(annotate=False).graph
        assert bare.edge_attrs is None
        direct = ASGraph.from_edges(
            3,
            [(0, 1), (1, 2), (0, 2)],
            kinds=mg.kinds,
            tiers=mg.tiers,
            categories=mg.categories,
        )
        assert bare.digest() == direct.digest()

    def test_reversed_orientation_is_same_bundle(self):
        """(1,0) collapses into the (0,1) bundle, not a new edge."""
        mg = MultiGraph.from_arrays(
            2, [0, 1], [1, 0], attrs=attrs_for(2, capacity=[1.0, 2.0])
        )
        view = mg.simplify()
        assert view.graph.num_edges == 1
        np.testing.assert_allclose(view.graph.edge_attrs.capacity_gbps, [3.0])


class TestBestInstance:
    def test_min_latency_selection(self):
        mg = triangle_with_parallels()
        inst, lat = mg.best_instance_per_edge()
        np.testing.assert_array_equal(inst, [2, 1, 4])
        np.testing.assert_allclose(lat, [3.0, 4.0, 2.0])

    def test_capacity_floor_disqualifies(self):
        mg = triangle_with_parallels()
        # Floor 25: bundle 0-1 keeps only instance 3 (cap 30); bundle
        # 1-2 keeps instance 1 (cap 40); bundle 0-2 has no survivor.
        inst, lat = mg.best_instance_per_edge(min_capacity_gbps=25.0)
        np.testing.assert_array_equal(inst, [3, 1, -1])
        assert lat[2] == np.inf and np.isfinite(lat[:2]).all()

    def test_tie_breaks_to_smallest_id(self):
        mg = MultiGraph.from_arrays(
            2, [0, 0, 0], [1, 1, 1],
            attrs=attrs_for(3, latency=[5.0, 5.0, 5.0]),
        )
        inst, _ = mg.best_instance_per_edge()
        assert inst[0] == 0

    def test_residual_capacity_floor(self):
        mg = triangle_with_parallels()
        # Floor 25 against a residual vector instead of the instances'
        # own capacity: instance 3 is drained, instance 4 has room.
        residual = mg.attrs.capacity_gbps.copy()
        residual[3] = 10.0
        residual[4] = 25.0
        inst, lat = mg.best_instance_per_edge(
            min_capacity_gbps=25.0, capacity_gbps=residual
        )
        np.testing.assert_array_equal(inst, [-1, 1, 4])
        assert lat[0] == np.inf
        np.testing.assert_allclose(lat[1:], [4.0, 2.0])
        with pytest.raises(GraphValidationError):
            mg.best_instance_per_edge(capacity_gbps=residual[:-1])


class TestDigest:
    def test_distinct_from_simplified_graph(self):
        mg = triangle_with_parallels()
        assert mg.digest() != mg.simplify().graph.digest()

    def test_sensitive_to_one_capacity(self):
        mg = triangle_with_parallels()
        cap = mg.attrs.capacity_gbps.copy()
        cap[3] += 1.0
        other = MultiGraph.from_arrays(
            3, mg.edge_src, mg.edge_dst,
            attrs=EdgeAttributes(cap, mg.attrs.latency_ms, mg.attrs.link_kind),
            relationships=mg.edge_rels,
        )
        assert mg.digest() != other.digest()

    def test_deterministic(self):
        assert (
            triangle_with_parallels().digest()
            == triangle_with_parallels().digest()
        )


class TestMultiCSR:
    def test_slots_carry_instance_ids(self):
        mg = triangle_with_parallels()
        adj = mg.multi_adj
        # Node 0 sees three instances towards 1 and two towards 2.
        neigh, slots = adj.neighbors(0), adj.incident_edge_ids(0)
        by_neighbor = {}
        for v, s in zip(neigh, slots):
            by_neighbor.setdefault(int(v), set()).add(int(s))
        assert by_neighbor[1] == {0, 2, 3}
        assert by_neighbor[2] == {4, 5}


class TestSynthesizeEdgeAttributes:
    def test_deterministic(self, tiny_internet):
        a = synthesize_edge_attributes(tiny_internet, seed=3)
        b = synthesize_edge_attributes(tiny_internet, seed=3)
        np.testing.assert_array_equal(a.capacity_gbps, b.capacity_gbps)
        np.testing.assert_array_equal(a.latency_ms, b.latency_ms)
        np.testing.assert_array_equal(a.link_kind, b.link_kind)

    def test_ranges_by_relationship(self, tiny_internet):
        attrs = synthesize_edge_attributes(tiny_internet, seed=0)
        rels = tiny_internet.edge_rels
        member = rels == int(Relationship.IXP_MEMBERSHIP)
        assert (attrs.latency_ms[member] <= 3.0).all()
        assert (attrs.link_kind[member] == int(LinkKind.IXP_PORT)).all()
        assert (attrs.capacity_gbps > 0).all()
        assert np.isfinite(attrs.latency_ms).all()


class TestParallelMultigraph:
    def test_base_edges_prefix_and_round_trip(self, tiny_internet):
        mg = parallel_multigraph(tiny_internet, seed=2)
        m = tiny_internet.num_edges
        assert mg.num_edge_instances > m
        np.testing.assert_array_equal(mg.edge_src[:m], tiny_internet.edge_src)
        np.testing.assert_array_equal(mg.edge_dst[:m], tiny_internet.edge_dst)
        # Extras only ever duplicate existing bundles, so the projection
        # recovers the base topology exactly.
        assert (
            mg.simplify(annotate=False).graph.digest()
            == tiny_internet.digest()
        )

    def test_seeded_determinism(self, tiny_internet):
        assert (
            parallel_multigraph(tiny_internet, seed=5).digest()
            == parallel_multigraph(tiny_internet, seed=5).digest()
        )
        assert (
            parallel_multigraph(tiny_internet, seed=5).digest()
            != parallel_multigraph(tiny_internet, seed=6).digest()
        )
