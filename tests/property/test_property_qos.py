"""Differential suite pinning the prepared QoS searches to the heap loops.

:class:`~repro.routing.qos.QoSGraph` (one SciPy CSR, SciPy Dijkstra),
:func:`~repro.routing.qos.qos_coverage` (one multi-source search) and
:class:`~repro.routing.qos.MultiQoSRouter` are checked against the Python
adjacency-list + heap references in ``tests/oracles/qos.py``:

* with latencies drawn as distinct powers of two, every edge set has its
  own exact float sum, so the shortest path is unique and the prepared
  answer must equal the reference exactly — path, latency, bottleneck
  and ``edge_ids``;
* with repeated small-integer latencies, where equal-latency ties
  happen, reachability and latency must match exactly and the returned
  path must be a valid kept path whose hop latencies fold to
  ``latency_ms``;
* coverage fractions and multigraph routes (with a random residual) must
  equal the references exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import DominationEngine
from repro.graph.asgraph import ASGraph, EdgeAttributes
from repro.graph.multigraph import MultiGraph
from repro.routing.qos import (
    LinkMetrics,
    MultiQoSRouter,
    QoSGraph,
    qos_coverage,
)
from repro.types import LinkKind
from tests.oracles import qos as ref


@st.composite
def edge_lists(draw, min_nodes=2, max_nodes=12, max_edges=24):
    """``(n, edges)``: a random simple graph, possibly disconnected."""
    n = draw(st.integers(min_nodes, max_nodes))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(
            st.sampled_from(possible),
            min_size=1,
            max_size=min(max_edges, len(possible)),
            unique=True,
        )
    )
    return n, edges


@st.composite
def restrictions(draw, graph: ASGraph):
    """``(brokers, engine)``: no restriction, a broker list, or an engine
    over a random broker set with cut links and failed nodes."""
    n = graph.num_nodes
    kind = draw(st.sampled_from(["free", "brokers", "engine"]))
    if kind == "free":
        return None, None
    brokers = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    if kind == "brokers":
        return brokers, None
    engine = DominationEngine(graph, dict.fromkeys(brokers))
    edges = list(zip(graph.edge_src.tolist(), graph.edge_dst.tolist()))
    for u, v in draw(st.lists(st.sampled_from(edges), max_size=3, unique=True)):
        engine.cut_link(u, v)
    for v in draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True)):
        engine.fail_node(v)
    return None, engine


def _kept_mask(graph, metrics, floor, brokers, engine):
    """The reference's filter, read back off its own adjacency lists."""
    adj = ref.build_weighted_adjacency(
        graph, metrics.latency_ms, metrics.bandwidth_gbps,
        metrics.bandwidth_gbps >= floor, brokers, engine=engine,
    )
    kept = np.zeros(graph.num_edges, dtype=bool)
    for row in adj:
        for _v, _lat, _bw, eid in row:
            kept[eid] = True
    return kept


@settings(max_examples=60, deadline=None)
@given(data=st.data(), graph_spec=edge_lists())
def test_unique_shortest_path_equals_reference(data, graph_spec):
    n, edges = graph_spec
    graph = ASGraph.from_edges(n, edges)
    m = graph.num_edges
    exponents = data.draw(st.permutations(range(-20, 30)))[:m]
    metrics = LinkMetrics(
        latency_ms=np.ldexp(1.0, np.asarray(exponents)),
        bandwidth_gbps=np.asarray(
            data.draw(st.lists(st.sampled_from([1.0, 5.0, 10.0, 40.0]),
                               min_size=m, max_size=m))
        ),
    )
    floor = data.draw(st.sampled_from([0.0, 5.0, 10.0]))
    brokers, engine = data.draw(restrictions(graph))
    prepared = QoSGraph(
        graph, metrics.latency_ms, metrics.bandwidth_gbps,
        metrics.bandwidth_gbps >= floor, brokers=brokers, engine=engine,
    )
    for s in range(n):
        for t in range(n):
            expected = ref.qos_shortest_path(
                graph, metrics, s, t, brokers=brokers,
                min_bandwidth_gbps=floor, engine=engine,
            )
            assert prepared.path(s, t) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data(), graph_spec=edge_lists())
def test_tied_latencies_give_reference_latency_on_a_valid_path(
    data, graph_spec
):
    n, edges = graph_spec
    graph = ASGraph.from_edges(n, edges)
    m = graph.num_edges
    metrics = LinkMetrics(
        latency_ms=np.asarray(
            data.draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)),
            dtype=np.float64,
        ),
        bandwidth_gbps=np.asarray(
            data.draw(st.lists(st.sampled_from([1.0, 5.0, 10.0]),
                               min_size=m, max_size=m))
        ),
    )
    floor = data.draw(st.sampled_from([0.0, 5.0]))
    brokers, engine = data.draw(restrictions(graph))
    kept = _kept_mask(graph, metrics, floor, brokers, engine)
    prepared = QoSGraph(
        graph, metrics.latency_ms, metrics.bandwidth_gbps,
        metrics.bandwidth_gbps >= floor, brokers=brokers, engine=engine,
    )
    for s in range(n):
        for t in range(n):
            expected = ref.qos_shortest_path(
                graph, metrics, s, t, brokers=brokers,
                min_bandwidth_gbps=floor, engine=engine,
            )
            got = prepared.path(s, t)
            assert (got is None) == (expected is None)
            if got is None:
                continue
            assert got.latency_ms == expected.latency_ms
            assert got.path[0] == s and got.path[-1] == t
            assert len(got.edge_ids) == got.hops
            folded = 0.0
            for (u, v), e in zip(zip(got.path, got.path[1:]), got.edge_ids):
                assert kept[e]
                assert {u, v} == {int(graph.edge_src[e]), int(graph.edge_dst[e])}
                folded += metrics.latency_ms[e]
            assert folded == got.latency_ms
            if got.edge_ids:
                assert got.bottleneck_gbps == (
                    metrics.bandwidth_gbps[list(got.edge_ids)].min()
                )
            else:
                assert got == expected


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    graph_spec=edge_lists(max_nodes=20, max_edges=40),
    budget=st.sampled_from([0.5, 1.0, 2.0, 7.5, 20.0, float("inf")]),
    floor=st.sampled_from([0.0, 1.0, 5.0]),
    num_pairs=st.integers(1, 120),
    seed=st.integers(0, 2**16),
)
def test_coverage_equals_reference(
    data, graph_spec, budget, floor, num_pairs, seed
):
    n, edges = graph_spec
    graph = ASGraph.from_edges(n, edges)
    m = graph.num_edges
    rng = np.random.default_rng(seed)
    metrics = LinkMetrics(
        latency_ms=np.where(
            rng.random(m) < 0.5, rng.integers(1, 4, size=m), 5 * rng.random(m) + 0.1
        ),
        bandwidth_gbps=1.0 + 9.0 * rng.random(m),
    )
    brokers, engine = data.draw(restrictions(graph))
    kwargs = dict(
        max_latency_ms=budget, min_bandwidth_gbps=floor,
        num_pairs=num_pairs, seed=seed, engine=engine,
    )
    assert qos_coverage(graph, metrics, brokers, **kwargs) == (
        ref.qos_coverage(graph, metrics, brokers, **kwargs)
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), graph_spec=edge_lists(max_nodes=10, max_edges=20))
def test_multigraph_router_equals_reference(data, graph_spec):
    n, edges = graph_spec
    base = np.asarray(edges, dtype=np.int64)
    extra = data.draw(
        st.lists(st.integers(0, len(edges) - 1), max_size=len(edges))
    )
    inst = np.concatenate([base, base[np.asarray(extra, dtype=np.int64)]])
    flip = np.asarray(
        data.draw(st.lists(st.booleans(), min_size=len(inst),
                           max_size=len(inst)))
    )
    inst[flip] = inst[flip][:, ::-1]
    total = len(inst)
    exponents = data.draw(st.permutations(range(-20, 30)))[:total]
    capacity = np.asarray(
        data.draw(st.lists(st.sampled_from([1.0, 2.0, 4.0, 8.0]),
                           min_size=total, max_size=total))
    )
    mg = MultiGraph.from_arrays(
        n, inst[:, 0], inst[:, 1],
        attrs=EdgeAttributes(
            capacity_gbps=capacity,
            latency_ms=np.ldexp(1.0, np.asarray(exponents)),
            link_kind=np.full(total, int(LinkKind.IXP_PORT), dtype=np.uint8),
        ),
    )
    residual = None
    if data.draw(st.booleans()):
        residual = capacity * np.asarray(
            data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                               min_size=total, max_size=total))
        )
    demand = data.draw(st.sampled_from([0.0, 1.0, 2.0]))
    view_graph = mg.simplify().graph
    brokers, engine = data.draw(restrictions(view_graph))
    router = MultiQoSRouter(
        mg, demand_gbps=demand, brokers=brokers, engine=engine,
        residual_gbps=residual,
    )
    for s in range(n):
        for t in range(n):
            assert router.path(s, t) == ref.multigraph_qos_path(
                mg, s, t, demand_gbps=demand, brokers=brokers,
                engine=engine, residual_gbps=residual,
            )
