"""Admission-control workload: vectorized kernel vs per-flow oracle."""

import numpy as np
import pytest

from repro.core.engine import DominationEngine
from repro.core.greedy import greedy_max_coverage
from repro.exceptions import AlgorithmError
from repro.experiments.admission import (
    DEMAND_CLASSES,
    PathPool,
    admit_batch,
    admit_stream_reference,
    build_path_pool,
    draw_flows,
    rescore_brokers_by_residual,
    run_admission_study,
)
from repro.experiments.config import ExperimentConfig
from repro.graph.generators import parallel_multigraph
from tests import fixtures


def tiny_multigraph():
    base = fixtures.internet("tiny", 1)
    return parallel_multigraph(base, seed=11)


def tiny_pool(num_pairs=40):
    mg = tiny_multigraph()
    brokers = greedy_max_coverage(mg.simplify().graph, 12)
    engine = DominationEngine.from_multigraph(mg, dict.fromkeys(brokers))
    return mg, build_path_pool(mg, engine, num_pairs=num_pairs, seed=2)


def toy_pool():
    """Two paths sharing edge 0: [0, 1] and [0, 2]."""
    return PathPool(
        indptr=np.array([0, 2, 4]),
        instances=np.array([0, 1, 0, 2]),
        pairs=np.array([[0, 2], [0, 3]]),
        latencies=np.array([2.0, 2.0]),
    )


class TestAdmitBatch:
    def test_matches_hand_computed_fcfs(self):
        pool = toy_pool()
        capacity = np.array([1.5, 10.0, 10.0])
        # Arrival order: path 0 @1.0 (fits), path 1 @1.0 (edge 0 full),
        # path 1 @0.5 (exactly fills edge 0).
        paths = np.array([0, 1, 1])
        demands = np.array([1.0, 1.0, 0.5])
        out = admit_batch(capacity, pool, paths, demands)
        np.testing.assert_array_equal(out.admitted, [True, False, True])
        np.testing.assert_allclose(out.residual, [0.0, 9.0, 9.5])

    def test_empty_stream(self):
        pool = toy_pool()
        capacity = np.ones(3)
        out = admit_batch(capacity, pool, np.zeros(0, int), np.zeros(0))
        assert out.num_admitted == 0 and out.iterations == 0
        np.testing.assert_array_equal(out.residual, capacity)

    def test_validation(self):
        pool = toy_pool()
        capacity = np.ones(3)
        with pytest.raises(AlgorithmError):
            admit_batch(capacity, pool, np.array([5]), np.array([1.0]))
        with pytest.raises(AlgorithmError):
            admit_batch(capacity, pool, np.array([0]), np.array([-1.0]))
        with pytest.raises(AlgorithmError):
            admit_batch(capacity, pool, np.array([0, 1]), np.array([1.0]))

    def test_differential_vs_oracle_bit_exact(self):
        """The fixed-point kernel IS the sequential loop, bit-for-bit."""
        mg, pool = tiny_pool()
        capacity = mg.attrs.capacity_gbps
        for seed in (0, 1, 2):
            paths, demands = draw_flows(pool, 10_000, seed=seed)
            fast = admit_batch(capacity, pool, paths, demands)
            slow = admit_stream_reference(capacity, pool, paths, demands)
            np.testing.assert_array_equal(fast.admitted, slow.admitted)
            np.testing.assert_array_equal(fast.residual, slow.residual)
            assert fast.digest() == slow.digest()

    def test_contended_differential(self):
        """Scarce capacity maximizes rejection churn; oracle still matches."""
        mg, pool = tiny_pool()
        capacity = np.full(
            mg.num_edge_instances, float(DEMAND_CLASSES[-1]) * 2
        )
        paths, demands = draw_flows(pool, 5_000, seed=7)
        fast = admit_batch(capacity, pool, paths, demands)
        slow = admit_stream_reference(capacity, pool, paths, demands)
        np.testing.assert_array_equal(fast.admitted, slow.admitted)
        assert fast.digest() == slow.digest()

    def test_repeat_run_bit_identity(self):
        mg, pool = tiny_pool()
        paths, demands = draw_flows(pool, 20_000, seed=3)
        a = admit_batch(mg.attrs.capacity_gbps, pool, paths, demands)
        b = admit_batch(mg.attrs.capacity_gbps, pool, paths, demands)
        assert a.digest() == b.digest()
        assert a.iterations == b.iterations


class TestPoolAndFlows:
    def test_pool_paths_are_dominated_and_feasible(self):
        mg, pool = tiny_pool()
        assert pool.num_paths > 0
        # Every pooled instance statically carries the largest class.
        assert (
            mg.attrs.capacity_gbps[pool.instances] >= float(DEMAND_CLASSES[-1])
        ).all()
        assert (np.diff(pool.indptr) >= 1).all()

    def test_pool_deterministic(self):
        mg = tiny_multigraph()
        brokers = greedy_max_coverage(mg.simplify().graph, 12)
        engine = DominationEngine.from_multigraph(mg, dict.fromkeys(brokers))
        a = build_path_pool(mg, engine, num_pairs=20, seed=5)
        b = build_path_pool(mg, engine, num_pairs=20, seed=5)
        np.testing.assert_array_equal(a.instances, b.instances)
        np.testing.assert_array_equal(a.pairs, b.pairs)

    def test_flows_deterministic_and_classed(self):
        _, pool = tiny_pool()
        p1, d1 = draw_flows(pool, 1000, seed=9)
        p2, d2 = draw_flows(pool, 1000, seed=9)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(d1, d2)
        assert set(np.unique(d1)) <= set(DEMAND_CLASSES.tolist())

    def test_rescore_deterministic_order(self):
        mg, pool = tiny_pool()
        brokers = [5, 3, 8]
        residual = mg.attrs.capacity_gbps * 0.5
        scored = rescore_brokers_by_residual(mg, brokers, residual)
        assert sorted(b for b, _ in scored) == sorted(brokers)
        # Uniform residual fraction: ties broken towards smaller id.
        assert [b for b, _ in scored] == sorted(brokers)
        with pytest.raises(AlgorithmError):
            rescore_brokers_by_residual(mg, brokers, residual[:-1])


class TestStudy:
    def test_study_smoke_and_registered(self):
        config = ExperimentConfig(scale="tiny", seed=1)
        study = run_admission_study(config, flows_per_level=2_000)
        assert study.total_flows == sum(
            max(1, round(level * 2_000)) for level in (0.25, 0.5, 1.0, 2.0, 4.0)
        )
        assert 0 < study.total_admitted <= study.total_flows
        assert len(study.state_digest) == 64
        rendered = study.result.render()
        assert study.state_digest[:16] in rendered
        # Registered under the experiment runner's registry.
        from repro.experiments.runner import list_experiments

        assert "admission" in list_experiments()

    def test_study_repeat_run_identical(self):
        config = ExperimentConfig(scale="tiny", seed=1)
        a = run_admission_study(config, flows_per_level=1_000)
        b = run_admission_study(config, flows_per_level=1_000)
        assert a.state_digest == b.state_digest
        assert a.result.render() == b.result.render()
        assert a.multigraph_digest == b.multigraph_digest

    @pytest.mark.parametrize("flows", [0, -5])
    def test_nonpositive_flows_per_level_rejected(self, flows):
        config = ExperimentConfig(scale="tiny", seed=1)
        with pytest.raises(AlgorithmError, match="flows_per_level"):
            run_admission_study(config, flows_per_level=flows)
