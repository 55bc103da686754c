"""Guaranteed-bandwidth admission control over the broker multigraph.

The broker set is only useful if the coalition can actually *provision*
guaranteed E2E services over the subtopology it controls.  This
experiment runs that workload end to end: a seeded stream of
guaranteed-bandwidth flow requests arrives, each asking for one of a few
demand classes over a broker-dominated min-latency path, and the
coalition admits a flow iff every parallel edge instance along its path
still has enough *residual* capacity — first-come-first-served, no
preemption.

The hot path is the **vectorized batch admission kernel**
(:func:`admit_batch`): it computes the exact sequential FCFS outcome of
millions of flows with NumPy array passes only — no per-flow Python
loop.  The trick is a fixed-point iteration over the admitted set:

* guess optimistically that every flow is admitted;
* for every (flow, edge) incidence, compute the arrival-ordered
  *exclusive* prefix load of currently-admitted earlier flows on that
  edge (one ``lexsort`` + segmented ``cumsum``);
* a flow survives iff ``prior_load + demand <= capacity`` on all its
  edges; iterate until the admitted set stops changing.

Any fixed point of that map *is* the sequential result (induction on
arrival order: flow ``i``'s feasibility only reads flows ``j < i``,
which are already correct), and after ``k`` iterations the first ``k``
flows are final — so the loop terminates, in practice after a handful of
rounds.  Demand classes are powers of two (:data:`DEMAND_CLASSES`), so
every partial sum of demands is exact in float64 regardless of
summation order and the kernel is **bit-identical** to the per-flow
reference oracle (:func:`admit_stream_reference`), which the
differential tests pin.

On top of the kernel, :func:`run_admission_study` sweeps offered load,
reports accept ratios and saturation, re-scores the broker set under
capacity exhaustion, and mirrors the final load level into the
domination engine's ``reserve`` state (then ``verify()``s it).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from repro.core.engine import DominationEngine
from repro.core.greedy import greedy_max_coverage
from repro.datasets.loader import MULTIGRAPH_SEED_SALT
from repro.datasets.synthetic_internet import expand_internet_multigraph
from repro.exceptions import AlgorithmError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, register
from repro.graph.multigraph import MultiGraph
from repro.routing.qos import multigraph_qos_path
from repro.utils.rng import SeedLike, ensure_rng

#: Guaranteed-bandwidth demand classes in Gbps.  Exact powers of two:
#: sums of any subset are exact in float64 in any order, which is what
#: makes the vectorized kernel bit-identical to the sequential oracle.
DEMAND_CLASSES = np.array([0.25, 0.5, 1.0, 2.0], dtype=np.float64)

#: Offered-load sweep, as multiples of the per-level flow count.
DEFAULT_LOAD_LEVELS = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class PathPool:
    """Precomputed broker-dominated QoS paths, CSR over edge instances.

    Path ``p`` traverses instances ``instances[indptr[p]:indptr[p+1]]``
    of the owning multigraph.  ``pairs[p]`` is its (source, target) and
    ``latencies[p]`` its end-to-end latency at pool-build time.
    """

    indptr: np.ndarray
    instances: np.ndarray
    pairs: np.ndarray
    latencies: np.ndarray

    @property
    def num_paths(self) -> int:
        return len(self.indptr) - 1


@dataclass(frozen=True)
class AdmissionOutcome:
    """Result of admitting one flow stream against a capacity vector."""

    admitted: np.ndarray
    residual: np.ndarray
    iterations: int

    @property
    def num_admitted(self) -> int:
        return int(np.count_nonzero(self.admitted))

    def digest(self) -> str:
        """SHA-256 of the admitted mask and residual state (bit-exact)."""
        h = hashlib.sha256()
        h.update(np.packbits(self.admitted).tobytes())
        h.update(np.ascontiguousarray(self.residual).tobytes())
        return h.hexdigest()


def build_path_pool(
    multigraph: MultiGraph,
    engine: DominationEngine,
    *,
    num_pairs: int,
    seed: SeedLike,
    demand_floor_gbps: float = float(DEMAND_CLASSES[-1]),
    max_attempts_factor: int = 20,
) -> PathPool:
    """Sample broker-dominated min-latency paths for random endpoint pairs.

    Each path is computed at the *largest* demand class as its bandwidth
    floor, so every pooled path can statically carry any demand class —
    contention at admission time is purely about residual capacity.
    Pairs with no compliant dominated path are skipped and resampled.
    """
    if num_pairs < 1:
        raise AlgorithmError(f"num_pairs must be >= 1, got {num_pairs}")
    rng = ensure_rng(seed)
    n = multigraph.num_nodes
    indptr = [0]
    instances: list[np.ndarray] = []
    pairs: list[tuple[int, int]] = []
    latencies: list[float] = []
    attempts = 0
    max_attempts = num_pairs * max_attempts_factor
    while len(pairs) < num_pairs and attempts < max_attempts:
        attempts += 1
        s, t = int(rng.integers(n)), int(rng.integers(n))
        if s == t:
            continue
        route = multigraph_qos_path(
            multigraph, s, t, demand_gbps=demand_floor_gbps, engine=engine
        )
        if route is None:
            continue
        pairs.append((s, t))
        instances.append(np.asarray(route.instance_ids, dtype=np.int64))
        indptr.append(indptr[-1] + len(route.instance_ids))
        latencies.append(route.latency_ms)
    if not pairs:
        raise AlgorithmError(
            "no serveable pairs found; broker set too small or demand "
            "floor infeasible"
        )
    return PathPool(
        indptr=np.asarray(indptr, dtype=np.int64),
        instances=(
            np.concatenate(instances)
            if instances
            else np.zeros(0, dtype=np.int64)
        ),
        pairs=np.asarray(pairs, dtype=np.int64),
        latencies=np.asarray(latencies, dtype=np.float64),
    )


def draw_flows(
    pool: PathPool, num_flows: int, *, seed: SeedLike
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded flow stream: (path index, demand class) per flow, in
    arrival order."""
    if num_flows < 1:
        raise AlgorithmError(f"num_flows must be >= 1, got {num_flows}")
    rng = ensure_rng(seed)
    flow_paths = rng.integers(pool.num_paths, size=num_flows).astype(np.int64)
    flow_demands = DEMAND_CLASSES[
        rng.integers(len(DEMAND_CLASSES), size=num_flows)
    ]
    return flow_paths, flow_demands


def _validate_stream(
    capacity: np.ndarray,
    pool: PathPool,
    flow_paths: np.ndarray,
    flow_demands: np.ndarray,
) -> None:
    if flow_paths.shape != flow_demands.shape or flow_paths.ndim != 1:
        raise AlgorithmError("flow_paths/flow_demands must be 1-D and aligned")
    if len(flow_paths) and (
        flow_paths.min() < 0 or flow_paths.max() >= pool.num_paths
    ):
        raise AlgorithmError("flow path index out of range")
    if len(flow_demands) and (flow_demands <= 0).any():
        raise AlgorithmError("flow demands must be positive")
    if len(pool.instances) and pool.instances.max() >= len(capacity):
        raise AlgorithmError("path pool references instances beyond capacity array")


def admit_batch(
    capacity: np.ndarray,
    pool: PathPool,
    flow_paths: np.ndarray,
    flow_demands: np.ndarray,
) -> AdmissionOutcome:
    """Exact sequential FCFS admission, computed with vectorized passes.

    Returns the same admitted set a per-flow loop over arrival order
    produces (see the module docstring for the fixed-point argument),
    bit-identically when demands are exact binary fractions.  Work per
    iteration is ``O(total path-edge incidences)`` in NumPy; the number
    of iterations is bounded by the flow count but is tiny in practice
    (prefix-correctness grows by at least one flow per round).
    """
    capacity = np.ascontiguousarray(capacity, dtype=np.float64)
    flow_paths = np.asarray(flow_paths, dtype=np.int64)
    flow_demands = np.asarray(flow_demands, dtype=np.float64)
    _validate_stream(capacity, pool, flow_paths, flow_demands)
    num_flows = len(flow_paths)
    if num_flows == 0:
        return AdmissionOutcome(
            admitted=np.zeros(0, dtype=bool),
            residual=capacity.copy(),
            iterations=0,
        )

    lens = pool.indptr[flow_paths + 1] - pool.indptr[flow_paths]
    total = int(lens.sum())
    flow_of_entry = np.repeat(np.arange(num_flows, dtype=np.int64), lens)
    entry_starts = np.zeros(num_flows, dtype=np.int64)
    np.cumsum(lens[:-1], out=entry_starts[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(entry_starts, lens)
    edge_of_entry = pool.instances[pool.indptr[flow_paths][flow_of_entry] + within]

    # Sort incidences by (edge, arrival order); within each edge segment
    # the entries are then exactly in the order the sequential oracle
    # accumulates them.
    order = np.lexsort((flow_of_entry, edge_of_entry))
    e_sorted = edge_of_entry[order]
    f_sorted = flow_of_entry[order]
    d_sorted = flow_demands[f_sorted]
    cap_sorted = capacity[e_sorted]
    new_segment = np.empty(total, dtype=bool)
    new_segment[0] = True
    np.not_equal(e_sorted[1:], e_sorted[:-1], out=new_segment[1:])
    seg_id = np.cumsum(new_segment) - 1
    seg_first = np.flatnonzero(new_segment)

    admitted = np.ones(num_flows, dtype=bool)
    iterations = 0
    for _ in range(num_flows + 1):
        iterations += 1
        contrib = np.where(admitted[f_sorted], d_sorted, 0.0)
        cums = np.cumsum(contrib)
        # Exclusive prefix within each edge segment: global exclusive
        # prefix minus the segment's base.  All quantities are sums of
        # binary-fraction demands, so every subtraction is exact.
        excl = cums - contrib
        prior = excl - excl[seg_first][seg_id]
        ok_entry_sorted = prior + d_sorted <= cap_sorted
        ok_entry = np.empty(total, dtype=bool)
        ok_entry[order] = ok_entry_sorted
        flow_ok = np.logical_and.reduceat(ok_entry, entry_starts)
        if np.array_equal(flow_ok, admitted):
            break
        admitted = flow_ok
    used = np.zeros(len(capacity), dtype=np.float64)
    np.add.at(used, e_sorted, np.where(admitted[f_sorted], d_sorted, 0.0))
    return AdmissionOutcome(
        admitted=admitted, residual=capacity - used, iterations=iterations
    )


def admit_stream_reference(
    capacity: np.ndarray,
    pool: PathPool,
    flow_paths: np.ndarray,
    flow_demands: np.ndarray,
) -> AdmissionOutcome:
    """Per-flow Python-loop oracle with the exact sequential semantics.

    The differential tests run this against :func:`admit_batch` on
    sampled streams; the two must agree bit-for-bit.
    """
    capacity = np.ascontiguousarray(capacity, dtype=np.float64)
    flow_paths = np.asarray(flow_paths, dtype=np.int64)
    flow_demands = np.asarray(flow_demands, dtype=np.float64)
    _validate_stream(capacity, pool, flow_paths, flow_demands)
    used = np.zeros(len(capacity), dtype=np.float64)
    admitted = np.zeros(len(flow_paths), dtype=bool)
    for i in range(len(flow_paths)):
        p = int(flow_paths[i])
        edges = pool.instances[pool.indptr[p] : pool.indptr[p + 1]]
        demand = float(flow_demands[i])
        if np.all(used[edges] + demand <= capacity[edges]):
            used[edges] += demand
            admitted[i] = True
    return AdmissionOutcome(
        admitted=admitted, residual=capacity - used, iterations=len(flow_paths)
    )


def rescore_brokers_by_residual(
    multigraph: MultiGraph,
    brokers: list[int],
    residual: np.ndarray,
) -> list[tuple[int, float]]:
    """Re-rank the broker set by capacity headroom after admission.

    A broker's score is the residual fraction of the aggregate capacity
    on its incident edge instances — brokers whose fabrics the admitted
    load exhausted sink to the bottom, which is the re-scoring a
    capacity-aware selection pass would feed back into Algorithm 1.
    Returns ``(broker, residual_fraction)`` sorted by descending
    headroom (ties towards the smaller id, deterministic).
    """
    if len(residual) != multigraph.num_edge_instances:
        raise AlgorithmError("residual array does not match the multigraph")
    n = multigraph.num_nodes
    node_cap = np.zeros(n, dtype=np.float64)
    node_res = np.zeros(n, dtype=np.float64)
    for ends in (multigraph.edge_src, multigraph.edge_dst):
        np.add.at(node_cap, ends, multigraph.attrs.capacity_gbps)
        np.add.at(node_res, ends, residual)
    scored = []
    for b in brokers:
        cap = node_cap[b]
        frac = float(node_res[b] / cap) if cap > 0 else 1.0
        scored.append((int(b), frac))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


@dataclass(frozen=True)
class AdmissionStudy:
    """Everything one admission sweep produced."""

    result: ExperimentResult
    state_digest: str
    multigraph_digest: str
    total_flows: int
    total_admitted: int
    kernel_seconds: float

    @property
    def flows_per_second(self) -> float:
        if self.kernel_seconds <= 0:
            return float("inf")
        return self.total_flows / self.kernel_seconds


def run_admission_study(
    config: ExperimentConfig,
    *,
    flows_per_level: int = 20_000,
    load_levels: tuple[float, ...] = DEFAULT_LOAD_LEVELS,
    num_pairs: int | None = None,
    broker_fraction: float = 0.019,
) -> AdmissionStudy:
    """Offered-load sweep of FCFS admission over broker-dominated paths.

    Per level ``L``: a fresh residual state, ``round(L *
    flows_per_level)`` seeded flows, one vectorized batch admission.
    The final level's admitted load is additionally mirrored into the
    domination engine's per-bundle ``reserve`` state and ``verify()``d.
    All table values are deterministic for a given (scale, seed); the
    rendered result embeds the bit-exact admission state digest, so the
    ledger's exact-digest regression gate doubles as a repeat-run
    bit-identity check.
    """
    if flows_per_level < 1:
        raise AlgorithmError(
            f"flows_per_level must be >= 1, got {flows_per_level}"
        )
    graph = config.graph()
    multigraph = expand_internet_multigraph(
        graph, seed=config.seed + MULTIGRAPH_SEED_SALT
    )
    view = multigraph.simplify()
    budget = max(1, round(broker_fraction * view.graph.num_nodes))
    brokers = greedy_max_coverage(view.graph, budget)
    engine = DominationEngine(view.graph, dict.fromkeys(brokers))
    if num_pairs is None:
        num_pairs = int(np.clip(view.graph.num_nodes // 8, 32, 512))
    pool = build_path_pool(
        multigraph, engine, num_pairs=num_pairs, seed=config.seed + 1
    )

    headers = [
        "load",
        "offered flows",
        "offered Gbps",
        "admitted",
        "accept ratio",
        "saturated links",
        "fixpoint iters",
    ]
    rows: list[tuple] = []
    paper_values: dict[str, float] = {}
    digest = hashlib.sha256()
    total_flows = 0
    total_admitted = 0
    kernel_seconds = 0.0
    last_outcome: AdmissionOutcome | None = None
    last_flows: tuple[np.ndarray, np.ndarray] | None = None
    capacity = multigraph.attrs.capacity_gbps
    for level_idx, level in enumerate(load_levels):
        num_flows = max(1, round(level * flows_per_level))
        flow_paths, flow_demands = draw_flows(
            pool, num_flows, seed=config.seed + 100 + level_idx
        )
        t0 = time.perf_counter()
        outcome = admit_batch(capacity, pool, flow_paths, flow_demands)
        kernel_seconds += time.perf_counter() - t0
        digest.update(outcome.digest().encode())
        total_flows += num_flows
        total_admitted += outcome.num_admitted
        accept = outcome.num_admitted / num_flows
        touched = np.unique(pool.instances)
        saturated = int(
            np.count_nonzero(
                outcome.residual[touched] < float(DEMAND_CLASSES[0])
            )
        )
        rows.append(
            (
                f"{level:g}x",
                num_flows,
                int(round(float(flow_demands.sum()))),
                outcome.num_admitted,
                round(accept, 4),
                saturated,
                outcome.iterations,
            )
        )
        paper_values[f"accept@{level:g}x"] = round(accept, 6)
        last_outcome = outcome
        last_flows = (flow_paths, flow_demands)

    assert last_outcome is not None and last_flows is not None
    # Mirror the final level's admitted load into the engine's bundle
    # reservations: per simple edge, the sum of admitted demand over its
    # parallel instances — the engine's invariant checker then audits
    # 0 <= reserved <= aggregate bundle capacity.
    admitted_used = multigraph.attrs.capacity_gbps - last_outcome.residual
    bundle_used = np.zeros(view.graph.num_edges, dtype=np.float64)
    np.add.at(bundle_used, view.edge_of_instance, admitted_used)
    loaded = np.flatnonzero(bundle_used > 0)
    if len(loaded):
        engine.checkpoint()
        engine.reserve(loaded, bundle_used[loaded])
    engine.verify()

    rescored = rescore_brokers_by_residual(
        multigraph, brokers, last_outcome.residual
    )
    exhausted = sum(1 for _, frac in rescored if frac < 0.5)
    top = ", ".join(f"AS{b}:{frac:.2f}" for b, frac in rescored[:3])
    state_digest = digest.hexdigest()
    notes = (
        f"{pool.num_paths} pooled dominated paths, {len(brokers)} brokers; "
        f"final-level rescoring: {exhausted} brokers below 50% headroom, "
        f"top headroom [{top}]; state digest {state_digest[:16]}"
    )
    result = ExperimentResult(
        experiment_id="admission",
        title=(
            "Guaranteed-bandwidth admission over the broker multigraph "
            f"({config.scale}, seed {config.seed})"
        ),
        headers=headers,
        rows=rows,
        notes=notes,
        paper_values=paper_values,
    )
    return AdmissionStudy(
        result=result,
        state_digest=state_digest,
        multigraph_digest=multigraph.digest(),
        total_flows=total_flows,
        total_admitted=total_admitted,
        kernel_seconds=kernel_seconds,
    )


@register("admission")
def run_admission(config: ExperimentConfig) -> ExperimentResult:
    """Registry entry point: the admission sweep at smoke-friendly size."""
    return run_admission_study(config).result
