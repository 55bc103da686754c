"""``admission``: guaranteed-bandwidth admission at ``tiny``.

Set-up builds the inter-IXP multigraph, greedy brokers at 1.9%, the
domination engine and a pool of broker-dominated QoS paths.  The
measured phase admits ladders of flow batches, each batch against fresh
capacity, then mirrors the ladder's last batch into
``DominationEngine.reserve``, checks it with ``verify()`` and releases
it again; whole ladders run until ``--seconds`` have passed.  Every
ladder draws its own batches, so a run averages the kernel's work over
many draws: the number of fixed-point iterations, and with it the time
of one call, changes from draw to draw.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from bench import inputs
from bench.layers import Outcome, blank_layers
from bench.oracles import fcfs_prefix, residual_after, unexplained_rejections
from bench.stats import median
from bench.tracing import NULL_RECORDER, Recorder
from repro.core.engine import DominationEngine
from repro.core.greedy import greedy_max_coverage
from repro.datasets.loader import MULTIGRAPH_SEED_SALT, load_internet
from repro.datasets.synthetic_internet import expand_internet_multigraph
from repro.experiments.admission import (
    DEMAND_CLASSES,
    admit_batch,
    build_path_pool,
)

SCALE = "tiny"
TOPOLOGY_SEED = 1
BROKER_SHARE = 0.019
#: Pooled paths: one per eight vertices at ``tiny``, as the admission
#: study sizes its pool.
POOL_PAIRS = 75
POOL_SEED = TOPOLOGY_SEED + 1
SETUP_REPEATS = 5
TRACED_LADDERS = 5
#: Flow batch sizes of one ladder: under-load, knee, then overload.
ADMISSION_RUNGS = (512, 2048, 16384, 131072, 524288)
#: Flows at the head of every batch re-decided by the per-flow oracle.
ORACLE_PREFIX = 1024


@dataclass
class Stack:
    multigraph: object
    view: object
    brokers: list
    engine: DominationEngine
    pool: object

    @property
    def capacity(self) -> np.ndarray:
        return self.multigraph.attrs.capacity_gbps


def build_stack(rec=NULL_RECORDER) -> Stack:
    graph = rec.call("datasets.load_internet", load_internet, SCALE,
                     seed=TOPOLOGY_SEED)
    multigraph = rec.call("datasets.expand_internet_multigraph",
                          expand_internet_multigraph, graph,
                          seed=TOPOLOGY_SEED + MULTIGRAPH_SEED_SALT)
    view = rec.call("datasets.simplify", multigraph.simplify)
    budget = max(1, round(BROKER_SHARE * view.graph.num_nodes))
    brokers = rec.call("core.select.greedy_max_coverage", greedy_max_coverage,
                       view.graph, budget)
    engine = rec.call("core.engine.build", DominationEngine, view.graph,
                      dict.fromkeys(brokers))
    pool = rec.call("admission.pool.build_path_pool", build_path_pool,
                    multigraph, engine, num_pairs=POOL_PAIRS, seed=POOL_SEED)
    return Stack(multigraph, view, brokers, engine, pool)


def bundle_load(stack: Stack, residual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Admitted Gbps per loaded simple edge: ``(edge ids, amounts)``."""
    used = np.zeros(stack.view.graph.num_edges, dtype=np.float64)
    np.add.at(used, stack.view.edge_of_instance, stack.capacity - residual)
    loaded = np.flatnonzero(used > 0)
    return loaded, used[loaded]


def mirror(stack: Stack, outcome, rec=NULL_RECORDER) -> None:
    """Reserve the admitted load in the engine, verify, then release it."""
    edges, amounts = bundle_load(stack, outcome.residual)
    rec.call("core.engine.reserve", stack.engine.reserve, edges, amounts)
    rec.call("core.engine.verify", stack.engine.verify)
    rec.call("core.engine.release", stack.engine.release, edges, amounts)


@dataclass
class Measured:
    """The timed part of a run and what its batches showed."""

    #: Seconds of every ``admit_batch`` call.
    calls: list
    #: Seconds in ``admit_batch`` and the engine mirror.
    busy_s: float
    flows: int
    ladders: int
    #: Per rung: summed incidences, admitted flows and iterations.
    totals: dict
    #: The last outcome mirrored into the engine.
    last: object = None


def measure(stack: Stack, seed: int, out: Outcome, *, seconds=None,
            ladders=None, rec=NULL_RECORDER) -> Measured:
    """Whole ladders until ``seconds`` pass (or ``ladders`` are done).

    Drawing a batch and checking its outcome happen between the timed
    calls.  One operation is one ``admit_batch`` call: its batch fails
    when the call raises, when an oracle rejects its decisions, or when
    the mirror of its outcome does.
    """
    pool, indptr = stack.pool, stack.pool.indptr
    m = Measured([], 0.0, 0, 0, {size: np.zeros(3, dtype=np.int64)
                                 for size in ADMISSION_RUNGS})
    start = time.perf_counter()
    while (m.ladders < ladders if ladders is not None
           else time.perf_counter() - start < seconds):
        r = m.ladders
        outcome = None
        for rung, size in enumerate(ADMISSION_RUNGS):
            paths, demands = inputs.flow_batch(pool.num_paths, size,
                                               DEMAND_CLASSES, seed, rung, r)
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                outcome = rec.call("admission.kernel.admit_batch", admit_batch,
                                   stack.capacity, pool, paths, demands)
            except Exception as exc:  # a failed batch, not a failed run
                out.fail(f"ladder {r} batch of {size}: "
                         f"{type(exc).__name__}: {exc}")
                outcome = None
                continue
            elapsed = time.perf_counter() - t0
            m.calls.append(elapsed)
            m.busy_s += elapsed
            m.flows += size
            m.totals[size] += (int((indptr[paths + 1] - indptr[paths]).sum()),
                               outcome.num_admitted, outcome.iterations)
            if why := check_batch(stack, paths, demands, outcome):
                out.fail(f"ladder {r} batch of {size}: {why}")
        if outcome is not None:
            t0 = time.perf_counter()
            try:
                mirror(stack, outcome, rec)
            except Exception as exc:
                out.fail(f"ladder {r} mirror: {type(exc).__name__}: {exc}")
            m.busy_s += time.perf_counter() - t0
            m.last = outcome
        m.ladders += 1
    return m


def check_batch(stack: Stack, paths, demands, outcome) -> str | None:
    """``None`` when the batch was admitted first come, first served."""
    pool, capacity = stack.pool, stack.capacity
    k = min(ORACLE_PREFIX, len(paths))
    want = fcfs_prefix(capacity, pool.indptr, pool.instances, paths, demands, k)
    wrong = int(np.count_nonzero(want != outcome.admitted[:k]))
    if wrong:
        return (f"{wrong} of the first {k} decisions differ from first come, "
                "first served")
    residual = residual_after(capacity, pool.indptr, pool.instances, paths,
                              demands, outcome.admitted)
    if not np.array_equal(residual, outcome.residual) or residual.min() < 0:
        return "residual capacity is inconsistent with the admitted flows"
    unexplained = unexplained_rejections(residual, pool.indptr, pool.instances,
                                         paths, demands, outcome.admitted)
    if unexplained:
        return f"{unexplained} rejected flows would still fit on their path"
    return None


def check_mirror(stack: Stack, outcome, out: Outcome) -> None:
    """The engine holds exactly the admitted load, and nothing after release."""
    edges, amounts = bundle_load(stack, outcome.residual)
    stack.engine.reserve(edges, amounts)
    if not np.array_equal(stack.engine.reserved_view()[edges], amounts):
        out.fail("engine reservation differs from the admitted load")
    stack.engine.release(edges, amounts)
    if np.any(stack.engine.reserved_view() != 0):
        out.fail("engine keeps a reservation after release")


def rung_properties(m: Measured) -> dict:
    """Per rung, means over the run's batches: incidences, accept ratio,
    fixed-point iterations and modelled bytes moved."""
    rungs = {}
    for size, (incidences, admitted, iterations) in m.totals.items():
        batches = max(1, m.ladders)
        rungs[f"n{size}"] = {
            "flows": size,
            "batches": m.ladders,
            "incidences": incidences / batches,
            "accept_ratio": admitted / (size * batches),
            "iterations": iterations / batches,
            "bytes_moved": bytes_moved(size, incidences / batches,
                                       iterations / batches),
        }
    return rungs


def bytes_moved(flows: int, incidences: float, iterations: float) -> float:
    """Bytes ``admit_batch`` reads and writes, computed from array sizes.

    Set-up builds about ten int64 or float64 arrays over the incidences
    (path expansion, the lexsort and the gathers behind it) and four
    over the flows.  Each fixed-point iteration touches eight 8-byte
    and three 1-byte arrays over the incidences (gather, cumulative
    sum, segment offsets, comparison and scatter) and two 1-byte arrays
    over the flows.  This is a model, not a measurement.
    """
    setup = 8 * (10 * incidences + 4 * flows)
    per_iteration = (8 * 8 + 3) * incidences + 2 * flows
    return setup + iterations * per_iteration


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from bench.env import peak_rss_mb

    out = Outcome()
    setups, stack = [], None
    for _ in range(SETUP_REPEATS):
        stack = None
        gc.collect()
        t0 = time.perf_counter()
        stack = build_stack()
        setups.append(time.perf_counter() - t0)
    m = measure(stack, seed, out, seconds=seconds)
    rss = peak_rss_mb()
    if m.last is None:
        raise RuntimeError(f"no ladder was mirrored: {out.failures[:5]}")
    check_mirror(stack, m.last, out)
    out.metrics = {
        "setup_s": median(setups),
        "throughput": m.flows / m.busy_s,
        "p50_ms": 1e3 * median(m.calls),
        "peak_rss_mb": rss,
    }
    out.notes["setup_samples_s"] = setups
    out.traffic = {"flows": m.flows, "ladders": m.ladders,
                   "pool_paths": stack.pool.num_paths,
                   "rungs": rung_properties(m)}
    if trace:
        del stack
        gc.collect()
        _traced(seed, out)
    return out


def _traced(seed: int, out: Outcome) -> None:
    rec = Recorder({"workload": "admission", "seed": seed})
    t0 = time.perf_counter()
    stack = build_stack(rec)
    setup_wall = time.perf_counter() - t0
    m = measure(stack, seed, out, ladders=TRACED_LADDERS, rec=rec)
    if m.last is None:
        raise RuntimeError(f"no ladder was mirrored: {out.failures[:5]}")
    check_mirror(stack, m.last, out)
    durations: dict[str, list[float]] = {}
    for r in rec.records:
        durations.setdefault(r["name"], []).append(r["dur"])
    layers = blank_layers()
    layers["datasets.generate_s"] = durations["datasets.load_internet"][0]
    layers["datasets.multigraph_s"] = (
        durations["datasets.expand_internet_multigraph"][0]
        + durations["datasets.simplify"][0]
    )
    select_s = durations["core.select.greedy_max_coverage"][0]
    layers["core.select_s"] = layers["core.select.greedy_s"] = select_s
    layers["core.select.busy_share"] = select_s / setup_wall
    layers["core.engine.build_s"] = durations["core.engine.build"][0]
    layers["core.engine.reserve_ms"] = 1e3 * median(durations["core.engine.reserve"])
    layers["core.engine.verify_ms"] = 1e3 * median(durations["core.engine.verify"])
    pool_s = durations["admission.pool.build_path_pool"][0]
    layers["admission.pool.build_s"] = pool_s
    layers["admission.pool.paths"] = stack.pool.num_paths
    layers["admission.pool.ms_per_path"] = 1e3 * pool_s / stack.pool.num_paths
    layers["admission.kernel_ms.p50"] = 1e3 * median(
        durations["admission.kernel.admit_batch"]
    )
    for rung, props in rung_properties(m).items():
        layers[f"admission.kernel.iterations.{rung}"] = props["iterations"]
        layers[f"admission.kernel.incidences.{rung}"] = props["incidences"]
        layers[f"admission.kernel.bytes_moved.{rung}"] = props["bytes_moved"]
        layers[f"admission.accept_ratio.{rung}"] = props["accept_ratio"]
    layers["tracing.overhead"] = 1.0 - (m.flows / m.busy_s) / out.metrics["throughput"]
    pool_share = pool_s / setup_wall
    out.notes["prediction"] = {
        "claim": "the path pool is most of admission setup_s",
        "pool_share_of_setup": pool_share,
        "holds": pool_share > 0.5,
    }
    out.metrics = layers
    out.notes["trace_file"] = rec.export("admission", seed)
