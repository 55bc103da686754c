"""``serve-tcp`` and ``churn``: the path-query tier at ``small``.

Both build the stack ``repro serve`` builds with its shipped defaults:
MaxSG brokers at 1.9% of the vertices, a domination engine, the hub2
label index, a lazy label repairer and a batching ``PathQueryService``
with the default SLO monitor.  Load comes from this process: two
closed-loop clients, each with one request in flight.
"""

from __future__ import annotations

import asyncio
import gc
import ipaddress
import json
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from bench import inputs
from bench.layers import Outcome, blank_layers
from bench.oracles import DominatedGraph
from bench.stats import median, percentile, self_times
from bench.tracing import NULL_RECORDER, Recorder, ServingProbe, counter_value
from repro.core.engine import DominationEngine
from repro.core.maxsg import maxsg
from repro.datasets.loader import load_internet
from repro.obs import get_registry
from repro.obs.slo import SloMonitor
from repro.serving import (
    LabelRepairer,
    PathQueryService,
    QueryRequest,
    build_index,
    serve_tcp,
)

SCALE = "small"
#: The deployment is fixed; ``--seed`` draws only the traffic.
TOPOLOGY_SEED = 1
#: ``repro serve``'s default broker budget.
BROKER_SHARE = 0.019
CLIENTS = 2
HOST = "127.0.0.1"
#: Distinct queries in a stream before it repeats.
STREAM = 65536
SETUP_REPEATS = 5
#: Queries between two engine mutations on ``churn``.
PHASE_QUERIES = 25
#: Fixed work of the traced phase, so registry counts repeat exactly.
#: 10,000 round trips leave ten samples beyond p99.9; 48 churn phases
#: give 1,200 queries, ten beyond p99.
TRACED_TCP_QUERIES = 10_000
TRACED_CHURN_PHASES = 48
#: ``serve-tcp`` answers checked against the BFS oracle, drawn from the
#: first ``BFS_SAMPLE_FROM`` queries, which every run sends.
BFS_SAMPLE = 400
BFS_SAMPLE_FROM = 4096
#: ``churn`` answers checked against the BFS oracle in every phase.
PHASE_SAMPLE = 5
#: Phases before the query stream would wrap.
MAX_PHASES = STREAM // PHASE_QUERIES

REPAIR_COUNTERS = (
    "serving.repair.scoped_rebuilds",
    "serving.repair.incremental_patches",
    "serving.repair.edges_added",
    "serving.repair.edges_removed",
)
SELECTION_COUNTERS = (
    "kernel.maxsg.gain_evaluations",
    "kernel.lazy_greedy.gain_evaluations",
    "kernel.approx_mcbg.roots_tried",
    "kernel.batched_bfs.sources",
)
TRACED_COUNTERS = REPAIR_COUNTERS + SELECTION_COUNTERS


@dataclass
class Stack:
    graph: object
    brokers: list
    engine: DominationEngine
    index: object
    repairer: LabelRepairer
    service: PathQueryService


def build_stack(rec=NULL_RECORDER) -> Stack:
    graph = rec.call("datasets.load_internet", load_internet, SCALE,
                     seed=TOPOLOGY_SEED)
    budget = max(1, round(BROKER_SHARE * graph.num_nodes))
    brokers = rec.call("core.select.maxsg", maxsg, graph, budget)
    engine = rec.call("core.engine.build", DominationEngine, graph, brokers)
    index = rec.call("serving.labels.build_index", build_index, engine)
    repairer = rec.call("serving.repair.init", LabelRepairer, engine, index)
    service = rec.call("serving.service.init", PathQueryService, repairer,
                       slo_monitor=SloMonitor())
    return Stack(graph, brokers, engine, index, repairer, service)


def answer_key(answer: dict) -> int:
    """Hash of an answer's content, independent of key order."""
    return hash(json.dumps(answer, sort_keys=True))


class AnswerLog:
    """What the clients keep of the answers, in storage sized before the run.

    The clients share the process with the program, so their bookkeeping
    must stay small and must not grow with throughput, or
    ``peak_rss_mb`` would show the benchmark's memory rather than the
    program's.  For the answer to query ``i`` it keeps, in slot
    ``i % STREAM``, a hash of the answer and whether the answer was ok,
    reachable, and waited on a repair.  Whole answers are kept only for
    the queries the caller marks, which the BFS oracle checks.  On
    ``serve-tcp`` the engine never changes, so a query seen again must
    get the same answer; that is checked when its slot is reused.
    """

    FILLED, OK, REACHABLE, WAITED = 1, 2, 4, 8
    MAX_LATENCIES = 1 << 17

    def __init__(self, static: bool) -> None:
        self.static = static
        self.key = np.zeros(STREAM, dtype=np.int64)
        self.flags = np.zeros(STREAM, dtype=np.uint8)
        #: Filled now, so the pages are resident before the run.
        self.latency = np.ones(self.MAX_LATENCIES)
        self.count = 0
        #: Whole answers of the marked queries, by query id.
        self.kept: dict[int, dict] = {}
        #: One message per answer that was unparseable or not ok.
        self.bad: list[str] = []
        self.changed_repeats = 0

    def add(self, i: int, answer: dict | None, latency_s: float,
            waited: bool = False, keep: bool = False) -> None:
        slot = i % STREAM
        self.latency[self.count % self.MAX_LATENCIES] = latency_s
        self.count += 1
        if answer is None:
            self.bad.append(f"query {i}: unparseable answer")
            self.flags[slot] = self.FILLED
            return
        if not answer.get("ok"):
            self.bad.append(f"query {i}: ok=false: {answer.get('error')}")
        key = answer_key(answer)
        if self.static and self.flags[slot] and self.key[slot] != key:
            self.changed_repeats += 1
        self.key[slot] = key
        self.flags[slot] = (
            self.FILLED
            | self.OK * bool(answer.get("ok"))
            | self.REACHABLE * bool(answer.get("reachable"))
            | self.WAITED * waited
        )
        if keep:
            self.kept[i] = answer

    def slots(self, flag: int) -> np.ndarray:
        """Slots whose latest answer has ``flag``."""
        return np.flatnonzero(self.flags & flag)

    def latencies(self) -> list[float]:
        return self.latency[:min(self.count, self.MAX_LATENCIES)].tolist()


@dataclass
class Load:
    log: AnswerLog
    elapsed_s: float
    errors: list
    #: Engine mutations applied (``churn`` only).
    phases: int = 0


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------


class _TcpProbe:
    """Round-trip spans on the client side of traced ``serve-tcp``."""

    def __init__(self, probe: ServingProbe) -> None:
        self.probe = probe

    def begin(self, i: int, query):
        span = self.probe.recorder.open("serving.tcp.round_trip", request=i)
        self.probe.expect(i, query, span.context)
        return span


async def tcp_load(port: int, queries, sample, *, seconds=None, limit=None,
                   probe: _TcpProbe | None = None) -> Load:
    """Closed-loop JSON-lines clients until ``seconds`` or ``limit``.

    Whole answers are kept for the query ids in ``sample``.
    """
    log = AnswerLog(static=True)
    errors: list[str] = []
    cursor = 0
    start = time.perf_counter()

    async def client() -> None:
        nonlocal cursor
        reader, writer = await asyncio.open_connection(HOST, port)
        try:
            while (cursor < limit if limit is not None
                   else time.perf_counter() - start < seconds):
                i = cursor
                cursor += 1
                q = queries[i % len(queries)]
                line = q.line()
                span = probe.begin(i, q) if probe is not None else None
                t0 = time.perf_counter()
                writer.write(line)
                await writer.drain()
                raw = await reader.readline()
                latency = time.perf_counter() - t0
                if span is not None:
                    span.finish()
                if not raw:
                    errors.append(f"query {i}: connection closed")
                    return
                try:
                    answer = json.loads(raw)
                except ValueError:
                    answer = None
                log.add(i, answer, latency, keep=i in sample)
        finally:
            writer.close()
            await writer.wait_closed()

    for result in await asyncio.gather(
        *(client() for _ in range(CLIENTS)), return_exceptions=True
    ):
        if isinstance(result, BaseException):
            errors.append(f"client: {type(result).__name__}: {result}")
    return Load(log, time.perf_counter() - start, errors)


def phase_sample(seed: int, k: int) -> list[int]:
    """Query ids of phase ``k`` whose answers the BFS oracle checks."""
    base = k * PHASE_QUERIES
    return [base + j
            for j in inputs.sample_indices(PHASE_QUERIES, PHASE_SAMPLE, seed, k + 1)]


async def churn_load(stack: Stack, queries, plan, seed: int, *, seconds=None,
                     phases=None, rec=NULL_RECORDER,
                     probe: ServingProbe | None = None) -> Load:
    """Phases of ``PHASE_QUERIES`` queries, one engine mutation before each.

    Even mutations break (``plan[k // 2]``), odd ones heal that break.
    A mutation is applied only once every answer of the previous phase
    has arrived, so each answer belongs to one known engine state.
    """
    service, engine, repairer = stack.service, stack.engine, stack.repairer
    log = AnswerLog(static=False)
    errors: list[str] = []
    limit = MAX_PHASES if phases is None else min(phases, MAX_PHASES)
    start = time.perf_counter()
    k = 0
    while k < limit and (phases is not None
                         or time.perf_counter() - start < seconds):
        brk = plan[k // 2]
        name, op = (("core.engine.break", brk.apply) if k % 2 == 0
                    else ("core.engine.heal", brk.heal))
        try:
            if not rec.call(name, op, engine):
                errors.append(f"mutation {k} ({brk.kind}) changed nothing")
        except Exception as exc:  # a failed operation, not a failed run
            errors.append(f"mutation {k}: {type(exc).__name__}: {exc}")
        pending = deque(range(k * PHASE_QUERIES, (k + 1) * PHASE_QUERIES))
        sample = set(phase_sample(seed, k))

        async def client() -> None:
            while pending:
                i = pending.popleft()
                q = queries[i]
                waited = repairer.dirty
                if probe is not None:
                    probe.expect(i, q)
                t0 = time.perf_counter()
                response = await service.submit(
                    QueryRequest(q.src, q.dst, q.max_hops, q.want_path)
                )
                latency = time.perf_counter() - t0
                log.add(i, response.as_dict(), latency, waited, keep=i in sample)

        for result in await asyncio.gather(
            *(client() for _ in range(CLIENTS)), return_exceptions=True
        ):
            if isinstance(result, BaseException):
                errors.append(f"phase {k}: {type(result).__name__}: {result}")
        k += 1
    return Load(log, time.perf_counter() - start, errors, phases=k)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


def tcp_sample(seed: int) -> set[int]:
    """Query ids whose ``serve-tcp`` answers the BFS oracle checks."""
    return set(inputs.sample_indices(BFS_SAMPLE_FROM, BFS_SAMPLE, seed, 0))


def check_tcp(stack: Stack, queries, load: Load, out: Outcome) -> None:
    """Every answer against in-process ``resolve``; a sample against BFS."""
    log = load.log
    for message in load.errors + log.bad:
        out.fail(message)
    if log.changed_repeats:
        out.fail(f"{log.changed_repeats} repeated queries got another answer")
    for slot in log.slots(AnswerLog.OK).tolist():
        q = queries[slot]
        expected = stack.service.resolve(
            QueryRequest(q.src, q.dst, q.max_hops, q.want_path)
        ).as_dict()
        if answer_key(expected) != log.key[slot]:
            out.fail(f"query {slot}: answer differs from resolve {expected}")
    graph = DominatedGraph(stack.engine)
    for i, answer in sorted(log.kept.items()):
        if why := graph.check(queries[i], answer):
            out.fail(f"query {i}: {why}")


def check_churn(stack: Stack, queries, plan, load: Load, out: Outcome) -> dict:
    """Replay the phases on a fresh engine and BFS-check each phase's sample.

    Returns the mutation properties measured during the replay.
    """
    for message in load.errors + load.log.bad:
        out.fail(message)
    engine = DominationEngine(stack.graph, stack.brokers)
    pristine = DominatedGraph(engine)
    kept = load.log.kept
    shrinking = links = 0
    num_phases = load.phases
    for k in range(num_phases):
        brk = plan[k // 2]
        if k % 2 == 0:
            brk.apply(engine)
            graph = DominatedGraph(engine)
            shrinking += len(graph.edges) < len(pristine.edges)
            links += brk.kind == "link"
        else:
            brk.heal(engine)
            graph = pristine
        base = k * PHASE_QUERIES
        for i in sorted(j for j in kept if base <= j < base + PHASE_QUERIES):
            if kept[i].get("ok") and (why := graph.check(queries[i], kept[i])):
                out.fail(f"phase {k} query {i}: {why}")
    breaks, heals = (num_phases + 1) // 2, num_phases // 2
    healed_links = sum(plan[j].kind == "link" for j in range(heals))
    return {
        "mutations": num_phases,
        "mutation_kinds": {
            "cut_link": links,
            "fail_node": breaks - links,
            "restore_link": healed_links,
            "restore_node": heals - healed_links,
        },
        "shrinking_share": shrinking / num_phases if num_phases else 0.0,
    }


def query_properties(queries, load: Load) -> dict:
    """Shares over the latest query in every filled slot."""
    log = load.log
    filled = log.slots(AnswerLog.FILLED)
    n = max(1, len(filled))
    return {
        "queries": log.count,
        "path_share": int(queries.want_path[filled].sum()) / n,
        "hop_bound_share": int(np.count_nonzero(queries.max_hops[filled])) / n,
        "reachable_share": len(log.slots(AnswerLog.REACHABLE)) / n,
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


async def _setup_repeated(with_socket: bool):
    """Set up ``SETUP_REPEATS`` times; keep the last stack and server."""
    times = []
    stack = server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.close()
            await server.wait_closed()
        stack = server = None
        gc.collect()
        t0 = time.perf_counter()
        stack = build_stack()
        if with_socket:
            server = await serve_tcp(stack.service, HOST, 0)
        times.append(time.perf_counter() - t0)
    return stack, server, times


def _ms(values) -> list[float]:
    return [1e3 * v for v in values]


def _end_to_end(out: Outcome, load: Load, setups, rss: float) -> None:
    latencies = _ms(load.log.latencies())
    out.metrics = {
        "setup_s": median(setups),
        "throughput": load.log.count / load.elapsed_s,
        "p50_ms": median(latencies),
        "peak_rss_mb": rss,
    }
    out.notes["setup_samples_s"] = setups
    if len(latencies) >= 1000:
        out.notes["p99_ms"] = percentile(latencies, 0.99)
    out.notes["latency_samples"] = len(latencies)


def run_serve_tcp(seed: int, seconds: float, trace: bool) -> Outcome:
    from bench.env import peak_rss_mb

    out = Outcome()

    async def main():
        stack, server, setups = await _setup_repeated(with_socket=True)
        queries = inputs.query_stream(stack.graph.num_nodes, STREAM, seed)
        host, port = server.sockets[0].getsockname()[:2]
        out.notes["transport"] = {
            "server": f"{host}:{port}",
            "loopback": ipaddress.ip_address(host).is_loopback,
        }
        load = await tcp_load(port, queries, tcp_sample(seed), seconds=seconds)
        rss = peak_rss_mb()
        server.close()
        await server.wait_closed()
        out.attempted += load.log.count + len(load.errors)
        check_tcp(stack, queries, load, out)
        _end_to_end(out, load, setups, rss)
        out.traffic = query_properties(queries, load)
        if trace:
            del stack, server
            gc.collect()
            await _traced_tcp(seed, queries, out)

    asyncio.run(main())
    return out


async def _traced_tcp(seed, queries, out: Outcome) -> None:
    rec = Recorder({"workload": "serve-tcp", "seed": seed})
    before = {name: counter_value(name) for name in TRACED_COUNTERS}
    t0 = time.perf_counter()
    stack = build_stack(rec)
    server = await rec.call("serving.tcp.serve_tcp", serve_tcp, stack.service,
                            HOST, 0)
    setup_wall = time.perf_counter() - t0
    entries = stack.index.label_entries()
    probe = ServingProbe(rec, stack)
    batch0 = _batch_sizes()
    port = server.sockets[0].getsockname()[1]
    load = await tcp_load(port, queries, tcp_sample(seed),
                          limit=TRACED_TCP_QUERIES, probe=_TcpProbe(probe))
    batches = _batch_sizes(batch0)
    burn = _latency_burn(stack.service)
    probe.close()
    server.close()
    await server.wait_closed()
    out.attempted += load.log.count + len(load.errors)
    check_tcp(stack, queries, load, out)
    if probe.mismatches:
        out.fail(f"{probe.mismatches} query span(s) matched the wrong request")
    counts = {name: counter_value(name) - before[name] for name in TRACED_COUNTERS}
    layers = _serving_layers(rec, load, setup_wall, entries, batches, burn, counts)
    records = rec.records
    trips = [r for r in records if r["name"] == "serving.tcp.round_trip"]
    own = self_times(records)
    trip_ms = _ms(r["dur"] for r in trips)
    layers["serving.tcp.self_ms.p50"] = median(_ms(own[r["id"]] for r in trips))
    layers["serving.tcp.round_trip_ms.p99"] = percentile(trip_ms, 0.99)
    layers["serving.tcp.round_trip_ms.p999"] = percentile(trip_ms, 0.999)
    layers["serving.tcp.round_trip.samples"] = len(trip_ms)
    throughput = load.log.count / load.elapsed_s
    layers["tracing.overhead"] = 1.0 - throughput / out.metrics["throughput"]
    wait_share = layers["serving.service.queue_wait_ms.p50"] / median(trip_ms)
    out.notes["prediction"] = {
        "claim": "queue wait is most of serve-tcp p50_ms",
        "queue_wait_share_of_round_trip_p50": wait_share,
        "holds": wait_share > 0.5,
    }
    out.metrics = layers
    out.notes["trace_file"] = rec.export("serve-tcp", seed)


def run_churn(seed: int, seconds: float, trace: bool) -> Outcome:
    from bench.env import peak_rss_mb

    out = Outcome()

    async def main():
        stack, _, setups = await _setup_repeated(with_socket=False)
        queries = inputs.query_stream(stack.graph.num_nodes, STREAM, seed)
        plan = inputs.break_plan(stack.engine, (MAX_PHASES + 1) // 2, seed)
        load = await churn_load(stack, queries, plan, seed, seconds=seconds)
        rss = peak_rss_mb()
        mutation_props = check_churn(stack, queries, plan, load, out)
        out.attempted += load.log.count + load.phases
        _end_to_end(out, load, setups, rss)
        waited = len(load.log.slots(AnswerLog.WAITED))
        out.traffic = {
            **query_properties(queries, load),
            **mutation_props,
            "waited_on_repair_share": waited / max(1, load.log.count),
        }
        if trace:
            del stack
            gc.collect()
            await _traced_churn(seed, queries, out)

    asyncio.run(main())
    return out


async def _traced_churn(seed, queries, out: Outcome) -> None:
    rec = Recorder({"workload": "churn", "seed": seed})
    before = {name: counter_value(name) for name in TRACED_COUNTERS}
    t0 = time.perf_counter()
    stack = build_stack(rec)
    setup_wall = time.perf_counter() - t0
    entries = stack.index.label_entries()
    plan = inputs.break_plan(stack.engine, (MAX_PHASES + 1) // 2, seed)
    probe = ServingProbe(rec, stack)
    batch0 = _batch_sizes()
    load = await churn_load(stack, queries, plan, seed,
                            phases=TRACED_CHURN_PHASES, rec=rec, probe=probe)
    batches = _batch_sizes(batch0)
    burn = _latency_burn(stack.service)
    probe.close()
    check_churn(stack, queries, plan, load, out)
    out.attempted += load.log.count + load.phases
    if probe.mismatches:
        out.fail(f"{probe.mismatches} query span(s) matched the wrong request")
    counts = {name: counter_value(name) - before[name] for name in TRACED_COUNTERS}
    layers = _serving_layers(rec, load, setup_wall, entries, batches, burn, counts)
    records = rec.records
    for kind in ("break", "heal"):
        layers[f"core.engine.{kind}_ms.p50"] = median(
            _ms(r["dur"] for r in records if r["name"] == f"core.engine.{kind}")
        )
    throughput = load.log.count / load.elapsed_s
    layers["tracing.overhead"] = 1.0 - throughput / out.metrics["throughput"]
    out.notes["prediction"] = {
        "claim": "repair is most of churn wall time",
        "repair_share_of_wall": layers["serving.repair.busy_share"],
        "holds": layers["serving.repair.busy_share"] > 0.5,
    }
    out.metrics = layers
    out.notes["trace_file"] = rec.export("churn", seed)


def _batch_sizes(since=(0, 0.0)) -> tuple[int, float]:
    """(count, total) of the service's batch-size histogram since ``since``."""
    hist = get_registry().histogram("serving.batch.size")
    return hist.count - since[0], hist.total - since[1]


def _latency_burn(service: PathQueryService) -> float:
    for verdict in service.slo.evaluate():
        if verdict.spec.kind == "latency":
            return verdict.burn_rate
    return 0.0


def _serving_layers(rec: Recorder, load: Load, setup_wall, entries, batches,
                    burn, counts) -> dict:
    """Per-layer metrics shared by both serving workloads."""
    records = rec.records
    by_name: dict[str, list[dict]] = {}
    for r in records:
        by_name.setdefault(r["name"], []).append(r)
    wall = load.elapsed_s
    layers = blank_layers()
    layers["datasets.generate_s"] = by_name["datasets.load_internet"][0]["dur"]
    select_s = by_name["core.select.maxsg"][0]["dur"]
    layers["core.select_s"] = layers["core.select.maxsg_s"] = select_s
    layers["core.select.busy_share"] = select_s / setup_wall
    layers["core.engine.build_s"] = by_name["core.engine.build"][0]["dur"]
    layers["serving.labels.build_s"] = by_name["serving.labels.build_index"][0]["dur"]
    layers["serving.labels.entries"] = entries

    submits, syncs, lookups = (
        {r["attrs"]["request"]: r for r in by_name.get(name, [])}
        for name in ("serving.service.submit", "serving.repair.sync",
                     "serving.labels.query")
    )
    query_us = [1e6 * r["dur"] for r in lookups.values()]
    if query_us:
        layers["serving.labels.query_us.p50"] = median(query_us)
        layers["serving.labels.query_us.p99"] = percentile(query_us, 0.99)
    layers["serving.labels.busy_share"] = sum(query_us) / 1e6 / wall

    repairs = [r for r in syncs.values() if "repair" in r["attrs"]]
    for kind, name in (("rebuild", "rebuild_ms"), ("patch", "patch_ms")):
        durations = _ms(r["dur"] for r in repairs if r["attrs"]["repair"] == kind)
        if durations:
            layers[f"serving.repair.{name}.p50"] = median(durations)
    layers["serving.repair.busy_share"] = sum(r["dur"] for r in syncs.values()) / wall
    stalled = sum(
        any(s["start"] < r["start"] + r["dur"] and r["start"] < s["start"] + s["dur"]
            for s in repairs)
        for r in submits.values()
    )
    layers["serving.repair.stalled_share"] = stalled / len(submits)
    for name in TRACED_COUNTERS:
        layers[name] = counts[name]

    waits = [
        r["dur"] - sum(calls[rid]["dur"] for calls in (syncs, lookups) if rid in calls)
        for rid, r in submits.items()
    ]
    layers["serving.service.queue_wait_ms.p50"] = median(_ms(waits))
    layers["serving.service.submit_ms.p99"] = percentile(
        _ms(r["dur"] for r in submits.values()), 0.99
    )
    count, total = batches
    layers["serving.service.batch_size.mean"] = total / count if count else 0.0
    layers["obs.slo.latency_burn"] = burn
    return layers

