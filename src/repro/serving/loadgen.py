"""Seeded closed-loop load generator for the query service.

Benchmarks and CI smoke runs need query streams that are (a) shaped
like real lookups — hop bounds drawn from the dominated subgraph's own
reach profile rather than uniform noise — and (b) exactly reproducible,
so a throughput or digest regression is attributable to the code and
not the workload.  :func:`generate_queries` therefore derives its hop
bounds from :func:`repro.graph.bitset.bitset_hop_reach` over the
index's dominated subgraph (bounds land where reachability actually
changes), and everything downstream of the seed is deterministic:
same index + same seed → the same query list, the same per-query
answers, and the same ``answers_digest``.

:func:`run_loadgen` drives a :class:`PathQueryService` *closed-loop*:
one request at a time, the next query issued the moment the previous
answer lands.  The report's digest doubles as a regression oracle:
ledger records carry it, and ``repro report --check`` refuses drift.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.graph.bitset import bitset_hop_reach
from repro.obs import metrics as _metrics
from repro.serving.labels import HubLabelIndex
from repro.serving.service import PathQueryService, QueryRequest

__all__ = ["LoadgenReport", "generate_queries", "run_loadgen"]

#: Hop horizon for the reach profile (and the largest bound generated).
PROFILE_MAX_HOPS = 8

#: Fraction of queries issued without a hop bound.
UNBOUNDED_FRACTION = 0.25


@dataclass(frozen=True)
class LoadgenReport:
    """Outcome of one closed-loop run (JSON-safe via :meth:`as_dict`).

    ``latency_p50`` / ``latency_p99`` / ``latency_max`` are end-to-end
    per-query seconds sampled around each ``resolve`` call — the inputs
    the serving SLO checks run against.  The digest stays a pure function of the
    answers, never of the timings.
    """

    queries: int
    seed: int
    elapsed_seconds: float
    throughput_qps: float
    reachable: int
    errors: int
    answers_digest: str
    latency_p50: float = 0.0
    latency_p99: float = 0.0
    latency_max: float = 0.0

    def as_dict(self) -> dict:
        return {
            "queries": self.queries,
            "seed": self.seed,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_qps": self.throughput_qps,
            "reachable": self.reachable,
            "errors": self.errors,
            "answers_digest": self.answers_digest,
            "latency_p50": self.latency_p50,
            "latency_p99": self.latency_p99,
            "latency_max": self.latency_max,
        }


def _hop_weights(index: HubLabelIndex, rng: np.random.Generator) -> np.ndarray:
    """Hop-bound weights from the dominated subgraph's reach profile.

    Runs the bit-parallel multi-source BFS kernel over a seeded sample
    of alive vertices and weights bound ``l`` by the vertices *newly*
    reached at hop ``l`` — bounds concentrate where reachability
    actually changes, so bounded queries exercise both verdicts.
    """
    alive = np.flatnonzero(index.alive)
    if not len(alive):
        return np.ones(PROFILE_MAX_HOPS) / PROFILE_MAX_HOPS
    rows, cols = [], []
    for v in alive.tolist():
        rows.extend([v] * len(index.adj[v]))
        cols.extend(index.adj[v])
    matrix = sparse.csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)),
        shape=(index.n, index.n),
    )
    sample = rng.choice(alive, size=min(32, len(alive)), replace=False)
    totals = bitset_hop_reach(
        matrix, sample, PROFILE_MAX_HOPS, aggregate=True
    ).astype(np.float64)
    fresh = np.diff(totals, prepend=0.0)
    if fresh.sum() <= 0:
        return np.ones(PROFILE_MAX_HOPS) / PROFILE_MAX_HOPS
    # Laplace-smooth so every bound in the horizon stays reachable.
    fresh += 1.0
    return fresh / fresh.sum()


def generate_queries(
    index: HubLabelIndex,
    count: int,
    *,
    seed: int = 0,
    path_fraction: float = 0.1,
) -> list[QueryRequest]:
    """``count`` deterministic queries shaped by the reach profile."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    weights = _hop_weights(index, rng)
    n = max(index.n, 1)
    srcs = rng.integers(0, n, size=count)
    dsts = rng.integers(0, n, size=count)
    unbounded = rng.random(count) < UNBOUNDED_FRACTION
    bounds = rng.choice(PROFILE_MAX_HOPS, size=count, p=weights) + 1
    with_path = rng.random(count) < path_fraction
    return [
        QueryRequest(
            src=int(srcs[i]),
            dst=int(dsts[i]),
            max_hops=None if unbounded[i] else int(bounds[i]),
            want_path=bool(with_path[i]),
        )
        for i in range(count)
    ]


def answers_digest(responses) -> str:
    """Order-sensitive SHA-256 over the serialized answers."""
    material = json.dumps(
        [r.as_dict() for r in responses], sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def run_loadgen(
    service: PathQueryService,
    queries_or_index,
    count: int | None = None,
    *,
    seed: int = 0,
) -> LoadgenReport:
    """Drive ``service`` closed-loop and summarize the run.

    Pass either a prepared query list or an index to generate ``count``
    queries from (seeded).
    """
    if isinstance(queries_or_index, HubLabelIndex):
        if count is None:
            raise ValueError("count is required when generating queries")
        queries = generate_queries(queries_or_index, count, seed=seed)
    else:
        queries = list(queries_or_index)
    responses = []
    latencies = []
    started = time.perf_counter()
    for query in queries:
        t0 = time.perf_counter()
        responses.append(service.resolve(query))
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - started
    ordered = sorted(latencies)

    def rank(q: float) -> float:
        if not ordered:
            return 0.0
        idx = math.ceil(q * len(ordered)) - 1
        return ordered[min(len(ordered) - 1, max(0, idx))]

    report = LoadgenReport(
        queries=len(queries),
        seed=seed,
        elapsed_seconds=elapsed,
        throughput_qps=len(queries) / elapsed if elapsed > 0 else 0.0,
        reachable=sum(1 for r in responses if r.ok and r.reachable),
        errors=sum(1 for r in responses if not r.ok),
        answers_digest=answers_digest(responses),
        latency_p50=rank(0.50),
        latency_p99=rank(0.99),
        latency_max=ordered[-1] if ordered else 0.0,
    )
    _metrics.add_counter("serving.loadgen.runs")
    _metrics.observe("serving.loadgen.qps", report.throughput_qps)
    _metrics.observe_many("serving.loadgen.query.seconds", latencies)
    return report
