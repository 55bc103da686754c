"""Shared plumbing for parallel, cache-aware experiment sweeps.

The seed/budget sweeps in :mod:`repro.experiments.fig2`,
:mod:`repro.experiments.table5` and :mod:`repro.resilience.replay` all
follow the same shape: one fixed topology, many independent cells, each
cell addressable in the result cache.  This module centralizes the
pieces they share:

* the **worker graph slot** — process-pool workers attach the
  shared-memory graph once (pool initializer) and every task reads it
  from a module global instead of unpickling the topology per task;
* :func:`run_graph_tasks` — dispatch tasks through
  :func:`repro.parallel.parallel_map`, publishing the graph via
  :class:`repro.parallel.SharedGraphStore` only when a process pool
  actually needs it;
* :func:`run_cells` — the one cached-cell loop: read the cache, compute
  the misses, write the cache;
* :class:`SweepResult` — every sweep returns a deterministic JSON-safe
  ``payload`` (bit-identical between cold, warm-cache and any
  worker-count runs; the equivalence suite pins this) alongside cache
  hit/miss counters that are *not* part of the payload.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.graph.asgraph import ASGraph
from repro.obs.ledger import RunRecord, git_revision, now, summarize_observation
from repro.parallel.cache import ResultCache
from repro.parallel.executor import ParallelResult, parallel_map
from repro.parallel.shm import AttachedGraph, SharedGraphHandle, SharedGraphStore

#: Graph visible to sweep workers; set directly (``workers=1``) or by the
#: process-pool initializer (shared-memory attach).
_WORKER_GRAPH: ASGraph | None = None
#: Keeps the worker's attachment alive for the lifetime of the process.
_WORKER_ATTACHMENT: AttachedGraph | None = None


def set_worker_graph(graph: ASGraph | None) -> None:
    global _WORKER_GRAPH
    _WORKER_GRAPH = graph


def worker_graph() -> ASGraph:
    if _WORKER_GRAPH is None:
        raise RuntimeError(
            "sweep worker graph is not initialized; tasks must run through "
            "run_graph_tasks()"
        )
    return _WORKER_GRAPH


def _attach_worker_graph(handle: SharedGraphHandle) -> None:
    """Process-pool initializer: attach the shared graph zero-copy."""
    global _WORKER_ATTACHMENT
    _WORKER_ATTACHMENT = AttachedGraph(handle)
    set_worker_graph(_WORKER_ATTACHMENT.graph)


def run_graph_tasks(
    graph: ASGraph,
    fn: Callable,
    tasks: Sequence,
    *,
    workers: int = 1,
    capture_errors: bool = False,
) -> ParallelResult:
    """Run graph-bound ``fn`` over ``tasks`` on ``workers`` processes.

    With ``workers > 1`` the graph is published once through shared
    memory and attached by each pool worker's initializer; with
    ``workers=1`` the tasks share the caller's object directly.  ``fn``
    reads the graph via :func:`worker_graph` so the tasks themselves
    stay small and picklable.
    """
    if workers > 1 and tasks:
        with SharedGraphStore(graph) as store:
            return parallel_map(
                fn,
                tasks,
                workers=workers,
                capture_errors=capture_errors,
                initializer=_attach_worker_graph,
                initargs=(store.handle,),
            )
    set_worker_graph(graph)
    return parallel_map(fn, tasks, capture_errors=capture_errors)


def run_cells(
    graph: ASGraph,
    fn: Callable,
    cells: Sequence[tuple[dict, Any]],
    *,
    tag: str,
    workers: int,
    cache_dir: str | Path | None,
) -> tuple[list, int, int]:
    """Evaluate sweep cells over ``graph``, through the result cache.

    Each cell is a ``(params, task)`` pair: ``params`` addresses the
    cell's cache entry under ``tag`` and the graph digest, and ``task``
    is what ``fn`` receives.  Cache hits are read back; the misses run
    through :func:`run_graph_tasks` and each result is written with
    ``cache.put`` — or, without a cache, JSON round-tripped the same
    way — so cold and warm values are bit-identical.  Returns
    ``(values, hits, misses)`` with values in input order.
    """
    if cache_dir is None:
        computed = run_graph_tasks(
            graph, fn, [task for _, task in cells], workers=workers
        ).values()
        return [json.loads(json.dumps(value)) for value in computed], 0, 0
    cache = ResultCache(cache_dir)
    digest = graph.digest()
    values = [
        cache.get(graph_digest=digest, algorithm=tag, params=params)
        for params, _ in cells
    ]
    missing = [i for i, value in enumerate(values) if value is None]
    computed = run_graph_tasks(
        graph, fn, [cells[i][1] for i in missing], workers=workers
    ).values()
    for i, value in zip(missing, computed):
        values[i] = cache.put(
            value, graph_digest=digest, algorithm=tag, params=cells[i][0]
        )
    return values, cache.hits, cache.misses


@dataclass(frozen=True)
class SweepResult:
    """A sweep's deterministic payload plus its cache counters.

    ``payload`` is pure content — identical bytes for any worker count
    and for cold-cache and warm-cache runs of the same sweep.
    ``cache_hits``/``cache_misses`` describe *this* invocation and are
    deliberately kept out of the payload.
    """

    payload: dict
    cache_hits: int = 0
    cache_misses: int = 0

    def to_json(self, *, indent: int | None = None) -> str:
        """Canonical JSON of the payload (the bit-identity contract)."""
        return json.dumps(self.payload, sort_keys=True, indent=indent)


def record_from_sweep(
    name: str,
    sweep: SweepResult,
    *,
    graph: ASGraph | None = None,
    scale: str = "",
    seed: int = 0,
    params: dict | None = None,
    elapsed: float | None = None,
    algorithm: str | None = None,
) -> RunRecord:
    """The ledger :class:`~repro.obs.ledger.RunRecord` for one sweep run.

    Because the payload is bit-identical across worker counts and cache
    states, its SHA-256 is a strong ``result_digest``: any worker- or
    cache-dependent drift trips the exact regression gate.  Cache
    hit/miss counts land in ``counters`` (they describe the run, not the
    content).

    ``algorithm`` names a registered selection algorithm; the record then
    embeds its canonical descriptor (name + defaulted parameters) from
    :mod:`repro.core.registry`, so ledger rows stay comparable even when
    an algorithm grows new knobs.
    """
    merged = dict(params or {})
    if algorithm is not None:
        from repro.core.registry import canonical_params, get_algorithm

        spec = get_algorithm(algorithm)
        merged["algorithm"] = {
            "name": spec.name,
            "params": canonical_params(algorithm),
            "capabilities": list(spec.capabilities),
        }
    return RunRecord(
        experiment=name,
        kind="sweep",
        scale=scale,
        seed=seed,
        git_rev=git_revision(),
        graph_digest=graph.digest() if graph is not None else "",
        params=merged,
        counters={
            "sweep.cache_hits": sweep.cache_hits,
            "sweep.cache_misses": sweep.cache_misses,
        },
        timings=(
            {"experiment.seconds": summarize_observation(elapsed)}
            if elapsed is not None
            else {}
        ),
        result_digest=hashlib.sha256(sweep.to_json().encode()).hexdigest(),
        ts=now(),
    )
