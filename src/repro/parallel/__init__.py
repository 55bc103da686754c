"""Parallel execution + result-cache layer for experiment sweeps.

Three cooperating pieces (see each module's docstring):

* :mod:`repro.parallel.executor` — ``parallel_map`` (in the caller at
  ``workers=1``, a process pool above) with per-task error capture, plus
  the leak-free ``run_with_timeout`` used by the hardened batch runner;
* :mod:`repro.parallel.shm` — zero-copy graph publication over
  ``multiprocessing.shared_memory`` for process-pool workers;
* :mod:`repro.parallel.cache` — content-addressed on-disk result cache
  keyed by graph digest + algorithm + canonical params + code version.
"""

from repro.parallel.cache import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    ResultCache,
    cache_key,
    canonicalize_params,
)
from repro.parallel.executor import (
    ParallelResult,
    TaskFailure,
    orphaned_worker_count,
    parallel_map,
    run_with_timeout,
)
from repro.parallel.shm import (
    AttachedGraph,
    SharedGraphHandle,
    SharedGraphStore,
    attach_graph,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "AttachedGraph",
    "CacheStats",
    "ParallelResult",
    "ResultCache",
    "SharedGraphHandle",
    "SharedGraphStore",
    "TaskFailure",
    "attach_graph",
    "cache_key",
    "canonicalize_params",
    "orphaned_worker_count",
    "parallel_map",
    "run_with_timeout",
]
