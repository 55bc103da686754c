"""Per-flow admission loop with the exact sequential FCFS semantics.

:func:`repro.experiments.admission.admit_batch` computes the same
admitted set with vectorized fixed-point passes; the differential tests
require the two to agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.admission import AdmissionOutcome, PathPool, _validate_stream


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
