"""The tight-only affected-hub rule the label repairer's exact test replaced.

:class:`repro.serving.repair.LabelRepairer` re-sweeps a hub only when a
delta edge can change its labels.  The rule below marks every hub from
which a removed edge is tight in the old graph, or an added edge tight
in the new graph, with its far end alive on both sides, plus every born
or died vertex.  It is a superset of what the exact test marks, and it
is exact by the same argument, so the repairer's swept hubs must be a
subset of it.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import shortest_path

from repro.serving.labels import key_endpoints


def tight_hubs(old_keys: np.ndarray, old_alive: np.ndarray, keys: np.ndarray,
               alive: np.ndarray) -> set[int]:
    """Hubs the tight-only rule marks for the delta between two states
    (sorted edge keys and alive masks over the same universe)."""
    removed = np.setdiff1d(old_keys, keys)
    added = np.setdiff1d(keys, old_keys)
    marked = old_alive != alive
    marked |= _tight(old_keys, removed, alive)
    marked |= _tight(keys, added, old_alive)
    return set(np.flatnonzero(marked).tolist())


def _tight(keys: np.ndarray, delta: np.ndarray,
           far_alive: np.ndarray) -> np.ndarray:
    """Hubs from which some ``delta`` edge ``(x, y)`` is tight in the
    graph of ``keys``, ``d(h, y) = d(h, x) + 1``, with ``y`` alive in
    ``far_alive``."""
    n = len(far_alive)
    marked = np.zeros(n, dtype=bool)
    if not len(delta):
        return marked
    lo, hi = key_endpoints(keys)
    graph = sparse.csr_matrix((np.ones(len(keys)), (lo, hi)), shape=(n, n))
    a, b = key_endpoints(delta)
    for x, y in zip(a.tolist(), b.tolist()):
        dist = shortest_path(graph, directed=False, unweighted=True,
                             indices=[x, y])
        reached = np.isfinite(dist[0])  # inf == inf + 1 reads as tight
        marked |= reached & (dist[1] == dist[0] + 1) & bool(far_alive[y])
        marked |= reached & (dist[0] == dist[1] + 1) & bool(far_alive[x])
    return marked
