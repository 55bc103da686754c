"""Broker path-query serving tier.

The offline layers of this repo decide *which* brokers to deploy; this
package answers the online question those brokers exist for: *is this
(src, dst) pair broker-connected within ``l`` hops, and via which
path?* — at query-serving latency, under churn:

* :mod:`repro.serving.labels` — the 2-hop hub-label index (pruned
  landmark labeling over the dominated subgraph; microsecond
  sorted-hub-merge queries);
* :mod:`repro.serving.repair` — incremental label repair driven by
  :meth:`DominationEngine.subscribe` mutation deltas;
* :mod:`repro.serving.service` — inline request resolution, structured
  errors, latency histograms, JSON-lines TCP endpoint;
* :mod:`repro.serving.loadgen` — seeded closed-loop load generation
  with a digest-pinned answer stream.

:func:`build_index` is the cached entry point: index payloads are
content-addressed in the sweep :class:`ResultCache` by the engine
state's digest and the registry fingerprint, so re-serving an unchanged
deployment skips construction entirely.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.core.registry import registry_fingerprint
from repro.exceptions import AlgorithmError
from repro.obs import metrics as _metrics
from repro.serving.labels import (
    UNREACHED,
    HubLabelIndex,
    QueryAnswer,
    _snapshot,
    key_endpoints,
)
from repro.serving.loadgen import LoadgenReport, generate_queries, run_loadgen
from repro.serving.repair import LabelRepairer
from repro.serving.service import (
    ADMIN_VERBS,
    PathQueryService,
    QueryRequest,
    QueryResponse,
    admin_response,
    serve_tcp,
)

__all__ = [
    "ADMIN_VERBS",
    "HubLabelIndex",
    "LabelRepairer",
    "LoadgenReport",
    "PathQueryService",
    "QueryAnswer",
    "QueryRequest",
    "QueryResponse",
    "UNREACHED",
    "admin_response",
    "build_index",
    "engine_state_digest",
    "generate_queries",
    "run_loadgen",
    "serve_tcp",
]


def engine_state_digest(engine) -> str:
    """Digest of exactly the engine state the index depends on.

    The labeling is a pure function of the dominated subgraph —
    universe size, aliveness, and the dominated alive edge set — so two
    engines that agree on those (whatever their broker/mutation history)
    share one cache entry.
    """
    n, alive, keys = _snapshot(engine)
    material = json.dumps(
        {
            "n": n,
            "dead": np.flatnonzero(~alive).tolist(),
            "edges": np.column_stack(key_endpoints(keys)).tolist(),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode()).hexdigest()


def build_index(engine, *, cache=None) -> HubLabelIndex:
    """Build (or cache-load) the hub-label index over ``engine``.

    With a :class:`repro.parallel.cache.ResultCache`, the serialized
    index is content-addressed by the engine state digest and the
    registry fingerprint — so payloads invalidate when the roster
    changes, exactly like cached experiment results.  A cache file is
    outside input: an entry that fails
    :meth:`HubLabelIndex.from_payload` validation is treated as a miss —
    rebuilt, overwritten and counted in ``serving.index.cache_rejects``.
    """
    if cache is None:
        return HubLabelIndex.build(engine)
    entry = {
        "graph_digest": engine_state_digest(engine),
        "algorithm": "serving-index-hub2",
        "params": {"registry": registry_fingerprint()},
    }
    payload = cache.get(**entry)
    if payload is not None:
        try:
            return HubLabelIndex.from_payload(payload)
        except AlgorithmError:
            _metrics.add_counter("serving.index.cache_rejects")
    index = HubLabelIndex.build(engine)
    cache.put(index.to_payload(), **entry)
    return index
