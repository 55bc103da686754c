"""Content-addressed on-disk cache for sweep task results.

Every cached entry is addressed by a SHA-256 key over four components:

* the **graph digest** (:meth:`repro.graph.asgraph.ASGraph.digest`) —
  any change to the topology or its metadata invalidates the entry;
* the **algorithm** tag (e.g. ``"fig2b-sweep-cell"``);
* the **canonicalized parameters** — numpy scalars coerced, dict keys
  sorted, sequences normalized to lists, so logically equal parameter
  sets always hash identically;
* the **code version** (``repro.__version__`` plus a cache schema
  version) — bumping the package version invalidates stale results.

Values must be JSON-serializable; :meth:`ResultCache.put` round-trips
the value through JSON before returning it, so a cold-computed value and
a later warm hit are *bit-identical* — the equivalence suite pins this.
Writes are atomic (temp file + ``os.replace``), so a killed sweep never
leaves a corrupt entry, and concurrent writers at worst duplicate work.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro._version import __version__
from repro.exceptions import ReproError
from repro.obs import add_counter, write_atomic

#: Bump when the entry layout changes; part of every cache key.
CACHE_SCHEMA_VERSION = 1


def canonicalize_params(params: Any):
    """Normalize ``params`` into a canonical JSON-safe structure.

    Numpy scalars/arrays become Python numbers/lists, tuples become
    lists, dict keys are stringified (and serialized sorted), so two
    logically identical parameter sets produce the same key material.
    """
    if isinstance(params, np.integer):
        return int(params)
    if isinstance(params, np.floating):
        return float(params)
    if isinstance(params, np.ndarray):
        return [canonicalize_params(v) for v in params.tolist()]
    if isinstance(params, (list, tuple)):
        return [canonicalize_params(v) for v in params]
    if isinstance(params, dict):
        return {str(k): canonicalize_params(v) for k, v in params.items()}
    if params is None or isinstance(params, (bool, int, float, str)):
        return params
    raise ReproError(
        f"cache parameters must be JSON-like, got {type(params).__name__}"
    )


def cache_key(
    *,
    graph_digest: str,
    algorithm: str,
    params: Any,
    version: str | None = None,
) -> str:
    """Content address of one task result."""
    material = json.dumps(
        {
            "graph": graph_digest,
            "algorithm": algorithm,
            "params": canonicalize_params(params),
            "version": version if version is not None else __version__,
            "schema": CACHE_SCHEMA_VERSION,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode()).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """On-disk footprint plus this process's hit/miss counters."""

    entries: int
    total_bytes: int
    hits: int
    misses: int

    def as_dict(self) -> dict:
        return {
            "entries": self.entries,
            "total_bytes": self.total_bytes,
            "hits": self.hits,
            "misses": self.misses,
        }

    def render(self) -> str:
        return (
            f"{self.entries} entries, {self.total_bytes} bytes on disk; "
            f"this process: {self.hits} hit(s), {self.misses} miss(es)"
        )


class ResultCache:
    """Content-addressed JSON store under one directory.

    Entries live at ``<dir>/<key[:2]>/<key>.json`` (two-level fanout so a
    big sweep doesn't create one directory with tens of thousands of
    files).  ``hits``/``misses`` count this process's lookups.
    """

    def __init__(self, cache_dir: str | Path) -> None:
        self._dir = Path(cache_dir)
        self.hits = 0
        self.misses = 0

    @property
    def cache_dir(self) -> Path:
        return self._dir

    def _path(self, key: str) -> Path:
        return self._dir / key[:2] / f"{key}.json"

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def get(
        self,
        *,
        graph_digest: str,
        algorithm: str,
        params: Any,
        version: str | None = None,
    ):
        """The cached value, or ``None`` on a miss (counted)."""
        key = cache_key(
            graph_digest=graph_digest,
            algorithm=algorithm,
            params=params,
            version=version,
        )
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            add_counter("cache.misses")
            return None
        if payload.get("algorithm") != algorithm:  # pragma: no cover - paranoia
            self.misses += 1
            add_counter("cache.misses")
            return None
        self.hits += 1
        add_counter("cache.hits")
        return payload.get("value")

    def put(
        self,
        value: Any,
        *,
        graph_digest: str,
        algorithm: str,
        params: Any,
        version: str | None = None,
    ):
        """Store ``value`` atomically; returns its JSON round-trip.

        Callers should use the returned (round-tripped) value so that
        cold-computed results are bit-identical to later warm hits.
        """
        key = cache_key(
            graph_digest=graph_digest,
            algorithm=algorithm,
            params=params,
            version=version,
        )
        entry = {
            "key": key,
            "graph_digest": graph_digest,
            "algorithm": algorithm,
            "params": canonicalize_params(params),
            "version": version if version is not None else __version__,
            "schema": CACHE_SCHEMA_VERSION,
            "value": value,
        }
        try:
            raw = json.dumps(entry)
        except (TypeError, ValueError) as exc:
            raise ReproError(
                f"cache value for {algorithm!r} is not JSON-serializable: {exc}"
            ) from exc
        write_atomic(self._path(key), raw)
        add_counter("cache.puts")
        return json.loads(raw)["value"]

    def get_or_compute(
        self,
        compute: Callable[[], Any],
        *,
        graph_digest: str,
        algorithm: str,
        params: Any,
        version: str | None = None,
    ):
        """Warm-path lookup falling back to ``compute`` + store."""
        value = self.get(
            graph_digest=graph_digest,
            algorithm=algorithm,
            params=params,
            version=version,
        )
        if value is not None:
            return value
        return self.put(
            compute(),
            graph_digest=graph_digest,
            algorithm=algorithm,
            params=params,
            version=version,
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _entry_files(self) -> list[Path]:
        if not self._dir.is_dir():
            return []
        return sorted(self._dir.glob("*/*.json"))

    def stats(self) -> CacheStats:
        files = self._entry_files()
        return CacheStats(
            entries=len(files),
            total_bytes=sum(f.stat().st_size for f in files),
            hits=self.hits,
            misses=self.misses,
        )

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        files = self._entry_files()
        for f in files:
            try:
                f.unlink()
            except FileNotFoundError:  # pragma: no cover - racing clear
                pass
        for sub in sorted(self._dir.glob("*")):
            if sub.is_dir():
                try:
                    sub.rmdir()
                except OSError:  # pragma: no cover - non-empty (foreign files)
                    pass
        return len(files)
