"""Zero-copy graph sharing for process-pool sweeps.

Pickling a 52,079-node :class:`~repro.graph.asgraph.ASGraph` into every
worker task would dominate the cost of the embarrassingly parallel
kernels the paper's sweeps run.  :class:`SharedGraphStore` instead
publishes the graph's CSR arrays (``indptr``/``indices``) and metadata
arrays once through :mod:`multiprocessing.shared_memory`; workers attach
with :func:`attach_graph` and reconstruct an ``ASGraph`` whose arrays are
views straight into the shared segments — no copy, no re-validation.

Lifecycle contract:

* the **publisher** (parent) owns the segments: ``close()`` releases its
  mappings, ``unlink()`` destroys the segments (also via the context
  manager);
* each **attacher** (worker) must call :meth:`AttachedGraph.close` (or
  use it as a context manager) before the publisher unlinks; closing
  drops the numpy views first so the underlying buffers can be released.

Node ``names`` (variable-length strings, metadata only) travel inside
the picklable :class:`SharedGraphHandle` rather than a segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.exceptions import ReproError
from repro.graph.asgraph import ASGraph
from repro.graph.csr import CSRAdjacency

#: (field name, is CSR-adjacency field) — the arrays worth sharing.
_ARRAY_FIELDS: tuple[str, ...] = (
    "indptr",
    "indices",
    "kinds",
    "tiers",
    "categories",
    "edge_src",
    "edge_dst",
    "edge_rels",
)


def _graph_arrays(graph: ASGraph) -> dict[str, np.ndarray]:
    return {
        "indptr": graph.adj.indptr,
        "indices": graph.adj.indices,
        "kinds": graph.kinds,
        "tiers": graph.tiers,
        "categories": graph.categories,
        "edge_src": graph.edge_src,
        "edge_dst": graph.edge_dst,
        "edge_rels": graph.edge_rels,
    }


@dataclass(frozen=True)
class _ArraySpec:
    """Where to find one array: segment name, shape and dtype string."""

    segment: str
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedGraphHandle:
    """Picklable descriptor a worker needs to attach the shared graph."""

    specs: dict[str, _ArraySpec]
    names: tuple[str, ...]


class SharedGraphStore:
    """Publish an :class:`ASGraph` into shared memory (owner side)."""

    def __init__(self, graph: ASGraph) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        specs: dict[str, _ArraySpec] = {}
        try:
            for field_name, arr in _graph_arrays(graph).items():
                arr = np.ascontiguousarray(arr)
                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, arr.nbytes)
                )
                self._segments.append(shm)
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
                view[...] = arr
                specs[field_name] = _ArraySpec(
                    segment=shm.name, shape=tuple(arr.shape), dtype=str(arr.dtype)
                )
        except BaseException:
            self._destroy(unlink=True)
            raise
        self._handle = SharedGraphHandle(specs=specs, names=tuple(graph.names))
        self._closed = False

    @property
    def handle(self) -> SharedGraphHandle:
        if self._closed:
            raise ReproError("SharedGraphStore is closed")
        return self._handle

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _destroy(self, *, unlink: bool) -> None:
        for shm in self._segments:
            try:
                shm.close()
            except OSError:  # pragma: no cover - platform-dependent
                pass
            if unlink:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover
                    pass
        self._segments = []

    def close(self) -> None:
        """Release this process's mappings (segments stay alive)."""
        self._destroy(unlink=False)
        self._closed = True

    def unlink(self) -> None:
        """Destroy the shared segments; attachers must be done by now."""
        self._destroy(unlink=True)
        self._closed = True

    def __enter__(self) -> "SharedGraphStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unlink()


class AttachedGraph:
    """A worker-side view of a published graph (non-owning)."""

    def __init__(self, handle: SharedGraphHandle) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        arrays: dict[str, np.ndarray] = {}
        try:
            for field_name in _ARRAY_FIELDS:
                spec = handle.specs[field_name]
                shm = shared_memory.SharedMemory(name=spec.segment)
                self._segments.append(shm)
                arrays[field_name] = np.ndarray(
                    spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf
                )
        except BaseException:
            self.close()
            raise
        adj = CSRAdjacency(indptr=arrays["indptr"], indices=arrays["indices"])
        self._graph: ASGraph | None = ASGraph(
            adj=adj,
            kinds=arrays["kinds"],
            tiers=arrays["tiers"],
            categories=arrays["categories"],
            edge_src=arrays["edge_src"],
            edge_dst=arrays["edge_dst"],
            edge_rels=arrays["edge_rels"],
            names=handle.names,
        )

    @property
    def graph(self) -> ASGraph:
        if self._graph is None:
            raise ReproError("AttachedGraph is closed")
        return self._graph

    @property
    def closed(self) -> bool:
        return self._graph is None

    def close(self) -> None:
        """Drop the numpy views, then release the segment mappings."""
        self._graph = None
        for shm in self._segments:
            try:
                shm.close()
            except (OSError, BufferError):  # pragma: no cover
                pass
        self._segments = []

    def __enter__(self) -> "AttachedGraph":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def attach_graph(handle: SharedGraphHandle) -> AttachedGraph:
    """Attach to a published graph (worker side).

    Note on the resource tracker: with the ``fork`` start method (the
    Linux default, and what the process pool uses here) attachers
    share the publisher's tracker, so attaching re-registers the same
    segment name into the same set and only the publisher's ``unlink``
    finally unregisters it — no double-unlink, no "leaked shared_memory"
    warnings.
    """
    return AttachedGraph(handle)
