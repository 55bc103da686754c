"""Spans around the benchmark's calls into the program.

A :class:`Recorder` owns a private ``repro.obs.Tracer`` that is never
installed as the process tracer, so the program's own spans stay off and
only the boundaries the benchmark crosses are timed.  Spans stay in
memory until :meth:`Recorder.export`.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext

from repro.obs import Tracer, get_registry


class NullRecorder:
    """The untraced recorder: calls straight through."""

    enabled = False

    def call(self, name, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, **attrs):
        return nullcontext()


#: The recorder every untraced run uses.
NULL_RECORDER = NullRecorder()


class Recorder:
    """Records one span per call on a private tracer."""

    enabled = True

    def __init__(self, metadata: dict) -> None:
        self.tracer = Tracer(metadata)

    def call(self, name, fn, /, *args, **kwargs):
        with self.tracer.span(name):
            return fn(*args, **kwargs)

    def span(self, name, **attrs):
        """A span around a block; spans opened inside it become children."""
        return self.tracer.span(name, **attrs)

    def open(self, name, parent=None, **attrs):
        """A started span; the caller finishes it."""
        return self.tracer.span(name, parent=parent, **attrs).start()

    @property
    def records(self) -> list[dict]:
        return [r for r in self.tracer.records if r["type"] == "span"]

    def export(self, workload: str, seed: int) -> str:
        """Write the spans out; returns the file's path in the checkout."""
        from bench.env import OUT, ROOT

        path = OUT / f"trace-{workload}-seed{seed}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        self.tracer.export(path)
        return str(path.relative_to(ROOT))


def counter_value(name: str) -> int:
    return get_registry().counter(name).value


class ServingProbe:
    """Per-request spans through one serving stack.

    Wraps ``PathQueryService.submit``, ``LabelRepairer.sync`` and
    ``HubLabelIndex.query`` on the given instances.  The service answers
    its pending requests first in, first out, calling ``sync`` and then
    ``query`` once per request, so each wrapped call is matched to its
    request through two FIFOs, and every ``query`` call is checked
    against the request it was matched to.  A request that finishes
    without one of the calls leaves no entry behind.  Spans carry the
    request id, so nothing depends on the ambient trace context (the
    flush runs in a timer callback whose context belongs to the batch's
    first request).
    """

    def __init__(self, recorder: Recorder, stack) -> None:
        self.recorder = recorder
        self.mismatches = 0
        self._inflight: dict[tuple, deque] = {}
        self._sync_fifo: deque = deque()
        self._query_fifo: deque = deque()
        self._stack = stack
        service, repairer, index = stack.service, stack.repairer, stack.index
        submit, sync, query = service.submit, repairer.sync, index.query

        async def traced_submit(req):
            fields = (req.src, req.dst, req.max_hops, req.want_path)
            rid, parent = self._inflight[fields].popleft()
            span = recorder.open("serving.service.submit", parent, request=rid)
            entries = ((self._sync_fifo, (rid, span.context)),
                       (self._query_fifo, (rid, span.context, fields)))
            for fifo, entry in entries:
                fifo.append(entry)
            try:
                return await submit(req)
            finally:
                span.finish()
                for fifo, entry in entries:
                    if entry in fifo:
                        fifo.remove(entry)

        def traced_sync():
            rid, parent = self._sync_fifo.popleft()
            rebuilds = counter_value("serving.repair.scoped_rebuilds")
            span = recorder.open("serving.repair.sync", parent, request=rid)
            try:
                worked = sync()
                if worked:
                    scoped = counter_value("serving.repair.scoped_rebuilds")
                    span.set(repair="rebuild" if scoped > rebuilds else "patch")
                return worked
            finally:
                span.finish()

        def traced_query(src, dst, max_hops=None, *, with_path=False):
            rid, parent, fields = self._query_fifo.popleft()
            if fields != (src, dst, max_hops, with_path):
                self.mismatches += 1
            span = recorder.open("serving.labels.query", parent, request=rid)
            try:
                return query(src, dst, max_hops, with_path=with_path)
            finally:
                span.finish()

        service.submit = traced_submit
        repairer.sync = traced_sync
        index.query = traced_query

    def expect(self, rid: int, query, parent=None) -> None:
        """Announce request ``rid`` before it reaches ``submit``."""
        fields = (query.src, query.dst, query.max_hops, query.want_path)
        self._inflight.setdefault(fields, deque()).append((rid, parent))

    def close(self) -> None:
        """Restore the class methods on the wrapped instances."""
        del self._stack.service.submit
        del self._stack.repairer.sync
        del self._stack.index.query
