"""Asyncio front end over the hub-label index.

:class:`PathQueryService` turns the microsecond-scale label lookups
into an online query tier.  Every request is answered inline by
:meth:`PathQueryService.resolve`: it syncs the index
(:meth:`LabelRepairer.sync`, a no-op unless the engine mutated), looks
the pair up, and records latency in the process-wide metrics registry:

* ``serving.query.seconds`` — per-query lookup latency;
* ``serving.request.seconds`` — end-to-end (arrival → respond) latency;
* counters ``serving.queries`` / ``serving.errors``.

:meth:`PathQueryService.submit` is the coroutine form asyncio callers
await; it calls :meth:`resolve` and never suspends, so both give the
same answers and a mutation between two requests is seen by the later
one.  Malformed requests (unknown vertices, negative hop bounds,
non-integer ids) resolve to a **structured error response**.

When a tracer is active every request yields a span tree —
``serving.request`` with ``serving.repair.sync`` and ``serving.query``
children plus a ``serving.respond`` event.  When an
:class:`~repro.obs.SloMonitor` is attached, every finished request
feeds its end-to-end latency and success flag into the monitor's
sliding window, which is what the admin channel and the ledger's
``slo`` records report.

``serve_tcp`` exposes the service as a JSON-lines TCP endpoint (one
request object per line, one response object per line) — the ``repro
serve --port`` surface.  Lines starting with ``/`` are **admin verbs**
(``/health``, ``/metrics``, ``/slo``) answered from live telemetry
without touching the query path.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from dataclasses import dataclass

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs.slo import SloMonitor
from repro.obs.tracer import get_tracer
from repro.serving.labels import UNREACHED, HubLabelIndex
from repro.serving.repair import LabelRepairer

__all__ = [
    "PathQueryService",
    "QueryRequest",
    "QueryResponse",
    "admin_response",
    "serve_tcp",
]


@dataclass(frozen=True)
class QueryRequest:
    """One path query as submitted by a client."""

    src: object
    dst: object
    max_hops: object = None
    want_path: bool = False

    @classmethod
    def from_dict(cls, data: dict) -> "QueryRequest":
        return cls(
            src=data.get("src"),
            dst=data.get("dst"),
            max_hops=data.get("max_hops"),
            want_path=bool(data.get("path", False)),
        )


@dataclass(frozen=True)
class QueryResponse:
    """One resolved (or rejected) query.

    ``ok`` distinguishes *answered* from *malformed*: an unreachable
    pair is a successful answer (``ok=True, reachable=False``); a
    request the service could not interpret is ``ok=False`` with a
    structured ``error`` string and no answer fields.
    """

    ok: bool
    src: object = None
    dst: object = None
    reachable: bool | None = None
    distance: int | None = None
    path: list[int] | None = None
    error: str | None = None

    def as_dict(self) -> dict:
        if not self.ok:
            return {"ok": False, "error": self.error,
                    "src": self.src, "dst": self.dst}
        return {
            "ok": True,
            "src": self.src,
            "dst": self.dst,
            "reachable": self.reachable,
            "distance": UNREACHED if self.distance is None else self.distance,
            "path": self.path,
        }


def _validated(req: QueryRequest, n: int) -> tuple[int, int, int | None]:
    """Normalize a request or raise ``ValueError`` with a client message."""
    out = []
    for name, value in (("src", req.src), ("dst", req.dst)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer vertex id, "
                             f"got {value!r}")
        value = int(value)
        if not 0 <= value < n:
            raise ValueError(f"{name}={value} outside the universe [0, {n})")
        out.append(value)
    max_hops = req.max_hops
    if max_hops is not None:
        if isinstance(max_hops, bool) or not isinstance(
            max_hops, (int, np.integer)
        ):
            raise ValueError(
                f"max_hops must be an integer or null, got {max_hops!r}"
            )
        max_hops = int(max_hops)
        if max_hops < 0:
            raise ValueError(f"max_hops must be >= 0, got {max_hops}")
    return out[0], out[1], max_hops


class PathQueryService:
    """Query serving over one repairer-backed label index."""

    def __init__(
        self,
        repairer: LabelRepairer | HubLabelIndex,
        *,
        slo_monitor: SloMonitor | None = None,
    ) -> None:
        if isinstance(repairer, HubLabelIndex):
            self._repairer = None
            self._index = repairer
        else:
            self._repairer = repairer
            self._index = repairer.index
        self.slo = slo_monitor
        self._started = time.monotonic()

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    def resolve(self, req: QueryRequest) -> QueryResponse:
        """Answer one request synchronously.

        Never raises for malformed input — that comes back as a
        structured error response.
        """
        tracer = get_tracer()
        arrived = time.perf_counter()
        with tracer.span("serving.request") as req_span:
            if self._repairer is not None:
                with tracer.span("serving.repair.sync"):
                    self._repairer.sync()
            started = time.perf_counter()
            try:
                src, dst, max_hops = _validated(req, self._index.n)
            except ValueError as exc:
                _metrics.add_counter("serving.errors")
                response = QueryResponse(ok=False, src=req.src, dst=req.dst,
                                         error=str(exc))
            else:
                with tracer.span("serving.query"):
                    answer = self._index.query(
                        src, dst, max_hops, with_path=req.want_path
                    )
                _metrics.observe(
                    "serving.query.seconds", time.perf_counter() - started
                )
                _metrics.add_counter("serving.queries")
                response = QueryResponse(
                    ok=True,
                    src=src,
                    dst=dst,
                    reachable=answer.reachable,
                    distance=answer.distance,
                    path=answer.path,
                )
            latency = time.perf_counter() - arrived
            _metrics.observe("serving.request.seconds", latency)
            if self.slo is not None:
                self.slo.observe(latency, ok=response.ok)
            if tracer.enabled:
                tracer.event(
                    "serving.respond",
                    parent=req_span.context,
                    ok=response.ok,
                )
                req_span.set(ok=response.ok)
        return response

    async def submit(self, req: QueryRequest) -> QueryResponse:
        """Answer one request from a coroutine; never suspends."""
        return self.resolve(req)


# ----------------------------------------------------------------------
# JSON-lines TCP endpoint + admin channel
# ----------------------------------------------------------------------

ADMIN_VERBS = ("/health", "/metrics", "/slo")


def admin_response(service: PathQueryService, verb: str) -> dict:
    """Answer one admin verb from live telemetry (JSON-safe).

    * ``/health`` — liveness + uptime + breach count: ``status`` is
      ``"ok"`` until any attached SLO is burning over its alert rate,
      then ``"breached"``.
    * ``/metrics`` — the process-wide registry snapshot plus the rolling
      window stats (when a monitor is attached).
    * ``/slo`` — the full :meth:`SloMonitor.snapshot`: rolling window,
      lifetime counts, and one verdict per SLO spec with its burn rate.
    """
    verb = verb.strip()
    if verb == "/health":
        breaches = len(service.slo.breaches()) if service.slo else 0
        return {
            "ok": True,
            "status": "breached" if breaches else "ok",
            "uptime_s": service.uptime_s,
            "slo_breaches": breaches,
        }
    if verb == "/metrics":
        payload = {
            "ok": True,
            "metrics": _metrics.get_registry().snapshot(),
        }
        if service.slo is not None:
            payload["window"] = service.slo.window.snapshot()
        return payload
    if verb == "/slo":
        if service.slo is None:
            return {"ok": False, "error": "no SLO monitor attached"}
        return {"ok": True, **service.slo.snapshot()}
    return {
        "ok": False,
        "error": f"unknown admin verb {verb!r}; try {', '.join(ADMIN_VERBS)}",
    }


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next line (``b""`` at EOF), or ``None`` if it overran the limit.

    An overlong line is consumed through its newline, so the line after
    it is framed correctly.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


async def _answer(service: PathQueryService, line: bytes | None) -> dict:
    """The JSON-safe reply to one request line; never raises."""
    if line is None:
        error = "line too long"
    elif line.lstrip().startswith(b"/"):
        return admin_response(service, line.decode("utf-8", "replace"))
    else:
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                raise ValueError("request must be a JSON object")
            request = QueryRequest.from_dict(data)
        except (ValueError, RecursionError) as exc:
            error = str(exc)
        else:
            return (await service.submit(request)).as_dict()
    _metrics.add_counter("serving.errors")
    return QueryResponse(ok=False, error=error).as_dict()


async def _serve_connection(
    service: PathQueryService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Reply to every line of one connection until EOF or a client reset."""
    try:
        while (line := await _read_line(reader)) != b"":
            payload = await _answer(service, line)
            writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
    except ConnectionError:
        pass  # the client went away; nobody is left to answer
    finally:
        writer.close()


async def serve_tcp(
    service: PathQueryService, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Start a JSON-lines TCP endpoint over ``service``.

    Each request line is a JSON object (``{"src": .., "dst": ..,
    "max_hops": .., "path": bool}``); each response line is
    :meth:`QueryResponse.as_dict`.  Every line gets exactly one reply:
    a line that is not UTF-8 JSON, or is longer than the stream limit
    (64 KiB), gets a structured error and the connection stays up.
    Lines starting with ``/`` are admin verbs (see
    :func:`admin_response`).  Returns the ``asyncio`` server (caller
    owns its lifetime).
    """
    return await asyncio.start_server(
        functools.partial(_serve_connection, service), host, port
    )
