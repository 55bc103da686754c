"""Seeded workload inputs.

Every generator draws from its own stream of ``numpy``'s generator keyed
by ``(seed, stream)``, so one seed fixes every input and adding a draw to
one generator leaves the others unchanged.  The program receives only
what these functions return.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Independent generator streams under one seed.
QUERIES, MUTATIONS, CELL_ORDER, FLOWS, SAMPLES = range(1, 6)

#: Share of path queries sent without a hop bound.
UNBOUNDED_SHARE = 0.25
#: Hop bounds are drawn uniformly from ``1..MAX_HOP_BOUND``.
MAX_HOP_BOUND = 8
#: Share of path queries that ask for the path itself.
PATH_SHARE = 0.10


def rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *stream])


@dataclass(frozen=True)
class Query:
    src: int
    dst: int
    max_hops: int | None
    want_path: bool

    def as_request(self) -> dict:
        """The JSON-lines request object ``serve_tcp`` reads."""
        return {"src": self.src, "dst": self.dst,
                "max_hops": self.max_hops, "path": self.want_path}

    def line(self) -> bytes:
        """The request as one JSON line."""
        return (json.dumps(self.as_request()) + "\n").encode()


@dataclass(frozen=True)
class QueryStream:
    """Path queries held as arrays; ``stream[i]`` builds query ``i``.

    Arrays keep the stream a few hundred KiB, so the benchmark's own
    memory stays small beside the program's in ``peak_rss_mb``.
    """

    src: np.ndarray
    dst: np.ndarray
    #: Hop bound, 0 for none.
    max_hops: np.ndarray
    want_path: np.ndarray

    def __len__(self) -> int:
        return len(self.src)

    def __getitem__(self, i: int) -> Query:
        return Query(int(self.src[i]), int(self.dst[i]),
                     int(self.max_hops[i]) or None, bool(self.want_path[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def query_stream(num_vertices: int, count: int, seed: int) -> QueryStream:
    """``count`` path queries over uniformly drawn vertex pairs."""
    g = rng(seed, QUERIES)
    src = g.integers(0, num_vertices, size=count).astype(np.int32)
    dst = g.integers(0, num_vertices, size=count).astype(np.int32)
    unbounded = g.random(count) < UNBOUNDED_SHARE
    bound = g.integers(1, MAX_HOP_BOUND + 1, size=count).astype(np.int8)
    want_path = g.random(count) < PATH_SHARE
    return QueryStream(src, dst, np.where(unbounded, 0, bound).astype(np.int8),
                       want_path)


@dataclass(frozen=True)
class Break:
    """One topology break; its heal is the inverse engine call."""

    kind: str  # "link" | "node"
    vertices: tuple[int, ...]

    def apply(self, engine) -> bool:
        if self.kind == "link":
            return engine.cut_link(*self.vertices)
        return engine.fail_node(*self.vertices)

    def heal(self, engine) -> bool:
        if self.kind == "link":
            return engine.restore_link(*self.vertices)
        return engine.restore_node(*self.vertices)


def break_plan(engine, count: int, seed: int) -> list[Break]:
    """``count`` breaks alternating link flaps and node outages.

    Links are dominated edges; nodes are non-broker vertices with at
    least one dominated edge.  Both are drawn from the engine's state at
    call time, which is the state before every break because each break
    is healed before the next one.
    """
    src, dst = engine.dominated_alive_edges()
    brokers = engine.broker_view
    ends = np.unique(np.concatenate([src, dst]))
    outage_candidates = ends[~brokers[ends]]
    g = rng(seed, MUTATIONS)
    plan = []
    for i in range(count):
        if i % 2 == 0:
            e = int(g.integers(len(src)))
            plan.append(Break("link", (int(src[e]), int(dst[e]))))
        else:
            v = int(outage_candidates[g.integers(len(outage_candidates))])
            plan.append(Break("node", (v,)))
    return plan


def cell_order(num_cells: int, seed: int, roster: int) -> list[int]:
    """Seeded order of one roster's cells."""
    return rng(seed, CELL_ORDER, roster).permutation(num_cells).tolist()


def flow_batch(num_paths: int, size: int, demand_classes, seed: int,
               rung: int, ladder: int) -> tuple[np.ndarray, np.ndarray]:
    """``size`` flows: a pooled path and a demand class each, uniformly.

    Every ``(rung, ladder)`` gets its own draw.
    """
    g = rng(seed, FLOWS, rung, ladder)
    paths = g.integers(0, num_paths, size=size).astype(np.int64)
    demands = np.asarray(demand_classes, dtype=np.float64)[
        g.integers(0, len(demand_classes), size=size)
    ]
    return paths, demands


def sample_indices(count: int, k: int, seed: int, tag: int) -> list[int]:
    """Seeded sample of ``min(k, count)`` distinct indices, sorted."""
    g = rng(seed, SAMPLES, tag)
    return sorted(g.choice(count, size=min(k, count), replace=False).tolist())
