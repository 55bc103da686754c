"""The bit-parallel multi-source BFS kernel and its word helpers.

A vertex set over ``n`` vertices is held in *block* form: a
little-endian ``uint64`` array of ``num_words(n)`` words, bit ``v`` at
word ``v >> 6``, position ``v & 63``.  Set algebra and counting then
cost O(n / 64) machine words instead of O(n) python objects.

:func:`bitset_hop_reach` is the library's multi-source BFS: each batch
packs up to ``batch_size`` sources into the *bit columns* of a
``(words, n)`` visited array, so one hop for the whole batch is a gather +
segmented OR over the CSR rows.  Its counts equal a ``sparse @ dense``
reference BFS exactly — the differential suite pins this.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.obs import metrics as _metrics

#: Bits per block word.
WORD_BITS = 64

_WORD_ONE = np.uint64(1)
_WORD_ZERO = np.uint64(0)

if hasattr(np, "bitwise_count"):
    _bitwise_count = np.bitwise_count
else:  # pragma: no cover - numpy < 2.0 fallback
    _POPCOUNT8 = np.array(
        [bin(i).count("1") for i in range(256)], dtype=np.uint8
    )

    def _bitwise_count(blocks: np.ndarray) -> np.ndarray:
        return _POPCOUNT8[blocks.view(np.uint8)]

#: Elementwise per-word popcount over a uint64 block array.
bitwise_count = _bitwise_count


def num_words(n: int) -> int:
    """Block words needed to hold an ``n``-bit mask."""
    return (int(n) + WORD_BITS - 1) >> 6


def popcount_blocks(blocks: np.ndarray) -> int:
    """Total set bits across a block array (any shape)."""
    return int(_bitwise_count(np.asarray(blocks, dtype=np.uint64)).sum())


def bitset_hop_reach(
    matrix: sparse.csr_matrix,
    sources: np.ndarray,
    max_hops: int,
    *,
    batch_size: int = 512,
    aggregate: bool = False,
    states: int = 1,
) -> np.ndarray:
    """Count vertices reachable within ``1..max_hops`` hops of each source.

    Returns an array of shape ``(len(sources), max_hops)`` where entry
    ``[i, l-1]`` is the number of vertices (excluding the source itself)
    whose hop distance from ``sources[i]`` is **at most** ``l``.
    ``matrix`` may be asymmetric (directed policies); ``matrix[u, v] !=
    0`` means ``u -> v`` is traversable.  The BFS runs with one bit
    column per source: a hop for a whole batch is a per-word gather +
    segmented OR over the transposed CSR rows, and new vertices are
    counted with hardware popcounts.

    ``aggregate=True`` returns only the per-hop *totals* — shape
    ``(max_hops,)``, equal to ``counts.sum(axis=0)`` — skipping the
    per-source bit unpacking entirely.  That is the fast path the
    connectivity curve uses: its fractions only ever divide the summed
    counts.

    ``states > 1`` runs the BFS on a product graph of (vertex, state):
    ``matrix`` is ``(states * n, states * n)``, vertex ``v`` in state
    ``s`` is id ``s * n + v``, and ``sources`` are product ids.  Each
    hop's new bits are folded onto the ``n`` base vertices, so a vertex
    counts once, when any state first reaches it, and a source's own
    vertex never counts.  The routing policies run this way.
    """
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    if states < 1 or matrix.shape[0] % states:
        raise ValueError(
            f"states={states} does not divide the matrix shape {matrix.shape}"
        )
    n = matrix.shape[0]
    base = n // states
    sources = np.asarray(sources, dtype=np.int64)
    _metrics.add_counter("kernel.batched_bfs.runs")
    _metrics.add_counter("kernel.batched_bfs.sources", len(sources))
    # Propagate along in-edges of the reach relation (``A^T @ X``):
    # matrix[u, v] != 0 means u -> v.
    mat_t = matrix.T.tocsr()
    indptr = mat_t.indptr.astype(np.int64)
    indices = mat_t.indices.astype(np.int64)
    m = len(indices)
    deg0 = np.diff(indptr) == 0
    # ``reduceat`` segments end at the *next* start, and empty segments
    # have no identity (the element at the start index comes back).  A
    # one-zero pad keeps every ``indptr`` value — including trailing
    # ``m`` entries for degree-0 vertices — a valid start without
    # truncating the preceding segment; degree-0 rows are zeroed after.
    starts = indptr[:-1]
    totals = np.zeros(max_hops, dtype=np.int64)
    counts = (
        None if aggregate else np.zeros((len(sources), max_hops), dtype=np.int64)
    )
    for s0 in range(0, len(sources), batch_size):
        batch = sources[s0 : s0 + batch_size]
        b = len(batch)
        words = num_words(b)
        # visited[w, v]: bit j set <=> source (w * 64 + j) has reached v.
        visited = np.zeros((words, n), dtype=np.uint64)
        cols = np.arange(b)
        source_bits = _WORD_ONE << (cols & 63).astype(np.uint64)
        # ``ufunc.at``, not ``a[idx] |= bits``: the buffered form keeps
        # one bit per repeated (word, vertex), and two sources may share
        # a vertex (a repeated source, or one vertex in two states).
        np.bitwise_or.at(visited, (cols >> 6, batch), source_bits)
        frontier = visited.copy()
        if states > 1:
            # seen[w, v]: bit j set <=> source j has reached base vertex v.
            seen = np.zeros((words, base), dtype=np.uint64)
            np.bitwise_or.at(seen, (cols >> 6, batch % base), source_bits)
        contrib = np.empty((words, n), dtype=np.uint64)
        gathered = np.zeros(m + 1, dtype=np.uint64)
        cur = 0  # batch total of per-source reach counts so far
        level = None if aggregate else np.zeros(b, dtype=np.int64)
        for hop in range(max_hops):
            if not frontier.any():
                # Saturated: remaining hop columns repeat the last count.
                if aggregate:
                    totals[hop:] += cur
                else:
                    counts[s0 : s0 + b, hop:] = counts[
                        s0 : s0 + b, hop - 1 : hop
                    ]
                break
            if m:
                for w in range(words):
                    gathered[:m] = frontier[w][indices]
                    contrib[w] = np.bitwise_or.reduceat(gathered, starts)
                contrib[:, deg0] = _WORD_ZERO
            else:
                contrib[:] = _WORD_ZERO
            new = contrib & ~visited
            visited |= new
            reached = new
            if states > 1:
                reached = np.bitwise_or.reduce(
                    new.reshape(words, states, base), axis=1
                )
                reached &= ~seen
                seen |= reached
            if aggregate:
                cur += popcount_blocks(reached)
                totals[hop] += cur
            else:
                for w in range(words):
                    row = reached[w]
                    nz = np.flatnonzero(row)
                    if len(nz):
                        bits = np.unpackbits(
                            row[nz].view(np.uint8).reshape(len(nz), 8),
                            axis=1,
                            bitorder="little",
                        )
                        lo, hi = w * WORD_BITS, min(w * WORD_BITS + WORD_BITS, b)
                        level[lo:hi] += bits.sum(axis=0, dtype=np.int64)[: hi - lo]
                counts[s0 : s0 + b, hop] = level
            frontier = new
    return totals if aggregate else counts
