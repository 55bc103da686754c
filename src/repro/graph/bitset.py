"""Bitset mask primitives and the bit-parallel multi-source BFS kernel.

A *mask* is an arbitrary-precision python ``int`` interpreted as an
``n``-bit vertex set: bit ``v`` set means vertex ``v`` is a member.  The
equivalent *block* form is a little-endian ``uint64`` array of
``num_words(n)`` words — bit ``v`` lives at word ``v >> 6``, position
``v & 63`` — and the two forms round-trip losslessly through
:func:`mask_to_blocks` / :func:`blocks_to_mask`.  Masks make set algebra
(union, intersection, complement, popcount) O(n / 64) machine words
instead of O(n) python objects, which is what lets the coverage and
connectivity kernels treat the full 52,079-node topology as routine.

:func:`bitset_hop_reach` is the library's multi-source BFS: each batch
packs up to ``batch_size`` sources into the *bit columns* of a
``(words, n)`` visited array, so one hop for the whole batch is a gather +
segmented OR over the CSR rows.  Its counts equal a ``sparse @ dense``
reference BFS exactly — the differential suite pins this.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.exceptions import GraphValidationError
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


def popcount(mask: int) -> int:
    """Number of set bits (vertex-set cardinality) of ``mask``."""
    return int(mask).bit_count()


def full_mask(n: int) -> int:
    """The all-vertices mask ``{0, .., n-1}``."""
    return (1 << int(n)) - 1


def mask_from_indices(indices, n: int) -> int:
    """Mask with exactly the bits in ``indices`` set (ids in ``[0, n)``)."""
    return blocks_to_mask(blocks_from_indices(indices, n))


def indices_from_mask(mask: int, n: int) -> np.ndarray:
    """Sorted vertex ids of the set bits of ``mask`` (int64)."""
    blocks = mask_to_blocks(mask, n)
    bits = np.unpackbits(
        blocks.view(np.uint8), bitorder="little", count=int(n)
    )
    return np.flatnonzero(bits).astype(np.int64)


def mask_to_blocks(mask: int, n: int) -> np.ndarray:
    """``mask`` as a little-endian ``uint64`` block array of ``n`` bits."""
    mask = int(mask)
    if mask < 0:
        raise GraphValidationError("negative values are not vertex masks")
    if mask >> int(n):
        raise GraphValidationError(
            f"mask has bits above the universe size {n}"
        )
    words = max(num_words(n), 1)
    raw = mask.to_bytes(words * 8, "little")
    return np.frombuffer(raw, dtype=np.uint64).copy()


def blocks_to_mask(blocks: np.ndarray) -> int:
    """Little-endian ``uint64`` blocks back to one python-int mask."""
    blocks = np.ascontiguousarray(blocks, dtype=np.uint64)
    return int.from_bytes(blocks.tobytes(), "little")


def blocks_from_indices(indices, n: int) -> np.ndarray:
    """Block-form mask with exactly the bits in ``indices`` set."""
    idx = np.asarray(indices, dtype=np.int64)
    if len(idx) and (idx.min() < 0 or idx.max() >= n):
        raise GraphValidationError(f"vertex id out of range [0, {n})")
    blocks = np.zeros(max(num_words(n), 1), dtype=np.uint64)
    np.bitwise_or.at(blocks, idx >> 6, _WORD_ONE << (idx & 63).astype(np.uint64))
    return blocks


def popcount_blocks(blocks: np.ndarray) -> int:
    """Total set bits across a block array (any shape)."""
    return int(_bitwise_count(np.asarray(blocks, dtype=np.uint64)).sum())


def adjacency_masks(src, dst, n: int) -> list[int]:
    """Per-vertex neighbor masks of an undirected edge list.

    ``masks[v]`` has bit ``u`` set iff some edge joins ``u`` and ``v``.
    One BFS level over a frontier mask is then the OR of the frontier
    vertices' masks — the single-source twin of the batched expansion
    inside :func:`bitset_hop_reach`.  The hub-labeling builder runs its
    pruned BFS sweeps over these masks.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if len(src) and (
        min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n
    ):
        raise GraphValidationError(f"vertex id out of range [0, {n})")
    masks = [0] * int(n)
    for u, v in zip(src.tolist(), dst.tolist()):
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def bitset_hop_reach(
    matrix: sparse.csr_matrix,
    sources: np.ndarray,
    max_hops: int,
    *,
    batch_size: int = 512,
    aggregate: bool = False,
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
    """
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    n = matrix.shape[0]
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
        visited[cols >> 6, batch] |= _WORD_ONE << (cols & 63).astype(np.uint64)
        frontier = visited.copy()
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
            if aggregate:
                cur += popcount_blocks(new)
                totals[hop] += cur
            else:
                for w in range(words):
                    row = new[w]
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
