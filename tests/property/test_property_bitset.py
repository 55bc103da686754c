"""Property-based tests (hypothesis) for the bitset word helpers.

The bit-parallel BFS kernel holds vertex sets as little-endian ``uint64``
block arrays and counts them with hardware popcounts.  These properties
pin the counting: block popcounts agree with ``bin(mask).count("1")`` of
the equivalent python int, per word and in total.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.bitset import (
    WORD_BITS,
    bitwise_count,
    num_words,
    popcount_blocks,
)


@st.composite
def universes(draw, max_bits=500):
    """A universe size and a random mask inside it."""
    n = draw(st.integers(1, max_bits))
    mask = draw(st.integers(0, (1 << n) - 1))
    return n, mask


def _blocks(mask: int, n: int) -> np.ndarray:
    """``mask`` as the kernel's little-endian ``uint64`` block array."""
    raw = mask.to_bytes(max(num_words(n), 1) * 8, "little")
    return np.frombuffer(raw, dtype=np.uint64)


class TestPopcount:
    @given(universes())
    @settings(max_examples=200, deadline=None)
    def test_popcount_matches_bin_count(self, universe):
        n, mask = universe
        assert popcount_blocks(_blocks(mask, n)) == bin(mask).count("1")

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_count_per_word(self, words):
        blocks = np.array(words, dtype=np.uint64)
        per_word = bitwise_count(blocks)
        assert int(per_word.sum()) == sum(bin(w).count("1") for w in words)

    @given(universes(max_bits=300), universes(max_bits=300))
    @settings(max_examples=150, deadline=None)
    def test_popcount_inclusion_exclusion(self, a, b):
        """|A| + |B| = |A∪B| + |A∩B| over block arrays."""
        n = max(a[0], b[0])
        x, y = a[1], b[1]
        bx, by = _blocks(x, n), _blocks(y, n)
        assert popcount_blocks(bx) + popcount_blocks(by) == (
            popcount_blocks(bx | by) + popcount_blocks(bx & by)
        )
        assert popcount_blocks(bx | by) == bin(x | y).count("1")
        assert popcount_blocks(bx & by) == bin(x & y).count("1")

    def test_word_bits_constant(self):
        assert WORD_BITS == 64
        assert num_words(1) == 1
        assert num_words(64) == 1
        assert num_words(65) == 2
