"""The coverage set function ``f(B) = |B ∪ N(B)|``.

Every selection algorithm in the paper optimizes (or is evaluated by) this
function: a vertex is *covered* by a broker set ``B`` when it is a broker
or adjacent to one, i.e., it can reach the brokerage with a first-hop SLA.
``f`` is monotone and submodular (Lemma 3), which is what buys Algorithm
1's ``(1 - 1/e)`` guarantee.

The functions here evaluate ``f`` once for an arbitrary broker
collection: experiments report them, and tests use them as from-scratch
references.  The
incremental access pattern the selection loops need — O(deg(v))
marginal-gain queries and O(deg(v)) updates — is
:class:`repro.core.engine.DominationEngine`'s ``marginal_gain`` and
``add_broker``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.obs import add_counter


def coverage_value(graph: ASGraph, brokers: Iterable[int]) -> int:
    """One-shot ``f(B)`` for an arbitrary broker collection."""
    add_counter("kernel.coverage.value_calls")
    covered = covered_mask(graph, brokers)
    return int(np.count_nonzero(covered))


def covered_mask(graph: ASGraph, brokers: Iterable[int]) -> np.ndarray:
    """Boolean indicator of ``B ∪ N(B)``."""
    covered = np.zeros(graph.num_nodes, dtype=bool)
    for v in brokers:
        if not 0 <= v < graph.num_nodes:
            raise AlgorithmError(f"broker id {v} out of range")
        covered[v] = True
        covered[graph.neighbors(v)] = True
    return covered


def coverage_fraction(graph: ASGraph, brokers: Iterable[int]) -> float:
    """``f(B) / |V|`` for an arbitrary broker collection."""
    n = graph.num_nodes
    return coverage_value(graph, brokers) / n if n else 0.0
