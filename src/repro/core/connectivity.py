"""l-hop E2E connectivity — the paper's evaluation metric (Section 5.2).

For a broker set ``B`` the *l-hop E2E connectivity* is the fraction of all
ordered source/destination pairs ``(u, v)``, ``u != v``, joined by a
B-dominated path of at most ``l`` hops; the *saturated* connectivity is its
limit as ``l`` grows (i.e., plain reachability inside the dominated graph).
The free-path curve of the underlying topology (``B = V``) is obtained by
passing ``brokers=None``.

Exact computation is one BFS per vertex; the bit-parallel kernel
(:func:`repro.graph.bitset.bitset_hop_reach`) runs 512 sources per batch
in the bit columns of a block array and counts each hop with popcounts.
Uniform source sampling has identical semantics for the larger scales.
Saturated connectivity is always exact (connected components).

Both evaluate a fixed broker set once; as brokers come and go one at a
time, :class:`repro.core.engine.DominationEngine` tracks saturated
connectivity instead.  The l-hop curve is what the engine cannot answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.domination import dominated_adjacency
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.graph.bitset import bitset_hop_reach
from repro.graph.csr import connected_pair_fraction
from repro.obs import profiled
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class ConnectivityCurve:
    """E2E connectivity as a function of the hop bound ``l``.

    ``fractions[l - 1]`` is the connectivity at hop bound ``l`` for
    ``l = 1..max_hops``; ``saturated`` is the exact large-``l`` limit.
    ``num_sources`` records the sample size (``n`` means exact).
    """

    fractions: np.ndarray
    saturated: float
    max_hops: int
    num_sources: int
    exact: bool

    def at(self, hops: int) -> float:
        """Connectivity at hop bound ``hops`` (clamped to the curve)."""
        if hops < 1:
            return 0.0
        idx = min(hops, self.max_hops) - 1
        return float(self.fractions[idx])

    def as_rows(self) -> list[tuple[int, float]]:
        """(l, connectivity) rows for table rendering."""
        rows = [(l + 1, float(f)) for l, f in enumerate(self.fractions)]
        rows.append((-1, self.saturated))  # -1 denotes "saturated"
        return rows


def _effective_matrix(
    graph: ASGraph, brokers: np.ndarray | list[int] | None
) -> sparse.csr_matrix:
    if brokers is None:
        return graph.adj.to_scipy()
    return dominated_adjacency(graph, brokers).to_scipy()


@profiled("kernel.saturated_connectivity")
def saturated_connectivity(
    graph: ASGraph,
    brokers: np.ndarray | list[int] | None = None,
    *,
    matrix: sparse.csr_matrix | None = None,
) -> float:
    """Exact saturated E2E connectivity of the (dominated) graph.

    Computed from connected-component sizes
    (:func:`repro.graph.csr.connected_pair_fraction`): a fraction
    ``sum_C |C|(|C|-1) / (n(n-1))`` of ordered pairs are mutually
    reachable.  ``matrix`` short-circuits the dominated-graph build when
    the caller already has it.
    """
    mat = matrix if matrix is not None else _effective_matrix(graph, brokers)
    return connected_pair_fraction(mat)


@profiled("kernel.connectivity_curve")
def connectivity_curve(
    graph: ASGraph,
    brokers: np.ndarray | list[int] | None = None,
    *,
    max_hops: int = 8,
    num_sources: int | None = None,
    seed: SeedLike = 0,
) -> ConnectivityCurve:
    """Compute the l-hop E2E connectivity curve for ``brokers``.

    Parameters
    ----------
    brokers:
        Broker ids (or boolean mask); ``None`` evaluates the free topology
        (every edge usable), which is the "ASesWithIXPs" reference curve.
    max_hops:
        Largest hop bound evaluated exactly.
    num_sources:
        ``None`` = every vertex (exact).  Otherwise BFS sources are drawn
        uniformly without replacement and the pair fractions are unbiased
        estimates (each source contributes its exact reach counts); at
        least one source is required.

    The per-hop totals are integer sums, so the fractions are exact
    whatever the batching.  Saturated connectivity goes through SciPy's
    connected components.
    """
    n = graph.num_nodes
    if n < 2:
        raise AlgorithmError("connectivity requires at least two vertices")
    if max_hops < 1:
        raise AlgorithmError(f"max_hops must be >= 1, got {max_hops}")
    if num_sources is not None and num_sources < 1:
        raise AlgorithmError(f"num_sources must be >= 1, got {num_sources}")
    mat = _effective_matrix(graph, brokers)
    if num_sources is None or num_sources >= n:
        sources = np.arange(n)
        exact = True
    else:
        rng = ensure_rng(seed)
        sources = rng.choice(n, size=num_sources, replace=False)
        exact = False
    totals = bitset_hop_reach(mat, sources, max_hops, aggregate=True)
    per_level = totals / (len(sources) * (n - 1))
    return ConnectivityCurve(
        fractions=per_level.astype(np.float64),
        saturated=saturated_connectivity(graph, brokers, matrix=mat),
        max_hops=max_hops,
        num_sources=len(sources),
        exact=exact,
    )


def path_inflation(
    free_curve: ConnectivityCurve, broker_curve: ConnectivityCurve
) -> np.ndarray:
    """Per-hop connectivity loss of brokered routing vs free routing.

    ``inflation[l-1] = free(l) − brokered(l)``; values near zero mean the
    broker set adds (almost) no path inflation (Table 4's observation for
    the 3,540-alliance).
    """
    hops = min(free_curve.max_hops, broker_curve.max_hops)
    return free_curve.fractions[:hops] - broker_curve.fractions[:hops]

