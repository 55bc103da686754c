"""Algorithm 2 — approximation algorithm for MCBG on an (α, β)-graph.

The broker budget ``k`` is split in two:

* ``B^p`` — ``x*`` brokers pre-selected by greedy maximum coverage
  (Algorithm 1), where ``x* = ⌊(k + h − 1) / h⌋`` with ``h = ⌈β/2⌉`` is
  the largest integer satisfying ``x* + (x* − 1)(h − 1) <= k``;
* ``B^r`` — repair brokers added along shortest paths from every other
  pre-selected broker to a chosen *root* broker, taking alternate interior
  vertices so each stitched path becomes ``(B^p ∪ B^r)``-dominated.  Every
  root in ``B^p`` is tried and the one minimizing ``|B^r|`` wins (the
  ``min`` in lines 8–10 of the paper's pseudocode).

On a (0.99, 4)-graph this yields the paper's constant-factor guarantee
``(1 − 1/e)/θ`` against the optimal MCBG solution (Theorem 3).

Complexity: greedy pre-selection ``O(x*(|V| + |E|))`` (lazy variant much
faster in practice) plus, per candidate root, one BFS (SciPy's C search)
and one vectorized walk that moves every pre-broker a parent step at a
time — ``O(x*(|V| + |E|) + x*² L)`` for unweighted graphs with ``L`` the
longest stitched path, matching the paper's
``O(k²(|V| log |V| + |E|))`` bound which assumed Dijkstra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.greedy import lazy_greedy_max_coverage
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.graph.csr import bfs_parents
from repro.obs import add_counter, get_tracer, observe, profiled


def repair_budget_split(budget: int, beta: int) -> tuple[int, int]:
    """Compute ``(x*, h)`` for Algorithm 2's budget split.

    ``h = ⌈β/2⌉`` is the worst-case number of extra brokers needed per
    stitched pre-broker (one endpoint plus alternate interior vertices of a
    ≤ β-hop path); ``x*`` is the largest pre-selection size such that
    ``x* + (x* − 1)(h − 1) <= budget``.
    """
    if budget < 1:
        raise AlgorithmError(f"budget must be >= 1, got {budget}")
    if beta < 1:
        raise AlgorithmError(f"beta must be >= 1, got {beta}")
    h = math.ceil(beta / 2)
    x_star = (budget + h - 1) // h
    x_star = max(min(x_star, budget), 1)
    return x_star, h


@dataclass(frozen=True)
class ApproxMCBGResult:
    """Output of Algorithm 2 with its internal decomposition exposed."""

    brokers: list[int]
    pre_selected: list[int]
    repair: list[int]
    root: int
    beta: int
    x_star: int

    @property
    def size(self) -> int:
        return len(self.brokers)


@profiled("kernel.approx_mcbg")
def approx_mcbg(
    graph: ASGraph,
    budget: int,
    *,
    beta: int = 4,
    root_strategy: str = "best",
    mode: str = "paper",
) -> ApproxMCBGResult:
    """Run Algorithm 2.

    Parameters
    ----------
    beta:
        The (α, β)-graph hop bound; 4 for AS-level Internet topologies
        (Definition 2 / Corollary 1).  Use
        :func:`repro.graph.paths.estimate_alpha_beta` to measure it.
    root_strategy:
        ``"best"`` evaluates every pre-selected broker as root and keeps
        the smallest repair set (the paper's loop); ``"first"`` uses the
        first pre-selected broker only (ablation A-root — one BFS instead
        of ``x*``).
    mode:
        ``"paper"`` treats ``budget`` as the pre-selection size and adds
        repair brokers on top — this is how the paper's evaluation reports
        its approximation sets (e.g. 1,000 pre-brokers growing to 1,064
        with repairs).  ``"strict"`` enforces ``|B| <= budget`` by
        splitting the budget into ``x*`` pre-brokers plus a repair reserve
        (the Theorem 3 analysis), trimming if repairs overflow.

    Notes
    -----
    Shortest paths between pre-brokers can exceed ``β`` (probability
    ≤ 1 − α per pair); repairs are still added along the whole path so the
    returned set always provides dominating paths among all pre-brokers in
    the same component.
    """
    if root_strategy not in ("best", "first"):
        raise AlgorithmError(f"unknown root strategy {root_strategy!r}")
    if mode not in ("paper", "strict"):
        raise AlgorithmError(f"unknown mode {mode!r}")
    if mode == "paper":
        x_star = budget
    else:
        x_star, _h = repair_budget_split(budget, beta)
    tracer = get_tracer()
    with tracer.span("approx_mcbg.preselect", x_star=x_star):
        pre = lazy_greedy_max_coverage(graph, x_star)
    if not pre:
        raise AlgorithmError("greedy pre-selection returned no brokers")

    roots = pre if root_strategy == "best" else pre[:1]
    best_repair: np.ndarray | None = None
    best_root = roots[0]
    pre_ids = np.asarray(pre, dtype=np.int64)
    is_pre = np.zeros(graph.num_nodes, dtype=bool)
    is_pre[pre_ids] = True
    for root in roots:
        with tracer.span("approx_mcbg.stitch", root=root) as span:
            parent = bfs_parents(graph.adj, root)
            # Walk every pre-broker's shortest path to the root at once
            # (other components have no path to stitch).  The interior
            # vertices at even depth, ``path[2], path[4], …``, dominate
            # each path: at most ``⌈β/2⌉ − 1`` of them when ``L <= β``.
            walk = pre_ids[(pre_ids != root) & (parent[pre_ids] != -1)]
            interior = []
            depth = 0
            while len(walk):
                walk = parent[walk]
                walk = walk[walk != root]
                depth += 1
                if depth % 2 == 0:
                    interior.append(walk)
            stops = np.concatenate(interior) if interior else pre_ids[:0]
            repair = np.unique(stops[~is_pre[stops]])
            span.set(repair_size=len(repair))
        if best_repair is None or len(repair) < len(best_repair):
            best_repair = repair
            best_root = root
    assert best_repair is not None
    add_counter("kernel.approx_mcbg.roots_tried", len(roots))
    observe("kernel.approx_mcbg.repair_size", len(best_repair))

    repair = best_repair.tolist()
    brokers = list(pre) + repair
    if mode == "strict" and len(brokers) > budget:
        # Trim repairs beyond the budget (rare: only when many pre-broker
        # pairs exceed beta hops). Pre-selected brokers are kept — they
        # carry the coverage guarantee.
        brokers = brokers[:budget]
        repair = brokers[len(pre):]
    return ApproxMCBGResult(
        brokers=brokers,
        pre_selected=list(pre),
        repair=repair,
        root=best_root,
        beta=beta,
        x_star=x_star,
    )
