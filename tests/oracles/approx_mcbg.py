"""Reference Algorithm 2: the reference BFS plus a per-vertex path walk.

The stitching step walks each pre-broker's parent chain to the root one
vertex at a time and takes the alternate interior vertices of the path.
:func:`repro.core.approx_mcbg.approx_mcbg` must return the identical
``brokers``, ``repair`` and ``root``.
"""

from __future__ import annotations

from repro.core.approx_mcbg import ApproxMCBGResult, repair_budget_split
from repro.core.greedy import lazy_greedy_max_coverage
from repro.graph.asgraph import ASGraph
from tests.oracles.bfs import bfs_parents


def interior_repairs(path: list[int]) -> list[int]:
    """Alternate interior vertices ``path[2], path[4], …`` of ``path``.

    Both endpoints are brokers already; the chosen vertices cover every
    interior edge of the path.
    """
    return [path[i] for i in range(2, len(path) - 1, 2)]


def approx_mcbg(
    graph: ASGraph,
    budget: int,
    *,
    beta: int = 4,
    root_strategy: str = "best",
    mode: str = "paper",
) -> ApproxMCBGResult:
    """Algorithm 2 with the same budget split, roots and tie-break."""
    if mode == "paper":
        x_star = budget
    else:
        x_star, _h = repair_budget_split(budget, beta)
    pre = lazy_greedy_max_coverage(graph, x_star)
    roots = pre if root_strategy == "best" else pre[:1]
    best_repair: set[int] | None = None
    best_root = roots[0]
    pre_set = set(pre)
    for root in roots:
        parent = bfs_parents(graph.adj, root)
        repair: set[int] = set()
        for v in pre:
            if v == root or parent[v] == -1:
                continue
            path = [v]
            while path[-1] != root:
                path.append(int(parent[path[-1]]))
            repair.update(w for w in interior_repairs(path) if w not in pre_set)
        if best_repair is None or len(repair) < len(best_repair):
            best_repair = repair
            best_root = root
    brokers = list(pre) + sorted(best_repair)
    if mode == "strict" and len(brokers) > budget:
        brokers = brokers[:budget]
        best_repair = set(brokers) - pre_set
    return ApproxMCBGResult(
        brokers=brokers,
        pre_selected=list(pre),
        repair=sorted(best_repair),
        root=best_root,
        beta=beta,
        x_star=x_star,
    )
