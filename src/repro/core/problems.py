"""Problem formulations (Problems 1–4) as first-class objects.

The paper defines a family of four problems.  These dataclasses pin down
instances and provide *feasibility checkers* — exact predicates that tests
and solvers use to certify solutions:

* **Problem 1 (PDS)** — decision: is there ``B``, ``|B| <= k``, giving a
  B-dominating path between *every* pair of vertices?
* **Problem 2 (MCBG)** — maximize ``f(B) = |B ∪ N(B)|`` subject to
  ``|B| <= k`` and the dominating-path guarantee among covered pairs.
* **Problem 3 (MCB)** — maximize ``f(B)``, size constraint only.
* **Problem 4** — MCBG plus per-pair path-length parameters, evaluated
  stochastically via Eq. (4) (see :mod:`repro.core.pathlength`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.coverage import covered_mask, coverage_value
from repro.core.domination import dominated_components
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph
from repro.graph.csr import connected_components


def _validate_k(graph: ASGraph, k: int) -> None:
    if k < 1:
        raise AlgorithmError(f"k must be >= 1, got {k}")
    if k > graph.num_nodes:
        raise AlgorithmError(f"k={k} exceeds |V|={graph.num_nodes}")


@dataclass(frozen=True)
class PDSInstance:
    """Problem 1: Path-Dominating Set (decision version)."""

    graph: ASGraph
    k: int

    def __post_init__(self) -> None:
        _validate_k(self.graph, self.k)

    def is_feasible_solution(self, brokers: Sequence[int]) -> bool:
        """Does ``brokers`` give a dominating path between *all* pairs?

        Requires ``|B| <= k``, full coverage (every vertex in ``B ∪ N(B)``)
        and a single dominated-graph component spanning all vertices.
        """
        brokers = list(dict.fromkeys(int(b) for b in brokers))
        if len(brokers) > self.k or not brokers:
            return False
        mask = covered_mask(self.graph, brokers)
        if not mask.all():
            return False
        labels = dominated_components(self.graph, brokers)
        return len(np.unique(labels)) == 1


@dataclass(frozen=True)
class MCBInstance:
    """Problem 3: Maximum Coverage with a broker set (no path constraint)."""

    graph: ASGraph
    k: int

    def __post_init__(self) -> None:
        _validate_k(self.graph, self.k)

    def objective(self, brokers: Sequence[int]) -> int:
        """``f(B) = |B ∪ N(B)|``."""
        return coverage_value(self.graph, list(brokers))

    def is_feasible_solution(self, brokers: Sequence[int]) -> bool:
        unique = set(int(b) for b in brokers)
        return 0 < len(unique) <= self.k


@dataclass(frozen=True)
class MCBGInstance:
    """Problem 2: Maximum Coverage with B-dominating path Guarantees."""

    graph: ASGraph
    k: int

    def __post_init__(self) -> None:
        _validate_k(self.graph, self.k)

    def objective(self, brokers: Sequence[int]) -> int:
        return coverage_value(self.graph, list(brokers))

    def is_feasible_solution(self, brokers: Sequence[int]) -> bool:
        """Size constraint + dominating-path guarantee among covered pairs.

        The guarantee is checked exactly: every covered pair that is
        connected in ``G`` must share a component of the dominated graph.
        Since non-isolated vertices of the dominated graph are exactly the
        covered vertices, this reduces to: all covered vertices belonging
        to one component of ``G`` lie in one dominated component.
        """
        brokers = list(dict.fromkeys(int(b) for b in brokers))
        if not 0 < len(brokers) <= self.k:
            return False
        mask = covered_mask(self.graph, brokers)
        covered = np.flatnonzero(mask)
        if len(covered) <= 1:
            return True
        dom_labels = dominated_components(self.graph, brokers)
        _, full_labels = connected_components(self.graph.adj.to_scipy())
        for comp in np.unique(full_labels[covered]):
            members = covered[full_labels[covered] == comp]
            if len(np.unique(dom_labels[members])) > 1:
                return False
        return True


@dataclass(frozen=True)
class PathLengthConstrainedInstance:
    """Problem 4: MCBG with per-pair path-length parameters.

    ``epsilon`` is the tolerated deviation of the brokered path-length
    distribution from the free distribution (Eq. 4).  Evaluation lives in
    :func:`repro.core.pathlength.evaluate_feasibility`.
    """

    graph: ASGraph
    k: int
    epsilon: float = 0.05
    max_hops: int = 8

    def __post_init__(self) -> None:
        _validate_k(self.graph, self.k)
        if not 0.0 <= self.epsilon <= 1.0:
            raise AlgorithmError(f"epsilon must be in [0, 1], got {self.epsilon}")


def solve_pds_greedy(graph: ASGraph, k: int) -> list[int] | None:
    """Constructive PDS attempt: MaxSG until domination, within budget.

    Returns a certificate broker set or ``None`` when the heuristic cannot
    achieve full domination within ``k`` (the problem is NP-complete, so
    ``None`` does not prove infeasibility — Theorem 1 says the MCBG
    solution is then the best obtainable relaxation).
    """
    from repro.core.maxsg import maxsg

    _validate_k(graph, k)
    brokers = maxsg(graph, k)
    return brokers if PDSInstance(graph, k).is_feasible_solution(brokers) else None

