"""Central algorithm registry.

Every selection algorithm registers here exactly once with its name,
capability tags, and declared parameter schema.  Downstream consumers —
:class:`repro.core.selector.BrokerSelector`, the ``repro`` CLI, the
experiment sweeps, the result-cache keys and the ledger records — all
resolve algorithms through this table instead of keeping their own
``if algo == ...`` ladders, so adding an algorithm is a single
registration and every layer picks it up.

A runner has the uniform signature ``run(graph, budget, **params)`` and
returns ``(brokers, extra_params)`` where ``extra_params`` are
result-derived values (e.g. the MCBG approximation's ``x_star`` and
chosen root) that belong in :class:`SelectionResult.parameters`
alongside the declared knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core import baselines
from repro.core.approx_mcbg import approx_mcbg
from repro.core.greedy import lazy_greedy_max_coverage
from repro.core.maxsg import maxsg
from repro.exceptions import AlgorithmError
from repro.graph.asgraph import ASGraph

__all__ = [
    "AlgorithmSpec",
    "ParamSpec",
    "algorithm_names",
    "all_specs",
    "canonical_params",
    "get_algorithm",
    "register_algorithm",
    "registry_fingerprint",
    "resolve_backend",
    "run_algorithm",
]


@dataclass(frozen=True)
class ParamSpec:
    """One declared algorithm knob."""

    name: str
    kind: str
    default: object = None
    summary: str = ""


@dataclass(frozen=True)
class AlgorithmSpec:
    """A registered selection algorithm."""

    name: str
    summary: str
    budgeted: bool
    capabilities: tuple[str, ...]
    params: tuple[ParamSpec, ...] = ()
    runner: Callable | None = field(default=None, repr=False)

    def describe(self) -> dict:
        """JSON-safe description (what ``repro algorithms --json`` emits)."""
        return {
            "name": self.name,
            "summary": self.summary,
            "budgeted": self.budgeted,
            "capabilities": list(self.capabilities),
            "params": [
                {
                    "name": p.name,
                    "kind": p.kind,
                    "default": p.default,
                    "summary": p.summary,
                }
                for p in self.params
            ],
        }


_REGISTRY: dict[str, AlgorithmSpec] = {}


def resolve_backend(_requested: str | None = None) -> str:
    """The name of the kernel implementation, which is always ``"python"``.

    Every algorithm has exactly one implementation.  The only caller is
    the benchmark harness (``perfbench/bench/env.py``), which records
    this name in each run's provenance; the argument it passes is
    ignored.
    """
    return "python"


def register_algorithm(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Register ``spec``; duplicate names are an error."""
    if spec.name in _REGISTRY:
        raise AlgorithmError(f"algorithm {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_algorithm(name: str) -> AlgorithmSpec:
    """Look up a registered algorithm by name."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise AlgorithmError(
            f"unknown algorithm {name!r}; choose from {algorithm_names()}"
        )
    return spec


def all_specs() -> tuple[AlgorithmSpec, ...]:
    """All registered algorithms in registration order."""
    return tuple(_REGISTRY.values())


def algorithm_names(*, budgeted: bool | None = None) -> tuple[str, ...]:
    """Registered names, optionally filtered by budgetedness."""
    return tuple(
        spec.name
        for spec in _REGISTRY.values()
        if budgeted is None or spec.budgeted == budgeted
    )


def canonical_params(name: str, params: dict | None = None) -> dict:
    """Fill declared defaults and reject undeclared knobs.

    The canonical dict is what cache keys and ledger records embed, so
    two invocations that differ only in *spelling* (defaults omitted vs
    spelled out) share one cache entry.
    """
    spec = get_algorithm(name)
    given = dict(params or {})
    out = {}
    for p in spec.params:
        out[p.name] = given.pop(p.name, p.default)
    if given:
        unknown = ", ".join(sorted(given))
        raise AlgorithmError(
            f"algorithm {name!r} does not accept parameter(s): {unknown}"
        )
    return out


def registry_fingerprint() -> str:
    """Stable digest of the roster: names, budgetedness, default knobs.

    Experiment cache keys and serving index cache keys embed this, so
    cached results invalidate when an algorithm is added, removed, or
    changes its declared defaults — without each call site enumerating
    the roster itself.
    """
    import hashlib
    import json

    payload = json.dumps(
        [
            [spec.name, spec.budgeted, canonical_params(spec.name)]
            for spec in all_specs()
        ],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_algorithm(
    name: str,
    graph: ASGraph,
    budget: int | None = None,
    **params,
) -> tuple[list[int], dict]:
    """Resolve ``name`` and run it; returns ``(brokers, extra_params)``.

    ``budget`` is mandatory for budgeted algorithms and ignored by the
    rest.  ``params`` must be declared in the algorithm's schema;
    omitted knobs take their declared defaults.
    """
    spec = get_algorithm(name)
    if spec.budgeted and budget is None:
        raise AlgorithmError(f"algorithm {name!r} requires a budget")
    filled = canonical_params(name, params)
    return spec.runner(graph, budget, **filled)


# ----------------------------------------------------------------------
# Built-in registrations (registration order defines the canonical
# ordering that BUDGETED_ALGORITHMS / UNBUDGETED_ALGORITHMS expose).
# ----------------------------------------------------------------------


def _run_greedy(graph, budget):
    return lazy_greedy_max_coverage(graph, budget), {}


def _run_approx(graph, budget, beta=4):
    result = approx_mcbg(graph, budget, beta=beta)
    return result.brokers, {"beta": beta, "x_star": result.x_star, "root": result.root}


def _run_maxsg(graph, budget):
    return maxsg(graph, budget), {}


def _run_degree(graph, budget):
    return baselines.degree_based(graph, budget), {}


def _run_pagerank(graph, budget):
    return baselines.pagerank_based(graph, budget), {}


def _run_random(graph, budget, seed=0):
    return baselines.random_brokers(graph, budget, seed=seed), {}


def _run_sc(graph, budget, seed=0):
    return baselines.set_cover_dominating(graph, seed=seed), {}


def _run_ixp(graph, budget, degree_threshold=0):
    brokers = baselines.ixp_based(graph, degree_threshold=degree_threshold)
    return brokers, {"degree_threshold": degree_threshold}


def _run_tier1(graph, budget):
    return baselines.tier1_only(graph), {}


register_algorithm(AlgorithmSpec(
    name="greedy",
    summary="Algorithm 1: lazy greedy max-coverage (CELF)",
    budgeted=True,
    capabilities=("coverage", "submodular", "lazy-eval"),
    runner=_run_greedy,
))
register_algorithm(AlgorithmSpec(
    name="approx",
    summary="Algorithm 2: MCBG approximation on an (alpha, beta)-graph",
    budgeted=True,
    capabilities=("coverage", "mcbg", "approximation"),
    params=(
        ParamSpec("beta", "int", 4, "diameter bound of the (alpha, beta)-graph"),
    ),
    runner=_run_approx,
))
register_algorithm(AlgorithmSpec(
    name="maxsg",
    summary="Algorithm 3: MaxSubGraph-Greedy (connected broker set)",
    budgeted=True,
    capabilities=("coverage", "mcbg", "incremental"),
    runner=_run_maxsg,
))
register_algorithm(AlgorithmSpec(
    name="degree",
    summary="baseline: top-k vertices by degree",
    budgeted=True,
    capabilities=("baseline",),
    runner=_run_degree,
))
register_algorithm(AlgorithmSpec(
    name="pagerank",
    summary="baseline: top-k vertices by PageRank",
    budgeted=True,
    capabilities=("baseline",),
    runner=_run_pagerank,
))
register_algorithm(AlgorithmSpec(
    name="random",
    summary="baseline: uniform random sample",
    budgeted=True,
    capabilities=("baseline", "randomized"),
    params=(ParamSpec("seed", "int", 0, "RNG seed for the sample"),),
    runner=_run_random,
))
register_algorithm(AlgorithmSpec(
    name="sc",
    summary="randomized Set-Cover dominating set",
    budgeted=False,
    capabilities=("baseline", "dominating-set", "randomized"),
    params=(ParamSpec("seed", "int", 0, "RNG seed for the scan order"),),
    runner=_run_sc,
))
register_algorithm(AlgorithmSpec(
    name="ixp",
    summary="baseline: IXPs above a degree threshold",
    budgeted=False,
    capabilities=("baseline", "metadata"),
    params=(
        ParamSpec("degree_threshold", "int", 0, "minimum IXP degree to qualify"),
    ),
    runner=_run_ixp,
))
register_algorithm(AlgorithmSpec(
    name="tier1",
    summary="baseline: tier-1 ISPs only",
    budgeted=False,
    capabilities=("baseline", "metadata"),
    runner=_run_tier1,
))

