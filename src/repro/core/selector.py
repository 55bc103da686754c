"""High-level broker selection API.

:class:`BrokerSelector` is the façade downstream users interact with: pick
an algorithm by name, get back a :class:`SelectionResult` bundling the
broker set with its evaluation (coverage, saturated connectivity, MCBG
feasibility) so the common workflow is three lines::

    graph = load_internet("small", seed=0)
    result = BrokerSelector(graph).select("maxsg", budget=60)
    print(result.summary())

Algorithms resolve through :mod:`repro.core.registry`; the built-in
registrations are:

=============  ==========================================================
name           implementation
=============  ==========================================================
``greedy``     Algorithm 1 (lazy greedy MCB)
``approx``     Algorithm 2 (MCBG approximation on an (α, β)-graph)
``maxsg``      Algorithm 3 (MaxSubGraph-Greedy)
``sc``         randomized Set-Cover dominating set
``ixp``        IXPs above a degree threshold
``tier1``      tier-1 ISPs only
``degree``     Degree-Based top-k
``pagerank``   PageRank-Based top-k
``random``     uniform sample
=============  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import registry
from repro.core.connectivity import connectivity_curve
from repro.core.engine import DominationEngine
from repro.graph.asgraph import ASGraph
from repro.utils.rng import SeedLike

#: Algorithms that require a ``budget`` argument (registry order).
BUDGETED_ALGORITHMS = registry.algorithm_names(budgeted=True)
#: Algorithms whose size is determined by the graph itself.
UNBUDGETED_ALGORITHMS = registry.algorithm_names(budgeted=False)
ALL_ALGORITHMS = BUDGETED_ALGORITHMS + UNBUDGETED_ALGORITHMS


@dataclass(frozen=True)
class SelectionResult:
    """A broker set plus its headline evaluation."""

    algorithm: str
    broker_set: list[int]
    coverage: int
    coverage_fraction: float
    saturated_connectivity: float
    mcbg_feasible: bool
    parameters: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.broker_set)

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"{self.algorithm}: |B|={self.size}, "
            f"coverage={100 * self.coverage_fraction:.2f}%, "
            f"saturated connectivity={100 * self.saturated_connectivity:.2f}%, "
            f"MCBG-feasible={self.mcbg_feasible}"
        )


class BrokerSelector:
    """Runs any registered selection algorithm on a fixed topology."""

    def __init__(self, graph: ASGraph) -> None:
        self._graph = graph

    @property
    def graph(self) -> ASGraph:
        return self._graph

    def select(
        self,
        algorithm: str,
        budget: int | None = None,
        *,
        beta: int = 4,
        seed: SeedLike = 0,
        degree_threshold: int = 0,
        evaluate: bool = True,
        cache=None,
    ) -> SelectionResult:
        """Run ``algorithm`` and evaluate the resulting broker set.

        ``budget`` is mandatory for the budgeted algorithms and ignored by
        ``sc`` / ``ixp`` / ``tier1``.  ``evaluate=False`` skips the
        connectivity evaluation (useful inside parameter sweeps that will
        evaluate in bulk later).

        ``cache`` (a :class:`repro.parallel.ResultCache`) memoizes the
        whole selection+evaluation on disk, keyed by the graph digest and
        every selection knob.  Only integer/None seeds are cacheable — a
        live ``Generator`` has unknowable state, so it bypasses the cache.
        """
        graph = self._graph
        spec = registry.get_algorithm(algorithm)
        declared = {p.name for p in spec.params}
        knobs = {
            name: value
            for name, value in (
                ("beta", beta),
                ("seed", seed),
                ("degree_threshold", degree_threshold),
            )
            if name in declared
        }
        cache_params = None
        if cache is not None and (seed is None or isinstance(seed, int)):
            # Only knobs the algorithm declares enter the key, so runs
            # that differ in an irrelevant knob share one cache entry.
            cache_params = {
                "algorithm": algorithm,
                "budget": budget,
                "evaluate": evaluate,
                "params": registry.canonical_params(algorithm, knobs),
            }
            hit = cache.get(
                graph_digest=graph.digest(),
                algorithm="broker-selection",
                params=cache_params,
            )
            if hit is not None:
                return SelectionResult(
                    algorithm=str(hit["algorithm"]),
                    broker_set=[int(b) for b in hit["broker_set"]],
                    coverage=int(hit["coverage"]),
                    coverage_fraction=float(hit["coverage_fraction"]),
                    saturated_connectivity=float(hit["saturated_connectivity"]),
                    mcbg_feasible=bool(hit["mcbg_feasible"]),
                    parameters=dict(hit["parameters"]),
                )
        brokers, params = registry.run_algorithm(algorithm, graph, budget, **knobs)

        if not evaluate:
            result = SelectionResult(
                algorithm=algorithm,
                broker_set=brokers,
                coverage=0,
                coverage_fraction=0.0,
                saturated_connectivity=0.0,
                mcbg_feasible=False,
                parameters=params,
            )
        else:
            result = self.evaluate(brokers, algorithm=algorithm, parameters=params)
        if cache_params is not None:
            cache.put(
                {
                    "algorithm": result.algorithm,
                    "broker_set": result.broker_set,
                    "coverage": result.coverage,
                    "coverage_fraction": result.coverage_fraction,
                    "saturated_connectivity": result.saturated_connectivity,
                    "mcbg_feasible": result.mcbg_feasible,
                    "parameters": result.parameters,
                },
                graph_digest=graph.digest(),
                algorithm="broker-selection",
                params=cache_params,
            )
        return result

    def evaluate(
        self,
        brokers: list[int],
        *,
        algorithm: str = "custom",
        parameters: dict | None = None,
    ) -> SelectionResult:
        """Evaluate an arbitrary broker set under the standard metrics.

        One :class:`DominationEngine` answers all four: coverage, its
        fraction, saturated connectivity and MCBG feasibility (every
        broker in one component of ``B ⊙ A``; an empty set is not).
        """
        brokers = list(dict.fromkeys(int(b) for b in brokers))
        engine = DominationEngine(self._graph, brokers)
        broker_labels = engine.component_labels()[brokers]
        return SelectionResult(
            algorithm=algorithm,
            broker_set=brokers,
            coverage=engine.coverage(),
            coverage_fraction=engine.coverage_fraction(),
            saturated_connectivity=engine.saturated_connectivity(),
            mcbg_feasible=len(np.unique(broker_labels)) == 1,
            parameters=parameters or {},
        )

    def connectivity_curve(
        self,
        brokers: list[int] | None,
        *,
        max_hops: int = 8,
        num_sources: int | None = None,
        seed: SeedLike = 0,
    ):
        """l-hop connectivity curve (delegates to the engine)."""
        return connectivity_curve(
            self._graph,
            brokers,
            max_hops=max_hops,
            num_sources=num_sources,
            seed=seed,
        )
