"""Core contribution: problems, selection algorithms, evaluation metrics."""

from repro.core.approx_mcbg import ApproxMCBGResult, approx_mcbg, repair_budget_split
from repro.core.baselines import (
    degree_based,
    ixp_based,
    pagerank_based,
    random_brokers,
    set_cover_dominating,
    tier1_only,
)
from repro.core.connectivity import (
    ConnectivityCurve,
    connectivity_curve,
    path_inflation,
    saturated_connectivity,
)
from repro.core.coverage import (
    coverage_fraction,
    coverage_value,
    covered_mask,
)
from repro.core.domination import (
    brokers_mutually_connected,
    is_dominating_path,
)
from repro.core.engine import DominationEngine
from repro.core.exact import exact_mcb, exact_mcbg, exact_pds
from repro.core.localsearch import LocalSearchResult, swap_local_search
from repro.core.registry import (
    AlgorithmSpec,
    ParamSpec,
    algorithm_names,
    all_specs,
    canonical_params,
    get_algorithm,
    register_algorithm,
    registry_fingerprint,
    run_algorithm,
)
from repro.core.robustness import (
    FailureSweepResult,
    failure_sweep,
    r_covered_fraction,
    redundant_greedy,
    single_failure_impact,
)
from repro.core.weighted import (
    traffic_weights,
    weighted_greedy,
    weighted_maxsg,
    weighted_saturated_connectivity,
)
from repro.core.greedy import (
    greedy_max_coverage,
    greedy_with_trace,
    lazy_greedy_max_coverage,
)
from repro.core.maxsg import maxsg, maxsg_until_dominated
from repro.core.pathlength import (
    FeasibilityReport,
    evaluate_feasibility,
    path_length_distribution,
)
from repro.core.problems import (
    MCBGInstance,
    MCBInstance,
    PathLengthConstrainedInstance,
    PDSInstance,
    solve_pds_greedy,
)
from repro.core.selector import (
    ALL_ALGORITHMS,
    BrokerSelector,
    SelectionResult,
)

__all__ = [
    # problems
    "PDSInstance",
    "MCBInstance",
    "MCBGInstance",
    "PathLengthConstrainedInstance",
    "solve_pds_greedy",
    # coverage
    "coverage_value",
    "coverage_fraction",
    "covered_mask",
    # algorithms
    "greedy_max_coverage",
    "lazy_greedy_max_coverage",
    "greedy_with_trace",
    "approx_mcbg",
    "ApproxMCBGResult",
    "repair_budget_split",
    "maxsg",
    "maxsg_until_dominated",
    # baselines
    "set_cover_dominating",
    "ixp_based",
    "tier1_only",
    "degree_based",
    "pagerank_based",
    "random_brokers",
    # domination / connectivity
    "is_dominating_path",
    "brokers_mutually_connected",
    "ConnectivityCurve",
    "connectivity_curve",
    "saturated_connectivity",
    "path_inflation",
    # path-length constraints
    "FeasibilityReport",
    "evaluate_feasibility",
    "path_length_distribution",
    # exact
    "exact_mcb",
    "exact_mcbg",
    "exact_pds",
    # engine
    "DominationEngine",
    # registry
    "AlgorithmSpec",
    "ParamSpec",
    "algorithm_names",
    "all_specs",
    "canonical_params",
    "get_algorithm",
    "register_algorithm",
    "registry_fingerprint",
    "run_algorithm",
    # selector
    "BrokerSelector",
    "SelectionResult",
    "ALL_ALGORITHMS",
    # extensions
    "swap_local_search",
    "LocalSearchResult",
    "failure_sweep",
    "FailureSweepResult",
    "single_failure_impact",
    "redundant_greedy",
    "r_covered_fraction",
    "traffic_weights",
    "weighted_greedy",
    "weighted_maxsg",
    "weighted_saturated_connectivity",
]
