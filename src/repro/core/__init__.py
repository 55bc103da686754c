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
    connectivity_at,
    connectivity_curve,
    marginal_connectivity_gain,
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
    dominated_matrix,
    dominating_path_length,
    has_dominating_path,
    is_dominating_path,
    verify_mcbg_solution,
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
    pairwise_dominating_guarantee_fraction,
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
    "pairwise_dominating_guarantee_fraction",
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
    "has_dominating_path",
    "dominating_path_length",
    "dominated_matrix",
    "brokers_mutually_connected",
    "verify_mcbg_solution",
    "ConnectivityCurve",
    "connectivity_curve",
    "connectivity_at",
    "saturated_connectivity",
    "path_inflation",
    "marginal_connectivity_gain",
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
