"""Neighborhood-level allocation of childhood blood-lead testing capacity.

The pipeline: ingest a neighborhood-by-year testing panel, mean-normalize
detection rates within each year, cluster the normalized trajectories into
risk profiles, search a two-weight grid for the test allocation that
maximizes projected detected cases under fairness constraints, and evaluate
the chosen plan statistically.
"""

from .allocate import (
    AllocationPlan,
    ConstraintConfig,
    GridConfig,
    SearchResult,
    ShareVectors,
    case_difference,
    case_rates,
    check_constraints,
    compute_shares,
    finalize_tests,
    grid_search,
    v2_share,
)
from .cluster import (
    RISK_LABELS,
    ClusterAssignment,
    build_series,
    cluster_neighborhoods,
    k_medoids,
    seed_medoids,
)
from .errors import ConfigError, DataError, InfeasibleError, LeadAllocError
from .evaluate import (
    EvaluationReport,
    ZTestResult,
    cluster_case_deltas,
    evaluate_plan,
    reallocation_percentages,
    two_proportion_ztest,
)
from .normalize import (
    NormalizedPanel,
    RegressionFit,
    fit_share_regression,
    forecast_total_tests,
    mean_normalize_year,
    normalize_panel,
    ols_line,
    testing_population_shares,
)
from .panel import (
    NeighborhoodPanel,
    NeighborhoodYearRecord,
    PanelSchema,
    parse_panel,
    validate_panel,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationPlan",
    "ClusterAssignment",
    "ConfigError",
    "ConstraintConfig",
    "DataError",
    "EvaluationReport",
    "GridConfig",
    "InfeasibleError",
    "LeadAllocError",
    "NeighborhoodPanel",
    "NeighborhoodYearRecord",
    "NormalizedPanel",
    "PanelSchema",
    "RISK_LABELS",
    "RegressionFit",
    "SearchResult",
    "ShareVectors",
    "ZTestResult",
    "build_series",
    "case_difference",
    "case_rates",
    "check_constraints",
    "cluster_case_deltas",
    "cluster_neighborhoods",
    "compute_shares",
    "evaluate_plan",
    "finalize_tests",
    "fit_share_regression",
    "forecast_total_tests",
    "grid_search",
    "k_medoids",
    "mean_normalize_year",
    "normalize_panel",
    "ols_line",
    "parse_panel",
    "reallocation_percentages",
    "seed_medoids",
    "testing_population_shares",
    "two_proportion_ztest",
    "v2_share",
    "validate_panel",
]
