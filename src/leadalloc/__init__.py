"""Neighborhood-level allocation of childhood blood-lead testing capacity.

The pipeline: ingest a neighborhood-by-year testing panel, mean-normalize
detection rates within each year, cluster the normalized trajectories into
risk profiles, search a two-weight grid for the test allocation that
maximizes projected detected cases under fairness constraints, and evaluate
the chosen plan statistically.
"""

from .allocate import ConstraintConfig, GridConfig, case_rates, compute_shares, grid_search
from .cluster import build_series, cluster_neighborhoods, k_medoids
from .errors import ConfigError, DataError, InfeasibleError, LeadAllocError
from .evaluate import evaluate_plan
from .normalize import forecast_total_tests, normalize_panel
from .panel import parse_panel

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConstraintConfig",
    "DataError",
    "GridConfig",
    "InfeasibleError",
    "LeadAllocError",
    "build_series",
    "case_rates",
    "cluster_neighborhoods",
    "compute_shares",
    "evaluate_plan",
    "forecast_total_tests",
    "grid_search",
    "k_medoids",
    "normalize_panel",
    "parse_panel",
]
