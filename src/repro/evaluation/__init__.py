"""Evaluation harness: experiment runner, grid search, conformal intervals,
reporting."""

from repro.evaluation.conformal import ConformalRegressor
from repro.evaluation.grid import GridResult, grid_search, iter_grid
from repro.evaluation.reporting import render_markdown, render_pivot, render_table
from repro.evaluation.stats import (
    AggregateMetric,
    PairedComparison,
    aggregate_metric,
    bootstrap_difference_ci,
    multi_seed_mses,
    paired_comparison,
)
from repro.evaluation.runner import (
    ExperimentResult,
    ModelFactory,
    cross_validate,
    run_experiment,
    run_many,
    run_on_split,
)

__all__ = [
    "ConformalRegressor",
    "GridResult",
    "grid_search",
    "iter_grid",
    "render_markdown",
    "render_pivot",
    "render_table",
    "ExperimentResult",
    "ModelFactory",
    "AggregateMetric",
    "PairedComparison",
    "aggregate_metric",
    "bootstrap_difference_ci",
    "multi_seed_mses",
    "paired_comparison",
    "cross_validate",
    "run_experiment",
    "run_many",
    "run_on_split",
]
