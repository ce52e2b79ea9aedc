"""Moment-matching aggregation for discounted Markov decision processes.

The package solves large reward/decision processes on integer box lattices
by projecting them onto a coarse grid of representative states through an
interpolation matrix that preserves one-step conditional means exactly.
Core entry points:

* :func:`build_grid` / :func:`build_scheme` — coarse grids and the
  row-stochastic interpolation operator G;
* :func:`evaluate` — fixed-policy value via the small aggregate system,
  with optional exact baseline and gap statistics;
* :func:`aggregated_policy_iteration` — approximate policy iteration that
  touches only representative states;
* :mod:`momentagg.benchmarks` — inventory, hospital-routing and
  random-walk instances;
* :mod:`momentagg.cli` — a config-driven runner (``python -m momentagg``).
"""

from . import benchmarks, cli
from .aggregation import (
    AggregationScheme,
    ProductScheme,
    SecondMomentReport,
    build_G,
    build_scheme,
    first_moment_gap,
    lifted_chain,
    mstep_scheme,
    second_moment_gap,
    weights,
)
from .chain import (
    LocalMoments,
    MarkovRewardProcess,
    NumericalError,
    ResourceLimitError,
    RowStochasticMatrix,
    delta_at,
    exact_value,
    local_moments,
    m_step_chain,
    max_jump,
    scaled_value,
    solve_discounted,
    verify_mstep_identity,
)
from .control import (
    ControlledMdp,
    GapReport,
    PiReport,
    aggregated_policy_iteration,
    bellman_residual,
    exact_policy_iteration,
    induced_mrp,
    optimality_gap_report,
)
from .evaluation import (
    BoundCheck,
    EvaluationReport,
    aggregate_value,
    evaluate,
    interpolation_bound_check,
    interpolation_residuals,
)
from .grid import (
    CoarseGrid,
    axis_grid,
    build_U,
    build_grid,
    grid_from_axes,
    meta_count_bound,
)
from .lattice import StateLattice, euclidean_norm

__version__ = "0.1.0"

__all__ = [
    "StateLattice",
    "euclidean_norm",
    "RowStochasticMatrix",
    "MarkovRewardProcess",
    "LocalMoments",
    "NumericalError",
    "ResourceLimitError",
    "solve_discounted",
    "exact_value",
    "local_moments",
    "max_jump",
    "scaled_value",
    "m_step_chain",
    "verify_mstep_identity",
    "delta_at",
    "CoarseGrid",
    "axis_grid",
    "build_grid",
    "grid_from_axes",
    "build_U",
    "meta_count_bound",
    "AggregationScheme",
    "ProductScheme",
    "SecondMomentReport",
    "weights",
    "build_G",
    "build_scheme",
    "mstep_scheme",
    "lifted_chain",
    "first_moment_gap",
    "second_moment_gap",
    "EvaluationReport",
    "BoundCheck",
    "aggregate_value",
    "evaluate",
    "interpolation_residuals",
    "interpolation_bound_check",
    "ControlledMdp",
    "PiReport",
    "GapReport",
    "induced_mrp",
    "exact_policy_iteration",
    "aggregated_policy_iteration",
    "bellman_residual",
    "optimality_gap_report",
    "benchmarks",
    "cli",
]
