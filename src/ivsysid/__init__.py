"""Instrumental-variable identification of linear-in-parameters dynamics.

The pipeline: local polynomial filters (polyfilter) are split across
interleaved samples (splitfilters) to form regressors, responses and
instruments; the clipped IV estimator (estimator) solves for the parameter
matrix; bounds evaluates the theoretical error bounds; dynamics provides the
forced chaotic benchmark system; harness runs seeded Monte Carlo experiments.
"""

from .bounds import (
    GammaParams,
    GammaValue,
    corollary_rate,
    gamma,
    holder_moment_order,
    ideal_window,
    mc_check_gamma,
)
from .dynamics import (
    DivergenceError,
    LorenzParams,
    Trajectory,
    add_noise,
    feature_map,
    integrate,
    lorenz_rhs,
    pseudo_true_discrete,
    true_theta,
)
from .estimator import (
    Estimate,
    IvConfig,
    SingularDesignError,
    clip_singular_values,
    excitation_check,
    iv_estimate,
    ls_estimate,
)
from .harness import (
    ExperimentConfig,
    InsufficientDataError,
    MethodStats,
    SummaryStats,
    TrialResult,
    load_config,
    run_experiment,
    run_monte_carlo,
    summarize,
)
from .polyfilter import (
    FilterConditioningError,
    FilterRankError,
    FilterSpec,
    FilterWeights,
    apply_filter,
    build_filter,
    operator_norm,
    theoretical_rates,
)
from .splitfilters import (
    DesignMatrices,
    EmptyDesignError,
    SplitFilterBank,
    assemble_design,
    build_split_bank,
    rho_truncate,
)

__version__ = "0.1.0"

__all__ = [
    "DesignMatrices",
    "DivergenceError",
    "EmptyDesignError",
    "Estimate",
    "ExperimentConfig",
    "FilterConditioningError",
    "FilterRankError",
    "FilterSpec",
    "FilterWeights",
    "GammaParams",
    "GammaValue",
    "InsufficientDataError",
    "IvConfig",
    "LorenzParams",
    "MethodStats",
    "SingularDesignError",
    "SplitFilterBank",
    "SummaryStats",
    "Trajectory",
    "TrialResult",
    "add_noise",
    "apply_filter",
    "assemble_design",
    "build_filter",
    "build_split_bank",
    "clip_singular_values",
    "corollary_rate",
    "excitation_check",
    "feature_map",
    "gamma",
    "holder_moment_order",
    "ideal_window",
    "integrate",
    "iv_estimate",
    "load_config",
    "lorenz_rhs",
    "ls_estimate",
    "mc_check_gamma",
    "operator_norm",
    "pseudo_true_discrete",
    "rho_truncate",
    "run_experiment",
    "run_monte_carlo",
    "summarize",
    "theoretical_rates",
    "true_theta",
]
