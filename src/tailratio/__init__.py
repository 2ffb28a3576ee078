"""Ratio-based outlier detection and tail-index estimation for heavy-tailed data.

The top magnitude in a sample is an outlier of order 1/kappa when the
second-largest magnitude is at most kappa times it.  For regularly varying
tails with index alpha the probability of that event tends to kappa**alpha,
which this package evaluates exactly, in the limit, and by Monte Carlo, and
inverts into an estimator of alpha.  A running-mean experiment connects the
same exponent to the failure of the law of large numbers for alpha < 1.
"""

from .errors import (
    AccuracyError,
    CapabilityError,
    DegenerateFrequencyError,
    InsufficientDataError,
    ParameterDomainError,
    SingularityError,
    TailRatioError,
)
from .estimation import (
    AlphaEstimate,
    estimate_alpha_from_data,
    estimate_alpha_from_frequency,
)
from .families import (
    TailFamily,
    make_exponential,
    make_half_cauchy,
    make_half_normal,
    make_pareto,
    make_symmetric_stable,
    parse_family_spec,
)
from .intervals import wilson_interval
from .lln import (
    ScalingResult,
    TrajectorySeries,
    running_mean_trajectory,
    scaling_exponent_experiment,
    theory_slope,
    trajectories,
)
from .outliers import (
    OutlierVerdict,
    TopTwo,
    block_event_frequency,
    is_outlier,
    ksigma_outliers,
    top_two_magnitudes,
)
from .probability import (
    ConditionReport,
    ProbabilityResult,
    boundary_ratio,
    check_theorem_conditions,
    exact_probability,
    joint_oracle_probability,
    limit_probability,
    mc_probability,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "AlphaEstimate",
    "CapabilityError",
    "ConditionReport",
    "DegenerateFrequencyError",
    "InsufficientDataError",
    "OutlierVerdict",
    "ParameterDomainError",
    "ProbabilityResult",
    "ScalingResult",
    "SingularityError",
    "TailFamily",
    "TailRatioError",
    "TopTwo",
    "TrajectorySeries",
    "block_event_frequency",
    "boundary_ratio",
    "check_theorem_conditions",
    "estimate_alpha_from_data",
    "estimate_alpha_from_frequency",
    "exact_probability",
    "is_outlier",
    "joint_oracle_probability",
    "ksigma_outliers",
    "limit_probability",
    "make_exponential",
    "make_half_cauchy",
    "make_half_normal",
    "make_pareto",
    "make_symmetric_stable",
    "mc_probability",
    "parse_family_spec",
    "running_mean_trajectory",
    "scaling_exponent_experiment",
    "theory_slope",
    "top_two_magnitudes",
    "trajectories",
    "wilson_interval",
]
