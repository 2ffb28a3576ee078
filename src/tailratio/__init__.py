"""Ratio-based outlier detection and tail-index estimation for heavy-tailed data.

The top magnitude in a sample is an outlier of order 1/kappa when the
second-largest magnitude is at most kappa times it.  For regularly varying
tails with index alpha the probability of that event tends to kappa**alpha,
which this package evaluates exactly, in the limit, and by Monte Carlo, and
inverts into an estimator of alpha.  A running-mean experiment connects the
same exponent to the failure of the law of large numbers for alpha < 1.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names the package takes from it.  A name loads its module on
# first use (PEP 562), so `import tailratio` loads no numpy; the names are
# looked up on every use, not kept here, so a wrapper later bound to a
# module's name is the one `tailratio.name` gives.
_EXPORTS = {
    "errors": ("AccuracyError", "CapabilityError", "DegenerateFrequencyError",
               "InsufficientDataError", "ParameterDomainError", "SingularityError",
               "TailRatioError"),
    "estimation": ("AlphaEstimate", "estimate_alpha_from_data",
                   "estimate_alpha_from_frequency"),
    "families": ("TailFamily", "make_exponential", "make_half_cauchy", "make_half_normal",
                 "make_pareto", "make_symmetric_stable", "parse_family_spec"),
    "intervals": ("wilson_interval",),
    "lln": ("ScalingResult", "TrajectorySeries", "running_mean_trajectory",
            "scaling_exponent_experiment", "theory_slope", "trajectories"),
    "outliers": ("OutlierVerdict", "TopTwo", "block_event_frequency", "is_outlier",
                 "ksigma_outliers", "top_two_magnitudes"),
    "probability": ("ConditionReport", "ProbabilityResult", "boundary_ratio",
                    "check_theorem_conditions", "exact_probability",
                    "joint_oracle_probability", "limit_probability", "mc_probability"),
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE)


def __getattr__(name):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE[name]}"), name)


def __dir__():
    return sorted(globals().keys() | _MODULE.keys())
