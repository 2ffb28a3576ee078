"""Argument domains: every entry point checks through check_int / check_real."""

import math
from fractions import Fraction

import numpy as np
import pytest

import tailratio as tr
from tailratio.errors import (
    AccuracyError,
    CapabilityError,
    DegenerateFrequencyError,
    InsufficientDataError,
    ParameterDomainError,
    SingularityError,
    TailRatioError,
    check_int,
    check_real,
)
from tailratio.rng import substream

PARETO = tr.make_pareto(1.5, 1.0)
DATA = [1.0, 2.0, 10.0, 1.0, 2.0, 3.0]

# argument -> call with that argument set to v and every other argument valid;
# each count call must succeed with v = 3
COUNTS = {
    "exact n": lambda v: tr.exact_probability(PARETO, v, 0.5),
    "mc n": lambda v: tr.mc_probability(PARETO, v, 0.5, 5, 1),
    "mc trials": lambda v: tr.mc_probability(PARETO, 3, 0.5, v, 1),
    "mc seed": lambda v: tr.mc_probability(PARETO, 3, 0.5, 5, v),
    "oracle n": lambda v: tr.joint_oracle_probability(PARETO, v, 0.5),
    "conditions n": lambda v: tr.check_theorem_conditions(PARETO, 0.5, v),
    "grid_points": lambda v: tr.check_theorem_conditions(PARETO, 0.5, 10, grid_points=v),
    "wilson trials": lambda v: tr.wilson_interval(0.5, v),
    "blocks": lambda v: tr.estimate_alpha_from_frequency(0.5, 0.5, v),
    "block_size": lambda v: tr.block_event_frequency(DATA, v, 0.5),
    "estimate block_size": lambda v: tr.estimate_alpha_from_data(DATA, v, 0.5),
    "count": lambda v: PARETO.sample(v, 1),
    "sample_with count": lambda v: PARETO.sample_with(substream(1), v),
    "sample seed": lambda v: PARETO.sample(3, v),
    "substream seed": lambda v: substream(v),
    "substream index": lambda v: substream(1, v),
    "checkpoint": lambda v: tr.running_mean_trajectory(PARETO, [1, v], 1),
    "trajectory seed": lambda v: tr.running_mean_trajectory(PARETO, [1, 3], v),
    "trajectory replication": lambda v: tr.running_mean_trajectory(PARETO, [1, 3], 1, v),
    "ns entry": lambda v: tr.scaling_exponent_experiment(PARETO, [2, v], 2, 1),
    "replications": lambda v: tr.scaling_exponent_experiment(PARETO, [2, 3], v, 1),
    "scaling seed": lambda v: tr.scaling_exponent_experiment(PARETO, [2, 3], 2, v),
}

REALS = {
    "detect kappa": lambda v: tr.is_outlier(DATA, v),
    "block kappa": lambda v: tr.block_event_frequency(DATA, 3, v),
    "limit kappa": lambda v: tr.limit_probability(v, 1.5),
    "limit alpha": lambda v: tr.limit_probability(0.5, v),
    "exact kappa": lambda v: tr.exact_probability(PARETO, 3, v),
    "mc kappa": lambda v: tr.mc_probability(PARETO, 3, v, 5, 1),
    "mc confidence": lambda v: tr.mc_probability(PARETO, 3, 0.5, 5, 1, v),
    "oracle kappa": lambda v: tr.joint_oracle_probability(PARETO, 3, v),
    "boundary kappa": lambda v: tr.boundary_ratio(PARETO, v, 10.0),
    "boundary x": lambda v: tr.boundary_ratio(PARETO, 0.5, v),
    "conditions kappa": lambda v: tr.check_theorem_conditions(PARETO, v, 10),
    "probe lo": lambda v: tr.check_theorem_conditions(PARETO, 0.5, 10, (v, 20.0)),
    "probe hi": lambda v: tr.check_theorem_conditions(PARETO, 0.5, 10, (2.0, v)),
    "k": lambda v: tr.ksigma_outliers(DATA, v),
    "wilson p_hat": lambda v: tr.wilson_interval(v, 10),
    "wilson confidence": lambda v: tr.wilson_interval(0.5, 10, v),
    "estimate p_hat": lambda v: tr.estimate_alpha_from_frequency(v, 0.5, 10),
    "estimate kappa": lambda v: tr.estimate_alpha_from_frequency(0.5, v, 10),
    "estimate confidence": lambda v: tr.estimate_alpha_from_frequency(0.5, 0.5, 10, v),
    "theory alpha": lambda v: tr.theory_slope(v),
    "pareto alpha": lambda v: tr.make_pareto(v),
    "pareto xm": lambda v: tr.make_pareto(1.5, v),
    "half_cauchy scale": lambda v: tr.make_half_cauchy(v),
    "exponential rate": lambda v: tr.make_exponential(v),
    "half_normal sigma": lambda v: tr.make_half_normal(v),
    "stable alpha": lambda v: tr.make_symmetric_stable(v),
    "stable scale": lambda v: tr.make_symmetric_stable(1.0, v),
}


@pytest.mark.parametrize("name", sorted(COUNTS))
@pytest.mark.parametrize("bad", [2.9, True, math.nan, math.inf, "3"], ids=repr)
def test_count_refuses_non_integers(name, bad):
    with pytest.raises(ParameterDomainError, match="must be an integer"):
        COUNTS[name](bad)


@pytest.mark.parametrize("name", sorted(COUNTS))
@pytest.mark.parametrize("good", [3, 3.0, np.int64(3)], ids=repr)
def test_count_accepts_integral_numbers(name, good):
    COUNTS[name](good)


@pytest.mark.parametrize("name", sorted(REALS))
@pytest.mark.parametrize("bad", [True, math.nan], ids=repr)
def test_real_refuses_booleans_and_nan(name, bad):
    with pytest.raises(ParameterDomainError):
        REALS[name](bad)


@pytest.mark.parametrize("bad", [-1, 2**64], ids=repr)
def test_substream_index_is_64_bit(bad):
    with pytest.raises(ParameterDomainError, match=r"^index must be in 0\.\.18446744073709551615"):
        substream(1, bad)


def test_replication_is_named_past_64_bits():
    with pytest.raises(ParameterDomainError, match=r"^replication must be in 0\.\."):
        tr.running_mean_trajectory(PARETO, [1, 3], 1, 2**64)


def test_check_int_range():
    assert check_int(np.int64(5), "n", 2) == 5 and type(check_int(5.0, "n", 2)) is int
    assert type(check_int(np.int64(5), "n", 2)) is int
    assert check_int(2**64 - 1, "seed", 0, 2**64 - 1) == 2**64 - 1
    with pytest.raises(ParameterDomainError, match=r"^n must be >= 2, got 1$"):
        check_int(1, "n", 2)
    with pytest.raises(ParameterDomainError, match=r"^n must be in 2\.\.8, got 9$"):
        check_int(9, "n", 2, 8)


@pytest.mark.parametrize("value", [np.int64(3), np.float32(3.0), np.uint8(3), 3.0])
def test_check_int_takes_numpy_integers_and_integral_floats(value):
    assert type(check_int(value, "n", 2)) is int and check_int(value, "n", 2) == 3


@pytest.mark.parametrize("value", [np.float64(2.5), np.bool_(True), Fraction(3), True, "3"])
def test_check_int_refuses_what_is_not_an_integer(value):
    with pytest.raises(ParameterDomainError, match=r"^n must be an integer, got "):
        check_int(value, "n", 0)


@pytest.mark.parametrize(
    "ends,inside,outside",
    [("()", [0.5], [0.0, 1.0]), ("[]", [0.0, 1.0], [-0.1, 1.1]),
     ("(]", [1.0], [0.0]), ("[)", [0.0], [1.0])],
)
def test_check_real_ends(ends, inside, outside):
    for v in inside:
        assert check_real(v, "x", 0, 1, ends) == v
    for v in outside:
        with pytest.raises(ParameterDomainError, match=rf"x must be a real number in \{ends[0]}"):
            check_real(v, "x", 0, 1, ends)
    assert check_real("0.5", "x", 0, 1, ends) == 0.5
    with pytest.raises(ParameterDomainError):
        check_real("x", "x", 0, 1, ends)


@pytest.mark.parametrize("cls,code", [
    (TailRatioError, 2), (ParameterDomainError, 2), (SingularityError, 2),
    (CapabilityError, 3), (InsufficientDataError, 4), (AccuracyError, 5),
    (DegenerateFrequencyError, 6),
])
def test_exit_code(cls, code):
    assert cls.exit_code == code


def test_accuracy_error_message_ends_with_best_estimate():
    with pytest.raises(AccuracyError) as exc:
        tr.joint_oracle_probability(tr.make_pareto(0.01), 8, 0.5)
    assert str(exc.value).endswith(f" (best estimate {exc.value.best_estimate!r})")
    assert str(exc.value).endswith(" (best estimate 0.9791100991575936)")


def test_degenerate_error_message_ends_with_bound():
    with pytest.raises(DegenerateFrequencyError) as exc:
        tr.estimate_alpha_from_frequency(0.0, 0.5, 50, confidence=0.9)
    assert str(exc.value).endswith(f" (90% lower bound on alpha: {exc.value.bound:.6g})")
