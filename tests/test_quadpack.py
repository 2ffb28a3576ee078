"""The QUADPACK port equals scipy.integrate.quad bit for bit.

Each case compares the value, the error estimate, the number of integrand
evaluations and the number of subintervals.  The library's own integrands
are taken from the calls that exact_probability and
joint_oracle_probability make, so the test follows them if they change.
"""

import math
import warnings

import pytest
from scipy import integrate

import tailratio as tr
from tailratio import _quadpack
from tailratio._quadpack import quad
from tailratio.errors import AccuracyError


def _scipy(f, a, b, epsabs, epsrel, limit):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr, info = integrate.quad(
            f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1
        )[:3]
    return value.hex(), abserr.hex(), info["neval"], info["last"]


def assert_matches_scipy(f, a, b, epsabs, epsrel, limit):
    port = quad(f, a, b, epsabs, epsrel, limit)
    got = (port.value.hex(), port.abserr.hex(), port.neval, port.last)
    assert got == _scipy(f, a, b, epsabs, epsrel, limit)
    return port


@pytest.fixture
def quad_calls(monkeypatch):
    """(arguments, result) of every quad call the probability module makes."""
    calls = []

    def record(f, a, b, epsabs, epsrel, limit):
        args = (f, a, b, epsabs, epsrel, limit)
        result = quad(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(_quadpack, "quad", record)
    return calls


FAMILIES = {
    "pareto": tr.make_pareto(1.5, 1.0),
    "pareto-heavy": tr.make_pareto(0.7, 2.0),
    "half_cauchy": tr.make_half_cauchy(1.0),
    "exponential": tr.make_exponential(2.0),
    "half_normal": tr.make_half_normal(1.0),
}


@pytest.mark.parametrize("kappa", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [2, 10, 1000, 10**6, 10**9])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_exact_probability_integrand(name, n, kappa, quad_calls):
    try:
        tr.exact_probability(FAMILIES[name], n, kappa)
    except AccuracyError:
        pass  # the integral was still computed, and is compared below
    ((args, _),) = quad_calls
    assert_matches_scipy(*args)


def test_exact_probability_reports_the_work_of_quad(quad_calls):
    result = tr.exact_probability(tr.make_pareto(1.5), 10, 0.5)
    ((args, _),) = quad_calls
    assert (result.neval, result.intervals) == _scipy(*args)[2:]


@pytest.mark.parametrize(
    "name,n", [("pareto", 2), ("pareto", 5), ("half_cauchy", 4), ("exponential", 8)]
)
def test_joint_oracle_integrands(name, n, quad_calls):
    result = tr.joint_oracle_probability(FAMILIES[name], n, 0.5)
    assert result.neval == sum(q.neval for _, q in quad_calls)
    assert result.intervals == sum(q.last for _, q in quad_calls)
    # the outer integrand calls quad again when it is run below
    *inner, (outer, _) = list(quad_calls)
    # the outer integral gets no break points; Pareto's support starts at 1,
    # so it starts where the inner integral switches on, y = 2 at t = 1/2
    assert len(outer) == 6
    assert outer[1:3] == ((0.5, 1.0) if name == "pareto" else (0.0, 1.0))
    assert_matches_scipy(*outer)
    for args, _ in inner[:: max(1, len(inner) // 10)]:
        assert_matches_scipy(*args)


def _off(c):
    # a pole at c, with the pole itself read as 0
    return lambda x: 1.0 / abs(x - c) if x != c else 0.0


# (integrand, a, b, epsabs, epsrel, limit, QUADPACK's ier)
BRANCHES = {
    "smooth": (math.exp, 0.0, 1.0, 1.49e-8, 1.49e-8, 50, 0),
    "one-interval": (math.sin, 0.0, 3.0, 1.49e-8, 1.49e-8, 1, 1),
    "limit": (lambda x: math.cos(1000.0 * x) * math.exp(-x), 0.0, 10.0,
              1.49e-8, 1.49e-8, 10, 1),
    # the singularity is integrable only through the epsilon extrapolation
    "extrapolated": (lambda x: x**-0.9 if x > 0.0 else 0.0, 0.0, 1.0,
                     1.49e-8, 1.49e-8, 50, 0),
    "log": (lambda x: math.log(x) if x > 0.0 else 0.0, 0.0, 1.0,
            1.49e-8, 1.49e-8, 50, 0),
    "round-off-first": (lambda x: math.cos(3.0 * x), 0.0, 1.0, 0.0, 1e-13, 50, 2),
    "round-off": (lambda x: math.cos(30.0 * x), 0.0, 1.0, 0.0, 1e-13, 50, 2),
    "bad-integrand": (_off(0.3), 0.0, 1.0, 1.49e-8, 1.49e-8, 1000, 3),
    "no-convergence": (lambda x: abs(x - math.pi / 10.0) ** -1.5 if x != math.pi / 10.0
                       else 0.0, 0.0, 1.0, 1.49e-8, 1.49e-8, 1000, 4),
    "divergent": (lambda x: 1.0 / (x - 0.3) if x != 0.3 else 0.0, 0.0, 1.0,
                  1.49e-8, 1.49e-8, 1000, 5),
}


@pytest.mark.parametrize("case", sorted(BRANCHES))
def test_branches(case):
    *args, ier = BRANCHES[case]
    assert assert_matches_scipy(*args).ier == ier


@pytest.mark.parametrize(
    "epsabs,epsrel,limit", [(0.0, 1e-20, 50), (1e-8, 1e-8, 0)], ids=["tolerance", "limit"]
)
def test_invalid_input_raises_as_scipy_does(epsabs, epsrel, limit):
    with pytest.raises(ValueError):
        _scipy(math.exp, 0.0, 1.0, epsabs, epsrel, limit)
    with pytest.raises(ValueError):
        quad(math.exp, 0.0, 1.0, epsabs, epsrel, limit)
