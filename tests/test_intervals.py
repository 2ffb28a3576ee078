"""The normal quantile behind every Wilson interval equals scipy's ndtri.

`_ndtri` ports Cephes ndtri, which scipy.special.ndtri runs, so the two must
agree bit for bit, infinities included.  The two-sided quantile at a level c
is ndtri's at the exact half-tail (1 - c)/2 from c = 1/2 up, and below it is
held to mpmath's sqrt(2) * erfinv(c).  scipy and mpmath are references here only.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from tailratio.intervals import _EXP_M2, _ndtri, normal_quantile


def _around(y, ulps):
    """y and the `ulps` floats on each side of it."""
    below = [y]
    above = [y]
    for _ in range(ulps):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 1.0))
    return below[::-1] + above[1:]


def _points():
    u = np.random.default_rng(20261018).random(40_000)
    u = u[u > 0.0]
    edges = []
    # the central branch ends at exp(-2) from 0 and from 1; the tail
    # branch switches polynomials where x = sqrt(-2 log y) crosses 8
    for y in (_EXP_M2, 1.0 - _EXP_M2, math.exp(-32.0), 1.0 - math.exp(-32.0)):
        edges += _around(y, 200)
    near_x8 = math.exp(-32.0) * np.exp(np.linspace(-1e-3, 1e-3, 2001))
    extremes = [0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 2.0**-53, 0.5,
                math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]
    return np.concatenate([
        u,                             # uniform in (0, 1)
        np.exp(-700.0 * u),            # the deep lower tail
        1.0 - np.exp(-36.0 * u),       # the upper tail, down to 1 - 2**-52
        edges,
        near_x8,
        extremes,
    ])


def test_ndtri_equals_scipy_bit_for_bit():
    y = _points()
    assert y.size >= 100_000
    want = special.ndtri(y).tolist()
    got = [_ndtri(v) for v in y.tolist()]
    mismatches = [(v, g, w) for v, g, w in zip(y.tolist(), got, want) if g != w]
    assert not mismatches, mismatches[:5]


def test_ndtri_ends_and_outside():
    assert _ndtri(0.0) == -math.inf
    assert _ndtri(1.0) == math.inf
    assert _ndtri(0.5) == 0.0
    for y in (-1e-300, 1.0 + 2.0**-52, math.nan, -math.inf, math.inf):
        assert math.isnan(_ndtri(y)) and math.isnan(special.ndtri(y))


def _mpmath_z(levels):
    """The z with P(|Z| <= z) = c at each level c, by mpmath at 30 digits, as floats."""
    with mpmath.workdps(30):
        return np.array([float(mpmath.sqrt(2) * mpmath.erfinv(c)) for c in levels])


def _ulps(got, want):
    """The distance in ulps between arrays of floats of one sign."""
    return np.abs(np.asarray(got).view(np.int64) - np.asarray(want).view(np.int64))


@pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_normal_quantile_equals_scipy(confidence):
    z = normal_quantile(confidence)
    assert type(z) is float
    assert z == -float(special.ndtri((1.0 - confidence) / 2.0))


def test_normal_quantile_equals_scipy_on_a_grid():
    # below 1/2 ndtri could only take the rounded 0.5 + c/2, so mpmath is the reference
    grid = np.linspace(1e-4, 1.0 - 1e-4, 9999)
    for confidence in grid[grid >= 0.5].tolist():
        assert normal_quantile(confidence) == -float(special.ndtri((1.0 - confidence) / 2.0))
    low = grid[grid < 0.5].tolist()
    assert _ulps([normal_quantile(c) for c in low], _mpmath_z(low)).max() <= 2


def test_normal_quantile_keeps_its_digits_at_both_ends():
    # 0.5 + c/2 drops the bits of c near 0 and of 1 - c near 1: it gave 0.0 at c = 1e-16,
    # and 8.041399959096541 at 1 - 1e-15
    levels = np.concatenate([np.logspace(-300, -1, 200), 1.0 - np.logspace(-16, -1, 200)])
    got = [normal_quantile(c) for c in levels.tolist()]
    assert _ulps(got, _mpmath_z(levels.tolist())).max() <= 2
    assert normal_quantile(1e-16) == 1.2533141373155002e-16
    assert normal_quantile(0.999999999999999) == 8.026957018033892


def test_normal_quantile_next_to_1_is_the_tail_form():
    # the tail 1 - c = 2**-53 is exact, where 0.5 + c/2 rounds to 1 and ndtri is inf
    assert normal_quantile(0.9999999999999999) == -float(special.ndtri(2.0**-54)) \
        == 8.292361075813597
