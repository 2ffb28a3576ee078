"""The normal quantile behind every Wilson interval equals scipy's ndtri.

`_ndtri` ports Cephes ndtri, which scipy.special.ndtri runs, so the two must
agree bit for bit, infinities included.  scipy is the reference here only.
"""

import math

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


@pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_normal_quantile_equals_scipy(confidence):
    z = normal_quantile(confidence)
    assert type(z) is float
    assert z == float(special.ndtri(0.5 + confidence / 2.0))


def test_normal_quantile_equals_scipy_on_a_grid():
    for confidence in np.linspace(1e-4, 1.0 - 1e-4, 9999).tolist():
        assert normal_quantile(confidence) == float(special.ndtri(0.5 + confidence / 2.0))


def test_normal_quantile_next_to_1_is_the_tail_form():
    # 0.5 + c/2 rounds to 1 at c = 1 - 2**-53, where ndtri is inf; the tail
    # 1 - c = 2**-53 is exact
    assert normal_quantile(0.9999999999999999) == -float(special.ndtri(2.0**-54)) \
        == 8.292361075813597
