"""Binomial proportion confidence intervals, and the two-sided normal quantile
that gives them their z and is the half-normal family's quantile."""

import math

from .errors import check_int, check_real

# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989).  Coefficients are highest power first.  Q0, Q1 and Q2
# lead with the 1 that Cephes' p1evl leaves implicit: 1.0 * x + c is
# exactly x + c, so one Horner loop serves for polevl and p1evl alike.
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)

# y - 1/2, when y is more than exp(-2) from 0 and from 1
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
    8.63602421390890590575e1, -2.25462687854119370527e2, 2.00260212380060660359e2,
    -8.20372256168333339912e1, 1.59056225126211695515e1, -1.18331621121330003142e0,
)
# 1/x, for x = sqrt(-2 log y) in [2, 8), that is y down to exp(-32)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
    4.13172038254672030440e1, 1.50425385692907503408e1, 2.50464946208309415979e0,
    -1.42182922854787788574e-1, -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
# 1/x, for x >= 8
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
    1.37702099489081330271e0, 2.16236993594496635890e-1, 1.34204006088543189037e-2,
    3.28014464682127739104e-4, 2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x, coef):
    """Horner's rule, as Cephes polevl."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y):
    """Standard normal quantile of the float y, bit for bit Cephes ndtri.

    A scalar port of Cephes ndtri in its order of floating-point operations,
    with libm's log and sqrt through math; -inf at 0, inf at 1, NaN outside
    [0, 1].
    """
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        return _central(y - 0.5)
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return x if upper else -x


def _central(d):
    """Cephes ndtri's central branch: the normal quantile of y = 1/2 + d, |d| <= 1/2 - exp(-2)."""
    d2 = d * d
    x = d + d * (d2 * _polevl(d2, _P0) / _polevl(d2, _Q0))
    return x * _S2PI


def _level_z(u):
    """The z with P(|Z| <= z) = u, for the float level u in [0, 1].

    From 1/2 up it is the tail form at 1 - u, which is exact there; below,
    the central branch at u/2, so neither end rounds its level into 1/2 + u/2.
    """
    return _tail_z(1.0 - u) if u >= 0.5 else _central(u / 2.0)


def _tail_z(v):
    """The z with P(|Z| > z) = v, for the float tail v in [0, 1]."""
    return -_ndtri(v / 2.0)


def normal_quantile(confidence):
    """Two-sided z value for the given confidence level."""
    # ndtri, not statistics.NormalDist().inv_cdf, which is 1 ulp off at 0.975
    return _level_z(check_real(confidence, "confidence", 0, 1))


def wilson_interval(p_hat, trials, confidence=0.95):
    """Wilson score interval for a binomial proportion.

    Chosen over the normal approximation because it stays inside [0, 1]
    and behaves sensibly when p_hat is near 0 or 1.

    Parameters
    ----------
    p_hat : observed proportion in [0, 1]
    trials : number of Bernoulli trials (>= 1)
    confidence : two-sided coverage level in (0, 1)

    Returns
    -------
    (lo, hi) : the interval endpoints
    """
    trials = check_int(trials, "trials", 1)
    p = check_real(p_hat, "p_hat", 0, 1, "[]")
    z = normal_quantile(confidence)
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)
