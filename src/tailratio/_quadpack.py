"""QUADPACK's adaptive quadrature QAGS, ported to Python.

``quad`` runs ``dqagse`` (QAGS) from R. Piessens, E. de Doncker-Kapenga,
C. W. Ueberhuber and D. K. Kahaner, *QUADPACK* (Springer, 1983).  It
bisects the subinterval with the largest error estimate, integrates each
half with the 21-point Gauss-Kronrod rule (``dqk21``), keeps the error
list ordered (``dqpsrt``) and accelerates the sequence of area estimates
with Wynn's epsilon algorithm (``dqelg``).

The floating-point operations are those of the Fortran, in its order, so a
result equals that of SciPy's ``quad`` with ``full_output=1`` bit for bit:
value, error estimate, evaluation count and subinterval count.  That is why
lists are indexed from 1 (slot 0 unused) and keep QUADPACK's names,
comparisons keep their original sense (a NaN takes the same branch) and
sums are plain running sums (``sum`` compensates from Python 3.12).  The
integrand is called with one float at a time.
"""

import math
from typing import NamedTuple

_EPMACH = 2.220446049250313e-16  # d1mach(4): relative machine precision
_UFLOW = 2.2250738585072014e-308  # d1mach(1): smallest normal number
_OFLOW = 1.7976931348623157e308  # d1mach(2): largest finite number

# 21-point Kronrod abscissae in descending order, xgk[1], xgk[3], ... being
# the 10-point Gauss abscissae; xgk[10] is the centre
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# (Gauss weight, Kronrod weight, abscissa) of the Gauss nodes, then the
# Kronrod-only nodes, in the order dqk21 visits them
_GAUSS_NODES = tuple(zip(_WG, _WGK[1::2], _XGK[1::2]))
_KRONROD_NODES = tuple(zip(_WGK[0:10:2], _XGK[0:10:2]))


# QUADPACK's flag `ier`, indexed by its value
IER_REASONS = (
    "converged",
    "limit subintervals used",
    "round-off",  # round-off stopped the tolerance being met
    "bad integrand behaviour",
    "extrapolation did not converge",
    "integral probably divergent",
)


class QuadResult(NamedTuple):
    """What QUADPACK returns: the integral, its error bound and the work done.

    `ier` is QUADPACK's flag, explained by IER_REASONS[ier].
    """

    value: float
    abserr: float
    neval: int
    ier: int
    last: int


def _qk21(f, a, b):
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule on [a, b]."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = float(f(centr))
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j, (wg, wgk, xgk) in enumerate(_GAUSS_NODES):
        absc = hlgth * xgk
        fval1 = float(f(centr - absc))
        fval2 = float(f(centr + absc))
        fv1[2 * j + 1] = fval1
        fv2[2 * j + 1] = fval2
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    for j, (wgk, xgk) in enumerate(_KRONROD_NODES):
        absc = hlgth * xgk
        fval1 = float(f(centr - absc))
        fval2 = float(f(centr + absc))
        fv1[2 * j] = fval1
        fv2[2 * j] = fval2
        fsum = fval1 + fval2
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord[1:] ordering elist descending after a bisection.

    Returns (maxerr, errmax, nrmax): the interval to bisect next, its error
    estimate and its position in iord.
    """
    if last > 2:
        errmax = elist[maxerr]
        # a bisection raised the error estimate: move errmax up the list
        while nrmax > 1:
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only the intervals that can still be bisected are kept in order
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        i = nrmax + 1
        while i <= jbnd:  # insert errmax top-down
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
            i += 1
        if i > jbnd:  # label 50
            iord[jbnd] = maxerr
            iord[jupbn] = last
        else:  # label 60: insert errmin bottom-up
            iord[i - 1] = maxerr
            k = jbnd
            while k >= i:
                isucc = iord[k]
                if errmin < elist[isucc]:
                    break
                iord[k + 1] = isucc
                k -= 1
            iord[k + 1] = last
    else:
        iord[1] = 1
        iord[2] = 2
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one step of the epsilon algorithm on epstab[1:n + 1].

    Updates epstab and res3la (the last three results) in place and returns
    (n, result, abserr, nres) with the table's new length n.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        converged = False
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged
                result = res
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            # two close elements, or irregular behaviour: drop part of the table
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr = error
                result = res
        if not converged:  # label 50: shift the table
            if n == limexp:
                n = 2 * (limexp // 2) - 1
            ib = 2 if num % 2 == 0 else 1
            for _ in range(newelm + 1):
                epstab[ib] = epstab[ib + 2]
                ib += 2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx += 1
            if nres < 4:
                res3la[nres] = result
                abserr = _OFLOW
            else:
                abserr = (
                    abs(result - res3la[3])
                    + abs(result - res3la[2])
                    + abs(result - res3la[1])
                )
                res3la[1] = res3la[2]
                res3la[2] = res3la[3]
                res3la[3] = result
    abserr = max(abserr, 5.0 * _EPMACH * abs(result))
    return n, result, abserr, nres


def quad(f, a, b, epsabs, epsrel, limit):
    """dqagse: integrate f over [a, b], a <= b, to max(epsabs, epsrel*|I|).

    Bisects the subinterval of largest error until the summed error meets
    the tolerance or `limit` subintervals are used.  The intervals not wider
    than `small` form the finest scale; once their errors dominate, the
    sequence of areas is extrapolated and `small` halved.  Returns a
    QuadResult.
    """
    # QUADPACK's ier = 6, which SciPy's quad raises as ValueError
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29):
        raise ValueError(f"tolerance epsabs={epsabs}, epsrel={epsrel} cannot be met")
    result, abserr, defabs, resasc = _qk21(f, a, b)
    errbnd = max(epsabs, epsrel * abs(result))
    ier = 0
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resasc) or abserr == 0.0:
        return QuadResult(result, abserr, 21, ier, 1)

    unset = [0.0] * (limit - 1)
    alist = [0.0, a, *unset]  # interval i is [alist[i], blist[i]], with integral rlist[i]
    blist = [0.0, b, *unset]
    rlist = [0.0, result, *unset]
    elist = [0.0, abserr, *unset]  # and error estimate elist[i]
    iord = [0, 1, *[0] * (limit - 1)]  # interval numbers by error estimate, largest first
    small = abs(b - a) * 0.375
    rlist2 = [0.0] * 53  # the epsilon table, 52 entries
    res3la = [0.0] * 4
    rlist2[1] = result
    maxerr = 1
    errmax = abserr
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    ierro = 0
    correc = 0.0
    ksgn = 1 if abs(result) >= (1.0 - 50.0 * _EPMACH) * defabs else -1

    summed = False
    for last in range(2, limit + 1):
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2  # round-off
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4  # the interval can no longer be halved
        # the halves go to maxerr and last, the one of larger error at maxerr
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:  # label 80
            erlarg = errsum  # the summed error of the intervals wider than small
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # bisect the wide intervals first while their errors dominate
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
            wide_next = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    wide_next = True
                    break
                nrmax += 1
            if wide_next:
                continue
        numrl2 += 1  # extrapolate
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        # bisect the largest error again, now down to a finer scale
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    neval = 42 * last - 21
    if not summed and (abserr == _OFLOW or ier + ierro != 0):
        # label 100: keep the extrapolation unless the plain sum of the
        # areas has the smaller relative error
        summed = abserr == _OFLOW
        if not summed:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                summed = True
            elif area == 0.0:
                return QuadResult(result, abserr, neval, ier - 1 if ier > 2 else ier, last)
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    elif not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        # divergence test; a zero area divides as in IEEE arithmetic
        ratio = result / area if area != 0.0 else (math.inf if result != 0.0 else math.nan)
        if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
            ier = 6
    return QuadResult(result, abserr, neval, ier - 1 if ier > 2 else ier, last)
