"""Scalar root finding: Brent's method on a sign-changing bracket.

`brentq` performs the floating-point operations of the classic C routine
brentq.c (R. P. Brent, Algorithms for Minimization without Derivatives,
1973) in the same order, so its roots agree with that routine's bit for
bit, and it checks its arguments and raises its errors the same way.
"""

import math
import sys

# default tolerances and iteration limit of the classic routine
XTOL = 2e-12
RTOL = 4.0 * sys.float_info.epsilon
MAXITER = 100


def brentq(f, a, b, xtol=XTOL, rtol=RTOL, maxiter=MAXITER):
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    The returned x lies within xtol + rtol*|x| of a sign change of f.
    Raises ValueError for a bad tolerance, a negative maxiter, a bracket
    without a sign change or a NaN value of f, and RuntimeError when
    maxiter iterations do not converge.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        # the tolerance is 2*delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if abs(spre) < bound:
                bound = abs(spre)
            if 2 * abs(stry) < bound:
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _signbit(x):
    return math.copysign(1.0, x) < 0
