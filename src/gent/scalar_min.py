"""Bracketed scalar minimization: Brent's method and grid refinement.

``golden_section`` is Brent's golden-section search with parabolic
interpolation; it places a minimum to ``resolution(x, tol)``, which
``bures._argmax`` also uses to tell a maximum on a search bound.
"""

from __future__ import annotations

import math
import sys

from .errors import BracketFailure

GOLDEN = (3 - math.sqrt(5)) / 2  # 1 - 1/phi: the golden step, as a share of the larger side
SQRT_EPS = math.sqrt(sys.float_info.epsilon)


def resolution(x: float, tol: float) -> float:
    """Brent's resolution at x: sqrt(eps)*|x| + tol/3.

    Function values cannot place a flat minimum more closely than sqrt(eps)
    relative, so the relative term is the accuracy any search on values can
    reach there.  ``golden_section`` stops once both ends of its bracket lie
    within 2 resolutions of x.
    """
    return SQRT_EPS * abs(x) + tol / 3


def golden_section(f, a: float, b: float, tol: float = 1e-10) -> tuple[float, float]:
    """Minimize f on [a, b] by Brent's method; returns (x_min, f(x_min)).

    Golden section with parabolic interpolation (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5): each step fits a parabola
    through the three best points x, w, v and takes its vertex when it lies
    inside the bracket and moves less than half the step before last;
    otherwise it takes a golden step into the larger side.  No step is
    shorter than ``resolution(x, tol)`` and no point outside the open interval
    (a, b) is evaluated.  It stops when both ends of the bracket lie within 2
    resolutions of x, so a minimum at an end is returned within 2 resolutions
    of it.
    """
    a, b = min(a, b), max(a, b)
    x = w = v = a + GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0  # the last step, and the one before it
    while True:
        m = 0.5 * (a + b)
        tol1 = resolution(x, tol)
        tol2 = 2 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, fx
        p = q = r = 0.0
        if abs(e) > tol1:  # vertex of the parabola through x, w, v is x + p/q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2 * (q - r)
            if q > 0:
                p = -p
            q = abs(q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < tol2 or b - (x + d) < tol2:
                d = tol1 if x < m else -tol1
        else:
            e = a - x if x >= m else b - x
            d = GOLDEN * e
        u = x + d if abs(d) >= tol1 else x + math.copysign(tol1, d)
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def bracket_doubling(f, x0: float, step: float, xmax: float = 1e6):
    """Walk right from x0 with doubling steps until f increases.

    Returns (a, b) bracketing the minimum of a function that decreases
    at x0.  Raises BracketFailure if no increase is seen before xmax.
    """
    xa, fa = x0, f(x0)
    xb = x0 + step
    fb = f(xb)
    while fb <= fa:
        xa, fa = xb, fb
        step *= 2.0
        xb = xb + step
        if xb > xmax:
            raise BracketFailure(f"no increase of objective found before x = {xmax:g}")
        fb = f(xb)
    return max(x0, xa - step), xb


def grid_minimize(f, lo: float, hi: float, points: int = 2000, refinements: int = 8):
    """Grid-scan minimizer: coarse scan then repeated local re-gridding.

    ``f`` must accept a numpy array.  Independent of golden_section; used as
    the brute-force oracle for the 1-D transcendental minimizations.
    """
    import numpy as np

    a, b = lo, hi
    xbest, fbest = None, np.inf
    for _ in range(refinements):
        xs = np.linspace(a, b, points)
        ys = f(xs)
        i = int(np.argmin(ys))
        if ys[i] < fbest:
            xbest, fbest = float(xs[i]), float(ys[i])
        # re-grid around the current minimum, never leaving [lo, hi]
        h = (b - a) / (points - 1)
        a = max(lo, xs[i] - 2 * h)
        b = min(hi, xs[i] + 2 * h)
    return xbest, fbest
