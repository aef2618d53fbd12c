"""Bures-metric Gaussian entanglement of symmetric two-mode Gaussian states.

The closed form depends only on the smallest symplectic eigenvalue of the
partially transposed covariance matrix; ``numeric_max_fidelity`` verifies it
by direct fidelity maximization over separable candidates, with each
beam-splitter mode's maximum in closed form inside one Brent line search
(``scalar_min.golden_section``) over ln X2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, OptimizerNoConverge, UnphysicalState
from .scalar import OneModeCM, SymmetricState, physical_kappa
from .scalar_min import golden_section, resolution

# numeric_max_fidelity: absolute part of the search resolution; e-folds by which the
# ln X2 range reaches past the beam-splitter variances of the given state
_TOL = 1e-11
_MARGIN = 3.0


@dataclass(frozen=True)
class BuresResult:
    e_b: float
    f_max: float
    kappa_tilde_minus: float
    d_bures: float


def max_fidelity_closed(kappa_tilde_minus: float) -> float:
    """Maximal fidelity to the separable set, 2*kt / (kt + 1/2)^2."""
    kt = kappa_tilde_minus
    if not 0.0 < kt <= 0.5:
        raise DomainError(f"kappa_tilde_minus = {kt} outside (0, 1/2]")
    return 2 * kt / (kt + 0.5) ** 2


def bures_entanglement(s: SymmetricState) -> BuresResult:
    """E_B = 1 - sqrt(F_max) = (sqrt(2 kt) - 1)^2 / (2 kt + 1) for entangled states, else 0.

    Written as (1 - 2kt)^2 / ((1 + sqrt(2kt))^2 (1 + 2kt)), and the Bures
    distance sqrt(2 - 2 sqrt(F_max)) as sqrt(2 E_B): near the threshold
    sqrt(2kt) - 1 and 2 - 2 sqrt(F_max) cancel, while 1 - 2kt is exact for
    kt in [1/4, 1/2].  Both hold to a few eps relative as kt -> 1/2.
    """
    kt = s.kappa_tilde_minus
    if s.is_separable():  # raises UnphysicalState
        return BuresResult(e_b=0.0, f_max=1.0, kappa_tilde_minus=kt, d_bures=0.0)
    f_max = max_fidelity_closed(kt)
    e_b = (1 - 2 * kt) ** 2 / ((1 + math.sqrt(2 * kt)) ** 2 * (1 + 2 * kt))
    return BuresResult(e_b=e_b, f_max=f_max, kappa_tilde_minus=kt, d_bures=math.sqrt(2 * e_b))


def one_mode_fidelity(v: OneModeCM, vp: OneModeCM) -> float:
    """Uhlmann fidelity of two undisplaced one-mode Gaussian states.

    F = 1 / (sqrt(Delta + 4*delta) - 2*sqrt(delta)) with
    Delta = det(V + V'), delta = (det V - 1/4)(det V' - 1/4);
    cross-validated against the truncated-Fock-basis fidelity.
    """
    if not v.is_physical() or not vp.is_physical():
        raise UnphysicalState("both one-mode CMs must satisfy sqrt(det) >= 1/2")
    return _fid1(v.sigma_qq, v.sigma_pp, vp.sigma_qq, vp.sigma_pp)


def _fid1(sqq, spp, tqq, tpp) -> float:
    delta_big = (sqq + tqq) * (spp + tpp)
    delta_small = (sqq * spp - 0.25) * (tqq * tpp - 0.25)
    if delta_small < 0:  # roundoff near a pure state
        delta_small = 0.0
    return 1.0 / (math.sqrt(delta_big + 4 * delta_small) - 2 * math.sqrt(delta_small))


def numeric_max_fidelity(s: SymmetricState) -> tuple[float, SymmetricState, float]:
    """Maximize fidelity to separable symmetric scaled standard states.

    Both the given state (taken in standard form II) and every candidate
    (b', c', -|d'|, with equal internal scales u1' = u2' = u') are diagonalized
    by the same 50:50 beam splitter, so the objective is the product of the
    one-mode fidelities of the two beam-splitter modes.  A candidate's modes
    have variances (X1, Y1) = ((b'+c')u', (b'-|d'|)/u') and
    (X2, Y2) = ((b'-c')u', (b'+|d'|)/u').  The separability threshold
    kt' = 1/2 is X2 Y1 = 1/4; the one-mode uncertainty relations are
    a1 = ln(X1/X2) >= 0 and a2 = ln(Y2/Y1) >= 0; and c' >= |d'| is a2 <= a1.
    So for fixed X2 = x2 each mode depends on its own a alone, with a maximum
    in closed form.  For a mode (A, B), k = AB - 1/4 >= 0, and a candidate
    (X, Y) at fixed Y, 1/F = sqrt(AY + 1/4 + B(1 + 4AY) X) - 2 sqrt(k (XY - 1/4))
    tends to +inf as X -> inf and, for k > 0, has slope -inf at XY = 1/4.
    Squared, d(1/F)/dX = 0 is linear in X: the one stationary point is
    X* = A + 1/(4Y) - 1/(4B) (the pure edge 1/(4Y) for k = 0).  Here that is
    a1* = log1p((kappa_+^2 - 1/4)/(kt x2)) and a2* = log1p(4 x2 (kappa_-^2 - 1/4)/kt),
    both >= 0; at x2 = 1/2 they give the variances of sigma*_B.  When
    a2* > a1*, f1 falls past a1* and f2 rises up to a2*: the constrained
    maximum lies on the edge a1 = a2 between them.  The line searches over
    ln x2 (x2 = 1/2 and F_max are found, not assumed) and on that edge are
    Brent's method to ``scalar_min.resolution(x, _TOL)``: the argmax to about
    sqrt(eps) relative, F* to rounding.  A maximum over ln x2 within 4
    resolutions of a range end raises OptimizerNoConverge.

    Returns (f_star, argmax state, argmax scale).
    """
    if s.is_separable():
        raise DomainError("numeric_max_fidelity requires an entangled input")
    kt = s.kappa_tilde_minus
    kp, km = physical_kappa(s.kappa_plus, s.b), physical_kappa(s.kappa_minus, s.b)
    # beam-splitter image of the given form-II state, per mode
    g1q, g1p = kp**2 / kt, kt
    g2q, g2p = kt, km**2 / kt
    # (kappa^2 - 1/4)/kt without cancellation: exactly 0 for a kappa the rule reads as 1/2
    e1, e2 = ((k - 0.5) * (k + 0.5) / kt for k in (kp, km))

    def best_at(w):  # best (f, a1, a2) on the slice ln X2 = w
        x2 = math.exp(w)
        y1 = 0.25 / x2
        f1 = lambda a: _fid1(g1q, g1p, x2 * math.exp(a), y1)
        f2 = lambda a: _fid1(g2q, g2p, x2, y1 * math.exp(a))
        a1, a2 = math.log1p(e1 / x2), math.log1p(4 * x2 * e2)
        if a2 <= a1:
            return f1(a1) * f2(a2), a1, a2
        a, neg = golden_section(lambda z: -(f1(z) * f2(z)), a1, a2, tol=_TOL)
        return -neg, a, a

    g = (g1q, g1p, g2q, g2p)
    w, _ = _argmax(lambda z: best_at(z)[0], math.log(min(g)) - _MARGIN, math.log(max(g)) + _MARGIN)
    f_star, a1, a2 = best_at(w)
    # X1 + X2 = t1 X2 and Y1 + Y2 = t2 Y1 with t >= 2, so b' >= 1/2 after rounding too;
    # c' = (X1 - X2)/(2u') and |d'| = (Y2 - Y1)u'/2 without cancellation
    t1, t2 = 1 + math.exp(a1), 1 + math.exp(a2)
    r = math.sqrt(t1 / t2)
    argmax = SymmetricState(b=math.sqrt(t1 * t2) / 4, c=math.expm1(a1) / (4 * r), d_abs=r * math.expm1(a2) / 4)
    return f_star, argmax, 2 * math.exp(w) * r


def _argmax(f, lo: float, hi: float) -> tuple[float, float]:
    """(x, f(x)) at the maximum of a unimodal f on [lo, hi], by Brent's method.

    Raises OptimizerNoConverge if x lands within 4 resolutions of either end;
    the search returns a maximum at an end within 2 resolutions of it.
    """
    x, neg = golden_section(lambda z: -f(z), lo, hi, tol=_TOL)
    if min(x - lo, hi - x) < 4 * resolution(x, _TOL):
        raise OptimizerNoConverge(f"maximum at x = {x!r} on a search bound of [{lo!r}, {hi!r}]")
    return x, -neg
