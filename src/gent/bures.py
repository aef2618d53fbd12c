"""Bures-metric Gaussian entanglement of symmetric two-mode Gaussian states.

The closed form depends only on the smallest symplectic eigenvalue of the
partially transposed covariance matrix; ``numeric_max_fidelity`` verifies it
by direct fidelity maximization over separable candidates, as nested
one-dimensional searches over the variances of the beam-splitter modes.  Each
search is Brent's method (``scalar_min.golden_section``) and places its
maximum to Brent's resolution, sqrt(eps)*|x| + tol/3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, OptimizerNoConverge, UnphysicalState
from .scalar import OneModeCM, SymmetricState
from .scalar_min import golden_section, resolution

# numeric_max_fidelity: absolute part of the search resolution; e-folds by which each
# search range reaches past the variances of the given state
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
    So for fixed X2 the first mode depends on a1 alone and the second on a2
    alone: a line search over ln X2 runs one line search per mode, and a
    second one along the edge a1 = a2 when the two one-mode maxima violate
    a2 <= a1.  Every line search is Brent's method to the resolution
    ``scalar_min.resolution(x, _TOL)``, so the argmax is placed to about
    sqrt(eps) relative and F* to rounding.  A maximum within 4 resolutions of
    a search-range end that is not a physical edge raises OptimizerNoConverge.

    Returns (f_star, argmax state, argmax scale).
    """
    if s.is_separable():
        raise DomainError("numeric_max_fidelity requires an entangled input")
    kt = s.kappa_tilde_minus
    # beam-splitter image of the given form-II state, per mode
    g1q, g1p = s.kappa_plus**2 / kt, kt
    g2q, g2p = kt, s.kappa_minus**2 / kt

    def best_at(w):  # best (f, a1, a2) on the slice ln X2 = w
        x2 = math.exp(w)
        y1 = 0.25 / x2
        f1 = lambda a: _fid1(g1q, g1p, x2 * math.exp(a), y1)
        f2 = lambda a: _fid1(g2q, g2p, x2, y1 * math.exp(a))
        # a1 and a2 reach X1 = max(x2, 4 g1q) e^_MARGIN and Y2 = max(y1, 4 g2p) e^_MARGIN
        a1, v1 = _argmax(f1, 0.0, max(0.0, math.log(4 * g1q / x2)) + _MARGIN, physical_lo=True)
        a2, v2 = _argmax(f2, 0.0, max(0.0, math.log(16 * g2p * x2)) + _MARGIN, physical_lo=True)
        if a2 <= a1:
            return v1 * v2, a1, a2
        # f1 falls past a1 and f2 rises up to a2: the constrained maximum is on [a1, a2]
        a, neg = golden_section(lambda z: -(f1(z) * f2(z)), a1, a2, tol=_TOL)
        return -neg, a, a

    g = (g1q, g1p, g2q, g2p)
    w_lo, w_hi = math.log(min(g)) - _MARGIN, math.log(max(g)) + _MARGIN
    w, _ = _argmax(lambda z: best_at(z)[0], w_lo, w_hi)
    f_star, a1, a2 = best_at(w)
    x2 = math.exp(w)
    y1 = 0.25 / x2
    x_sum, y_sum = x2 * (1 + math.exp(a1)), y1 * (1 + math.exp(a2))
    u = math.sqrt(x_sum / y_sum)
    bp = math.sqrt(x_sum * y_sum) / 2
    cp = bp - x2 / u
    tp = cp if a1 == a2 else bp - y1 * u
    return f_star, SymmetricState(b=bp, c=cp, d_abs=tp), u


def _argmax(f, lo: float, hi: float, physical_lo: bool = False) -> tuple[float, float]:
    """(x, f(x)) at the maximum of a unimodal f on [lo, hi], by Brent's method.

    Raises OptimizerNoConverge if x lands within 4 resolutions of an end that
    is only a search bound (hi always, lo unless it is a physical edge); the
    search returns a maximum at an end within 2 resolutions of it.
    """
    x, neg = golden_section(lambda z: -f(z), lo, hi, tol=_TOL)
    end_tol = 4 * resolution(x, _TOL)
    if hi - x < end_tol or (not physical_lo and x - lo < end_tol):
        raise OptimizerNoConverge(f"maximum at x = {x!r} on a search bound of [{lo!r}, {hi!r}]")
    return x, -neg
