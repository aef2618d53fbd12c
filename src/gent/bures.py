"""Bures-metric Gaussian entanglement of symmetric two-mode Gaussian states.

The closed form depends only on the smallest symplectic eigenvalue of the
partially transposed covariance matrix; ``numeric_max_fidelity`` verifies it
by direct fidelity maximization over separable candidates, with each
beam-splitter mode's maximum in closed form and one Brent root solve
(``scalar_min.falling_root``) for the zero of their product's slope in ln X2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .scalar import OneModeCM, SymmetricState, physical_kappa
from .scalar_min import falling_root

# numeric_max_fidelity: e-folds by which the ln X2 range reaches past the beam-splitter
# variances of the given state
_MARGIN = 3.0
# _fid1: 2^-514, whose square brings Delta and delta back into the float range
_OVERFLOW_SCALE = 2.0**-514


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
    Delta = det(V + V'), delta = (det V - 1/4)(det V' - 1/4), evaluated as
    (sqrt(Delta + 4*delta) + 2*sqrt(delta)) / Delta, whose terms do not cancel;
    cross-validated against the truncated-Fock-basis fidelity.
    ``OneModeCM.physical_nu`` reads and refuses each CM.
    """
    v.physical_nu()
    vp.physical_nu()
    return _fid1(v.sigma_qq, v.sigma_pp, vp.sigma_qq, vp.sigma_pp)


def _fid1(sqq, spp, tqq, tpp) -> float:
    """F of the diagonal one-mode CMs (sqq, spp) and (tqq, tpp), to a few eps relative.

    The two roots of the reciprocal form are each about 2 det V and cancel to 1/F;
    their product is Delta, so F = (sqrt(Delta + 4 delta) + 2 sqrt(delta)) / Delta.
    Where Delta + 4 delta overflows, though each det V is finite, Delta and delta
    are scaled by 2^-1028 (exact) and F by the square root of that.
    """
    q, p = sqq + tqq, spp + tpp
    u, v = sqq * spp - 0.25, tqq * tpp - 0.25
    delta_big, delta_small = q * p, u * v
    if delta_small < 0:  # roundoff near a pure state
        u = delta_small = 0.0
    radicand, scale = delta_big + 4 * delta_small, 1.0
    if radicand == math.inf:
        scale = _OVERFLOW_SCALE
        delta_big, delta_small = (q * scale) * (p * scale), (u * scale) * (v * scale)
        radicand = delta_big + 4 * delta_small
    return scale * (math.sqrt(radicand) + 2 * math.sqrt(delta_small)) / delta_big


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
    X1* = x2 + (kappa_+^2 - 1/4)/kt and Y2* = 1/(4 x2) + (kappa_-^2 - 1/4)/kt,
    so a1* = log1p((kappa_+^2 - 1/4)/(kt x2)) and a2* = log1p(4 x2 (kappa_-^2 - 1/4)/kt),
    both >= 0; at x2 = 1/2 they give the variances of sigma*_B.

    The product U(x2) of the two modes' maxima bounds the family's fidelity
    on the slice from above, whether or not a2* <= a1*.  One root solve over
    w = ln x2 finds the zero x2* of the slope h(w) = d ln U/dw; the candidate
    there with a2 = min(a2*, a1*) is in the family, and its fidelity F* is
    returned.  So F* is attained and the family maximum is at most max U,
    which the root reaches as U(x2*) to rounding.  Each a* is stationary for
    its mode, so h is the derivative at fixed a1, a2 (the envelope theorem):
    there both modes move along (X, Y) -> (X e^s, Y e^-s), which fixes XY and
    so delta, and d(1/F)/ds = (XB - YA)/(2 sqrt(Delta + 4 delta)) per mode.
    Why the gap closes (the code finds x2 = 1/2 and F_max, and assumes
    neither): a mode's maximum is 1/F = (B + Y)/(2 sqrt(BY)), free of A (sympy,
    with AB >= 1/4), so U(x2) = 2 kt / ((kt + 1/(4 x2)) (kt + x2)), which is at
    most 2 kt / (kt + 1/2)^2 = F_max by AM-GM, with equality only at x2 = 1/2,
    where kappa_+ >= kappa_- gives a2* <= a1*; h falls from 1 to -1 through
    its one zero there.  The root solve is Brent's method
    (``scalar_min.falling_root``): x2* and F* to rounding.  A slope that is
    not positive at the lower end of the ln x2 range and negative at the
    upper raises OptimizerNoConverge.

    Returns (f_star, argmax state, argmax scale).
    """
    if s.is_separable():
        raise DomainError("numeric_max_fidelity requires an entangled input")
    kt = s.kappa_tilde_minus
    kp, km = physical_kappa(s.kappa_plus, s.b), physical_kappa(s.kappa_minus, s.b)
    # beam-splitter image of the given form-II state, per mode: (g1q, kt) and (kt, g2p)
    g1q, g2p = kp**2 / kt, km**2 / kt
    # (kappa^2 - 1/4)/kt without cancellation: exactly 0 for a kappa the rule reads as 1/2
    e1, e2 = (kp - 0.5) * (kp + 0.5) / kt, (km - 0.5) * (km + 0.5) / kt
    # each mode's delta at its maximum on the slice: kt e1 (X1* y1 - 1/4) = kt e1^2 y1, kt e2^2 x2
    k1, k2 = kt * e1 * e1, kt * e2 * e2

    def slope(w):  # h(w) on the slice ln X2 = w, written out: the verifier's inner loop
        # each mode's d ln F/ds = (YA - XB) F/(2 sqrt(Delta + 4 delta)), F in the conjugate form,
        # for mode 1 (g1q, kt) at (X1*, y1) and mode 2 (kt, g2p) at (x2, Y2*)
        x2 = math.exp(w)
        y1 = 0.25 / x2
        big1, delta1 = (g1q + x2 + e1) * (kt + y1), k1 * y1
        big2, delta2 = (kt + x2) * (g2p + y1 + e2), k2 * x2
        root1, root2 = math.sqrt(big1 + 4 * delta1), math.sqrt(big2 + 4 * delta2)
        return ((y1 * g1q - (x2 + e1) * kt) * (root1 + 2 * math.sqrt(delta1)) / (root1 * big1)
                + ((y1 + e2) * kt - x2 * g2p) * (root2 + 2 * math.sqrt(delta2)) / (root2 * big2)) / 2

    g = (g1q, kt, g2p)
    x2 = math.exp(falling_root(slope, math.log(min(g)) - _MARGIN, math.log(max(g)) + _MARGIN))
    y1 = 0.25 / x2
    y2 = y1 + e2
    m1, m2 = e1 / x2, 4 * x2 * e2  # e^a - 1 at each mode's maximum
    if m2 > m1:  # a2* > a1*: clip a2 to a1 (c' = |d'|), so the candidate is in the family
        m2, y2 = m1, y1 * (1 + m1)
    f_star = _fid1(g1q, kt, x2 + e1, y1) * _fid1(kt, g2p, x2, y2)
    # X1 + X2 = t1 X2 and Y1 + Y2 = t2 Y1 with t >= 2, so b' >= 1/2 after rounding too;
    # c' = (X1 - X2)/(2u') and |d'| = (Y2 - Y1)u'/2 without cancellation
    t1, t2 = 2 + m1, 2 + m2
    r = math.sqrt(t1 / t2)
    argmax = SymmetricState(b=math.sqrt(t1 * t2) / 4, c=m1 / (4 * r), d_abs=r * m2 / 4)
    return f_star, argmax, 2 * x2 * r
