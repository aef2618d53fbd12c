"""Gaussian relative entropy of entanglement for symmetric two-mode states.

After the common beam-splitter diagonalization the minimization over the
separable reference set splits into two independent 1-D transcendental
problems, one per transformed mode.  All entropies are in nats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, OptimizerNoConverge, SupportViolation, UnphysicalState
from .scalar import VACUUM, OneModeCM, SymmetricState, physical_kappa
from .scalar_min import grid_minimize

# minimize_mode: rounding unit, step cap, longest step in t (keeps exp finite),
# and the Newton step in t below which the next one would be of order eps
_EPS = sys.float_info.epsilon
_NEWTON_MAX_STEPS = 200
_MAX_REACH = 64.0
_NEWTON_LAST_STEP = math.sqrt(_EPS)


@dataclass(frozen=True)
class RelEntResult:
    e_s: float
    x1_star: float
    x2_star: float
    q_s1: float
    q_s2: float
    s_n1: float
    s_n2: float


def _entropy_nu(nu: float) -> float:
    """(nu+1/2)ln(nu+1/2) - (nu-1/2)ln(nu-1/2), and 0 for nu <= 1/2 (pure)."""
    return _entropy_excess(nu - 0.5)


def _entropy_excess(x: float) -> float:
    """(x+1)ln(x+1) - x ln x, the entropy at nu = 1/2 + x, and 0 for x <= 0.

    Callers that can form x = nu - 1/2 without cancellation pass it here.
    """
    if x <= 0:
        return 0.0
    return (x + 1) * math.log1p(x) - x * math.log(x)


def von_neumann_entropy(v: OneModeCM) -> float:
    """Entropy of a one-mode Gaussian state, in nats."""
    if not (v.sigma_qq > 0 and v.sigma_pp > 0):
        raise UnphysicalState(f"variances {v.sigma_qq:.6g}, {v.sigma_pp:.6g} must be positive")
    return _entropy_nu(physical_kappa(v.nu, VACUUM, "nu"))  # raises UnphysicalState below 1/2


def rel_entropy_one_mode(vp: OneModeCM, v: OneModeCM) -> float:
    """S(rho'/rho) = Tr[rho (ln rho - ln rho')] for diagonal one-mode CMs.

    ``vp`` describes rho', ``v`` describes rho.  Diverges when rho' is pure
    and different from rho.
    """
    if not v.is_physical() or not vp.is_physical():
        raise UnphysicalState("both one-mode CMs must satisfy sqrt(det) >= 1/2")
    nup = physical_kappa(vp.nu, VACUUM)
    same = (
        abs(v.sigma_qq - vp.sigma_qq) <= 1e-14 * max(1.0, v.sigma_qq)
        and abs(v.sigma_pp - vp.sigma_pp) <= 1e-14 * max(1.0, v.sigma_pp)
    )
    if same:
        return 0.0
    if nup == VACUUM:
        raise SupportViolation("rho' is pure and rho != rho': relative entropy diverges")
    cross = (v.sigma_qq * vp.sigma_pp + v.sigma_pp * vp.sigma_qq) / nup
    return _brace(nup - 0.5, cross - 1) - _entropy_nu(physical_kappa(v.nu, VACUUM))


def mode_objective(x: float, kappa_sq: float, kt: float) -> float:
    """One brace of the two-mode relative entropy as a function of x > 1/2.

    Equals S(rho'/rho) + S_N(rho) for rho with CM diag(kappa_sq/kt, kt) and
    rho' with CM diag(2x^2, 1/2) (mode ordering irrelevant by symmetry):
    (1+g) ln(x+1/2)/2 + (1-g) ln(x-1/2)/2 with g = kappa_sq/(2 x kt) + 2 x kt.
    """
    if x <= 0.5:
        raise DomainError(f"x = {x} must exceed 1/2")
    e = x - 0.5
    return _brace(e, _g_minus_1(e, kappa_sq, kt))


def _brace(e: float, g_minus_1: float) -> float:
    """(1+g) ln(x+1/2)/2 + (1-g) ln(x-1/2)/2 at x = 1/2 + e: the one-mode
    relative-entropy brace -Tr(rho ln rho') for diagonal CMs V of rho and V'
    of rho', with x = sqrt(det V') and g = (v_qq v'_pp + v_pp v'_qq)/x.
    Written ln(x+1/2) + (g-1) L/2 with L = ln((x+1/2)/(x-1/2)), so that no
    two terms cancel at large x, and taken from e itself, so that x -> 1/2
    keeps its digits."""
    return math.log1p(e) + 0.5 * g_minus_1 * math.log1p(1 / e)


def _g_minus_1(e: float, kappa_sq: float, kt: float) -> float:
    """g - 1 = (kappa_sq - 1/4 + (p - 1/2)^2)/p with p = 2 x kt, free of the
    cancellation of g against 1 near a pure mode at kt -> 1/2."""
    p = kt * (1 + 2 * e)
    return (kappa_sq - 0.25 + (2 * kt * e - (0.5 - kt)) ** 2) / p


def _mode_slope(e: float, kappa_sq: float, kt: float) -> tuple[float, float, float]:
    """(f', f'', size of the terms of f') of mode_objective at x = 1/2 + e.

    With D = x^2 - 1/4 = e (x + 1/2), f' = 1/(x+1/2) - (g-1)/(2D) + g' L/2
    and f'' = -1/(x+1/2)^2 - g'/D + (g-1) x/D^2 + g'' L/2, where
    g' = (p^2 - kappa_sq)/(p x) and g'' = 2 kappa_sq/(p x^2).
    """
    x = 0.5 + e
    xp = 1 + e  # x + 1/2
    d = e * xp
    l = math.log1p(1 / e)
    p = kt * (1 + 2 * e)
    gm1 = _g_minus_1(e, kappa_sq, kt)
    g1 = (p * p - kappa_sq) / (p * x)
    f1 = 1 / xp - gm1 / (2 * d) + g1 * l / 2
    f2 = -1 / (xp * xp) - g1 / d + gm1 * x / (d * d) + kappa_sq * l / (p * x * x)
    return f1, f2, 1 / xp + abs(gm1) / (2 * d) + (gm1 + 1) * l / (2 * x)


def minimize_mode(kappa_sq: float, kt: float) -> tuple[float, float]:
    """Global minimum (x*, f(x*)) of mode_objective over (1/2, inf).

    f rises to +inf at both ends and has one stationary point, the root of
    f'.  Newton steps for it are taken in t = ln(x - 1/2), a variable
    without the steep wall at x -> 1/2, from x0 = sqrt(kappa_sq/(2 kt)), the
    root of f' for large x.  A sign bracket [lo, hi] of f' is kept: a step
    that leaves it is replaced by bisection in t, and a step longer than a
    reach, which doubles each time it binds, is cut to it, so an open side
    is widened geometrically.  The solve stops once |f'| is at the rounding
    of its terms, a Newton step falls below sqrt(eps) in t (the step after
    it would be of order eps), or the bracket closes.
    """
    if not 0.0 < kt < 0.5:
        raise DomainError(f"kt = {kt} outside the entangled regime (0, 1/2)")
    if not _g_minus_1(0.0, kappa_sq, kt) > 0:
        # g <= 1 at x = 1/2: f falls to -inf there and has no minimum
        raise DomainError(f"kappa^2 = {kappa_sq} must exceed kt (1 - kt) = {kt * (1 - kt)}")
    lo, hi = 0.0, math.inf  # bracket of x* - 1/2
    x0 = math.sqrt(kappa_sq / (2 * kt))
    e = (2 * kappa_sq - kt) / (4 * kt * (x0 + 0.5))  # x0 - 1/2
    reach = 1.0  # largest step in t
    for _ in range(_NEWTON_MAX_STEPS):
        f1, f2, size = _mode_slope(e, kappa_sq, kt)
        if abs(f1) <= 4 * _EPS * size:
            break
        if f1 < 0:
            lo = e
        else:
            hi = e
        # Newton step in t = ln e: dt = -f'/(df'/dt) = -f'/(e f'')
        step = -f1 / (e * f2) if f2 > 0 else -math.copysign(reach, f1)
        if abs(step) > reach:  # toward a side still open, or a wild step
            step = math.copysign(reach, step)
            reach = min(2 * reach, _MAX_REACH)
        e_next = e * math.exp(step)
        if lo < e_next < hi:
            if abs(step) <= _NEWTON_LAST_STEP:
                e = e_next  # quadratic convergence: its error is of order step^2
                break
        else:
            e_next = math.sqrt(lo * hi)  # bisection in t
        if abs(e_next - e) <= 2 * _EPS * e:
            break
        e = e_next
    else:
        raise OptimizerNoConverge(f"no stationary point in {_NEWTON_MAX_STEPS} steps")
    return 0.5 + e, _brace(e, _g_minus_1(e, kappa_sq, kt))


def _vacuum_floor(kappa: float) -> float:
    """A kappa below 1/2 only by rounding (the state passed is_physical) is 1/2.

    Left below, it can leave a pure mode near kt = 1/2 with g < 1 at x = 1/2,
    where its objective has no minimum.  Unlike ``physical_kappa``, it keeps a kappa
    1/2 + delta in the band above 1/2: E_S is that of the state as given, whose mode
    entropies hold about delta ln(1/delta), far above the rounding of E_S's terms.
    """
    return max(kappa, 0.5)


def rel_ent_entanglement(s: SymmetricState) -> RelEntResult:
    """Minimal relative entropy to separable symmetric scaled standard states.

    The separable candidates are taken on the separability threshold surface;
    the two transformed-mode minimizations are independent, and each
    nonclassicality degree q_s is the per-mode minimum minus the per-mode
    entropy.

    The minimizers satisfy x1* >= x2*, the order a separable candidate needs:
    d(mode_objective)/d(kappa^2) is ln((x+1/2)/(x-1/2)) / (4 x kt), which
    falls with x, so the minimizer is nondecreasing in kappa^2, and
    kappa_+^2 - kappa_-^2 = 2b(c - |d|) >= 0.  The two solves can break the
    order only by rounding, where kappa_+ = kappa_- and the minimizers agree,
    so x1* is raised to x2* there; q_s1 stays mode 1's own minimum.

    E_S is returned nonnegative: near kt = 1/2 it is a difference of O(1)
    terms that cancel to rounding.
    """
    separable = s.is_separable()  # raises UnphysicalState
    kp, km, kt = _vacuum_floor(s.kappa_plus), _vacuum_floor(s.kappa_minus), s.kappa_tilde_minus
    # the modes have CMs diag(kp^2/kt, kt) and diag(kt, km^2/kt): nu = kp, km
    s_n1 = _entropy_nu(kp)
    s_n2 = _entropy_nu(km)
    if separable:
        return RelEntResult(0.0, kp, km, 0.0, 0.0, s_n1, s_n2)
    x1, m1 = minimize_mode(kp * kp, kt)
    x2, m2 = minimize_mode(km * km, kt)
    x1 = max(x1, x2)
    q1 = m1 - s_n1
    q2 = m2 - s_n2
    return RelEntResult(
        e_s=max(q1 + q2, 0.0),
        x1_star=x1,
        x2_star=x2,
        q_s1=q1,
        q_s2=q2,
        s_n1=s_n1,
        s_n2=s_n2,
    )


def grid_rel_ent(s: SymmetricState) -> float:
    """E_S of an entangled state by grid scans of the two mode objectives.

    A check on rel_ent_entanglement that shares its formulas but not its
    minimizer.  Each scan runs on [1/2 + 1e-15, 10 + 2 kappa^2/kt^2]: the
    minimizer grows with the squeezing (x1* = 105 at r = 5, nbar = 1/2), so
    the upper limit grows as kt falls; at weak squeezing it lies about r^2
    above 1/2 (pure states), so the scan starts a few ulp above 1/2.
    """
    import numpy as np

    kt = s.kappa_tilde_minus
    total = 0.0
    for kappa in (_vacuum_floor(s.kappa_plus), _vacuum_floor(s.kappa_minus)):
        f = lambda xs: np.array([mode_objective(x, kappa * kappa, kt) for x in xs])
        _, m = grid_minimize(f, 0.5 + 1e-15, 10.0 + 2.0 * kappa * kappa / (kt * kt))
        total += m - _entropy_nu(kappa)
    return total
