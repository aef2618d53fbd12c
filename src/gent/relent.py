"""Gaussian relative entropy of entanglement for symmetric two-mode states.

After the common beam-splitter diagonalization the minimization over the
separable reference set splits into two independent 1-D transcendental
problems, one per transformed mode.  All entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cm_core import OneModeCM
from .errors import DomainError, SupportViolation, UnphysicalState
from .scalar_min import bracket_doubling, golden_section, grid_minimize
from .standard_forms import SymmetricState

_PURE_TOL = 1e-12


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
    x = nu - 0.5
    if x <= 0:
        return 0.0
    return (nu + 0.5) * math.log(nu + 0.5) - x * math.log(x)


def von_neumann_entropy(v: OneModeCM) -> float:
    """Entropy of a one-mode Gaussian state, in nats."""
    if not v.is_physical():
        raise UnphysicalState(f"nu = {v.nu:.6g} < 1/2")
    return _entropy_nu(v.nu)


def rel_entropy_one_mode(vp: OneModeCM, v: OneModeCM) -> float:
    """S(rho'/rho) = Tr[rho (ln rho - ln rho')] for diagonal one-mode CMs.

    ``vp`` describes rho', ``v`` describes rho.  Diverges when rho' is pure
    and different from rho.
    """
    if not v.is_physical() or not vp.is_physical():
        raise UnphysicalState("both one-mode CMs must satisfy sqrt(det) >= 1/2")
    nup = vp.nu
    same = (
        abs(v.sigma_qq - vp.sigma_qq) <= 1e-14 * max(1.0, v.sigma_qq)
        and abs(v.sigma_pp - vp.sigma_pp) <= 1e-14 * max(1.0, v.sigma_pp)
    )
    if same:
        return 0.0
    if nup - 0.5 <= _PURE_TOL:
        raise SupportViolation("rho' is pure and rho != rho': relative entropy diverges")
    cross = (v.sigma_qq * vp.sigma_pp + v.sigma_pp * vp.sigma_qq) / nup
    return (
        -_entropy_nu(v.nu)
        + 0.5 * math.log(nup + 0.5) * (1 + cross)
        + 0.5 * math.log(nup - 0.5) * (1 - cross)
    )


def mode_objective(x: float, kappa_sq: float, kt: float) -> float:
    """One brace of the two-mode relative entropy as a function of x > 1/2.

    Equals S(rho'/rho) + S_N(rho) for rho with CM diag(kappa_sq/kt, kt) and
    rho' with CM diag(2x^2, 1/2) (mode ordering irrelevant by symmetry).
    """
    if x <= 0.5:
        raise DomainError(f"x = {x} must exceed 1/2")
    cross = (kappa_sq + 4 * x * x * kt * kt) / (2 * x * kt)
    return 0.5 * math.log(x + 0.5) * (1 + cross) + 0.5 * math.log(x - 0.5) * (1 - cross)


def minimize_mode(kappa_sq: float, kt: float, tol: float = 1e-10) -> tuple[float, float]:
    """Global minimum of mode_objective over (1/2, inf).

    The objective diverges to +inf at both ends in the entangled regime, so a
    doubling walk from just above 1/2 brackets the single interior minimum.
    """
    if not 0.0 < kt < 0.5:
        raise DomainError(f"kt = {kt} outside the entangled regime (0, 1/2)")
    f = lambda x: mode_objective(x, kappa_sq, kt)
    a, b = bracket_doubling(f, 0.5 + 1e-9, 1e-4)
    return golden_section(f, a, b, tol)


def rel_ent_entanglement(s: SymmetricState) -> RelEntResult:
    """Minimal relative entropy to separable symmetric scaled standard states.

    The separable candidates are taken on the separability threshold surface;
    the two transformed-mode minimizations are independent, and each
    nonclassicality degree q_s is the per-mode minimum minus the per-mode
    entropy.

    The minimizers keep x1* >= x2*, the order a separable candidate needs,
    without a constraint: d(mode_objective)/d(kappa^2) is
    ln((x+1/2)/(x-1/2)) / (4 x kt), which falls with x, so the minimizer is
    nondecreasing in kappa^2, and kappa_+^2 - kappa_-^2 = 2b(c - |d|) >= 0.
    """
    separable = s.is_separable()  # raises UnphysicalState
    kp, km, kt = s.kappa_plus, s.kappa_minus, s.kappa_tilde_minus
    mode1 = OneModeCM(kp * kp / kt, kt)
    mode2 = OneModeCM(kt, km * km / kt)
    s_n1 = _entropy_nu(mode1.nu)
    s_n2 = _entropy_nu(mode2.nu)
    if separable:
        return RelEntResult(0.0, kp, km, 0.0, 0.0, s_n1, s_n2)
    x1, m1 = minimize_mode(kp * kp, kt)
    x2, m2 = minimize_mode(km * km, kt)
    q1 = m1 - s_n1
    q2 = m2 - s_n2
    return RelEntResult(
        e_s=q1 + q2,
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
    minimizer.  Each scan runs on (1/2, 10 + 2 kappa^2/kt^2]: the minimizer
    grows with the squeezing (x1* = 105 at r = 5, nbar = 1/2), so the upper
    limit grows as kt falls.
    """
    kt = s.kappa_tilde_minus
    total = 0.0
    for kappa in (s.kappa_plus, s.kappa_minus):
        f = lambda xs: np.array([mode_objective(x, kappa * kappa, kt) for x in xs])
        _, m = grid_minimize(f, 0.5 + 1e-9, 10.0 + 2.0 * kappa * kappa / (kt * kt))
        total += m - _entropy_nu(kappa)
    return total
