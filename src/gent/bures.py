"""Bures-metric Gaussian entanglement of symmetric two-mode Gaussian states.

The closed form depends only on the smallest symplectic eigenvalue of the
partially transposed covariance matrix; ``numeric_max_fidelity`` verifies it
by direct fidelity maximization over separable candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cm_core import OneModeCM
from .errors import DomainError, OptimizerNoConverge, UnphysicalState
from .scalar_min import golden_section
from .standard_forms import SymmetricState

# numeric_max_fidelity: starts, sweep cap, seed of the random starts, line-search tolerance
_STARTS = 8
_MAX_SWEEPS = 400
_SEED = 12345
_TOL = 1e-11


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
    """E_B = (sqrt(2 kt) - 1)^2 / (2 kt + 1) for entangled states, else 0."""
    kt = s.kappa_tilde_minus
    if s.is_separable():  # raises UnphysicalState
        return BuresResult(e_b=0.0, f_max=1.0, kappa_tilde_minus=kt, d_bures=0.0)
    f_max = max_fidelity_closed(kt)
    e_b = (math.sqrt(2 * kt) - 1) ** 2 / (2 * kt + 1)
    return BuresResult(
        e_b=e_b,
        f_max=f_max,
        kappa_tilde_minus=kt,
        d_bures=math.sqrt(2 - 2 * math.sqrt(f_max)),
    )


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
    (equal internal scales u1' = u2' = u') are diagonalized by the same 50:50
    beam splitter, so the objective is a product of one-mode fidelities.
    Candidates sit on the separability threshold (b'-|d'|)(b'-c') = 1/4.
    With y = b'-c' and t = |d'|, b' = 1/(4y) + t puts every point of the box
    y in [1/(4 b_cap), 1/2], t in [0, b_cap], u' in [0.05, max(20, 4v)] on
    it as a physical candidate (v = sqrt((b-|d|)/(b-c)) is the form-II
    squeeze, which u* follows), so multi-start coordinate descent runs three
    independent golden-section line searches per sweep.

    Returns (f_star, argmax state, argmax scale).
    """
    if s.is_separable():
        raise DomainError("numeric_max_fidelity requires an entangled input")
    kt = s.kappa_tilde_minus
    v_scale = math.sqrt((s.b - s.d_abs) / (s.b - s.c))
    kp2 = s.kappa_plus**2
    km2 = s.kappa_minus**2

    # beam-splitter image of the given form-II state, per mode
    g1q, g1p = kp2 / kt, kt
    g2q, g2p = kt, km2 / kt

    def neg_product_fidelity(y, t, u):
        bp = 1.0 / (4 * y) + t
        f1 = _fid1(g1q, g1p, (2 * bp - y) * u, 1.0 / (4 * y * u))
        f2 = _fid1(g2q, g2p, y * u, (bp + t) / u)
        return -(f1 * f2)

    b_cap = 20 * s.b + 20
    u_cap = max(20.0, 4 * v_scale)  # u* follows the form-II squeeze v, which reaches 2b
    y_lo = 1.0 / (4 * b_cap)
    rng = np.random.default_rng(_SEED)
    starts = [
        (0.25, max(s.b, 0.6), v_scale),
        (0.45, s.b + 0.2, v_scale),
        (0.10, max(s.b, 2.6), 1.0),
        (0.30, 2 * s.b, v_scale),
    ]
    while len(starts) < _STARTS:
        starts.append(
            (
                rng.uniform(0.03, 0.5),
                rng.uniform(0.55, 3 * s.b + 0.5),
                v_scale * rng.uniform(0.5, 2.0),
            )
        )

    results = []
    for y, bp, u in starts:
        t = max(bp - 1.0 / (4 * y), 0.0)
        for _ in range(_MAX_SWEEPS):
            y0, t0, u0 = y, t, u
            y, _ = golden_section(lambda z: neg_product_fidelity(z, t, u), y_lo, 0.5, tol=_TOL)
            t, _ = golden_section(lambda z: neg_product_fidelity(y, z, u), 0.0, b_cap, tol=_TOL)
            u, _ = golden_section(lambda z: neg_product_fidelity(y, t, z), 0.05, u_cap, tol=_TOL)
            if abs(y - y0) < 1e-9 and abs(t - t0) < 1e-9 and abs(u - u0) < 1e-9:
                break
        results.append((-neg_product_fidelity(y, t, u), y, t, u))

    values = [r[0] for r in results]
    if max(values) - min(values) > 1e-6:
        raise OptimizerNoConverge(
            f"best-value spread across starts is {max(values) - min(values):.3e}"
        )
    f_star, y, t, u = max(results)
    bp = 1.0 / (4 * y) + t
    return f_star, SymmetricState(b=bp, c=bp - y, d_abs=t), u
