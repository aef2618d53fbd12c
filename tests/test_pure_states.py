"""Pure two-mode squeezed vacua symmetric_sts(r) against mpmath, r in [0, 5].

A pure state sits on the vacuum floor kappa_- = 1/2, so rounding in its
entries decides whether it is reported physical, and on which side of 1/2
its kappas fall.
"""

import sys

import mpmath
import numpy as np

from gent.bures import bures_entanglement
from gent.formation import entanglement_of_formation
from gent.relent import rel_ent_entanglement
from gent.standard_forms import symmetric_sts

R_GRID = np.linspace(0.0, 5.0, 20001)
CHECKED_EVERY = 40  # mpmath reference on 501 of the grid points
# E_S of the state as given against 50 digits, from r = 1/2 on, where its O(1) terms
# cancel to no less than E_S ~ 0.7: measured at most 32 eps relative (at r = 0.54)
E_S_REL_TOL = 128 * sys.float_info.epsilon


def _e_b_mp(r):
    with mpmath.workdps(50):
        kt = mpmath.exp(-2 * mpmath.mpf(r)) / 2
        return float((mpmath.sqrt(2 * kt) - 1) ** 2 / (2 * kt + 1))


def _entanglement_entropy_mp(r):
    """Entropy of either reduced state: thermal with nu = cosh(2r)/2."""
    if r == 0:
        return 0.0
    with mpmath.workdps(50):
        nu = mpmath.cosh(2 * mpmath.mpf(r)) / 2
        return float((nu + 0.5) * mpmath.log(nu + 0.5) - (nu - 0.5) * mpmath.log(nu - 0.5))


def _e_s_mp(b, c, x0):
    """E_S of the symmetric state (b, c, -c) as given, kt = b - c and kappa_+-^2 = (b - c)(b + c)
    (read as 1/4 below it): twice the minimum over x of (1+g) ln(x+1/2)/2 + (1-g) ln(x-1/2)/2,
    g = kappa^2/(2 x kt) + 2 x kt, at the root of its derivative near x0, less twice the entropy."""
    with mpmath.workdps(50):
        kt = mpmath.mpf(b - c)
        k2 = max(kt * (mpmath.mpf(b) + c), mpmath.mpf(0.25))
        g = lambda x: k2 / (2 * x * kt) + 2 * x * kt  # noqa: E731
        def slope(x):
            dg = 2 * kt - k2 / (2 * x * x * kt)
            return dg * mpmath.log((x + 0.5) / (x - 0.5)) / 2 + (1 + g(x)) / (2 * x + 1) + (1 - g(x)) / (2 * x - 1)
        x = mpmath.findroot(slope, mpmath.mpf(x0))
        nu = mpmath.sqrt(k2)
        entropy = (nu + 0.5) * mpmath.log(nu + 0.5) - (nu - 0.5) * mpmath.log(nu - 0.5) if nu > 0.5 else 0
        return float((1 + g(x)) * mpmath.log(x + 0.5) + (1 - g(x)) * mpmath.log(x - 0.5) - 2 * entropy)


def test_pure_grid_against_mpmath():
    for i, r in enumerate(R_GRID.tolist()):
        s = symmetric_sts(r)
        assert s.is_physical(), f"pure state at r = {r} reported unphysical"
        e_b = bures_entanglement(s).e_b
        res = rel_ent_entanglement(s)
        e_s = res.e_s
        if i % CHECKED_EVERY:
            continue
        ref = _e_b_mp(r)
        assert abs(e_b - ref) <= 1e-8 * ref, (r, e_b, ref)
        # E_S minimizes over Gaussian separable states only, so it bounds the
        # relative entropy of entanglement, the entanglement entropy of a pure state
        assert e_s >= _entanglement_entropy_mp(r), r
        if r >= 0.5:
            ref = _e_s_mp(s.b, s.c, res.x1_star)
            assert abs(e_s - ref) <= E_S_REL_TOL * ref, (r, e_s, ref)


def test_e_f_is_entanglement_entropy_on_pure_grid():
    # kt = b - c carries a rounding of a few eps b, and dE_F/dkt is about -1/kt
    # (measured at most 1.3 eps b / kt, 3.4e-9 relative, at r = 4.96)
    for r in R_GRID[::CHECKED_EVERY].tolist():
        s = symmetric_sts(r)
        e_f = entanglement_of_formation(s)
        ref = _entanglement_entropy_mp(r)
        assert abs(e_f - ref) <= 4 * sys.float_info.epsilon * s.b / s.kappa_tilde_minus, r
