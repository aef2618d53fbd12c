"""The Fock oracle attains both closed-form measures at the closest separable states.

For a symmetric state in standard form II, both closest separable states are
diagonal behind the 50:50 beam splitter M of ``bs_symplectic(pi/2)``, on the
face X2 = Y1 = 1/2 of the candidates' beam-splitter variances:
  sigma*_B = M diag(g1q + 1/2 - 1/(4 kt), 1/2, 1/2, g2p + 1/2 - 1/(4 kt)) M^T,
    with g1q = kappa_+^2 / kt and g2p = kappa_-^2 / kt;
  sigma*_S = M diag(2 x1*^2, 1/2, 1/2, 2 x2*^2) M^T, from ``rel_ent_entanglement``.
The oracle's F(rho, sigma*_B) and S(rho || sigma*_S) must reach F_max and E_S
as the cutoff grows, which checks the closed forms end to end, not only as the
one-sided bound of criterion 2.
"""

import math

import numpy as np

from gent import cm_core, fock
from gent.bures import bures_entanglement
from gent.optics import BeamSplitterParams, bs_symplectic
from gent.relent import rel_ent_entanglement
from gent.standard_forms import form_II_symmetric

from conftest import random_entangled_symmetric


def _closest_separable_pairs():
    """(rho, sigma*_B, F_max, sigma*_S, E_S) as CMs and values for six seeded entangled states."""
    m = bs_symplectic(BeamSplitterParams(math.pi / 2))
    out = []
    for s in random_entangled_symmetric(np.random.default_rng(202), 6, b_lo=0.55, b_hi=1.2):
        kt = s.kappa_tilde_minus
        g1q, g2p = s.kappa_plus**2 / kt, s.kappa_minus**2 / kt
        sigma_b = m @ np.diag([g1q + 0.5 - 0.25 / kt, 0.5, 0.5, g2p + 0.5 - 0.25 / kt]) @ m.T
        rel = rel_ent_entanglement(s)
        sigma_s = m @ np.diag([2 * rel.x1_star**2, 0.5, 0.5, 2 * rel.x2_star**2]) @ m.T
        for sigma in (sigma_b, sigma_s):
            # physical and separable, on the threshold: kt = 1/2 within 6.1e-16 measured
            assert cm_core.is_physical(sigma) and cm_core.is_separable(sigma)
            assert abs(cm_core.symplectic_spectrum(sigma).kappa_tilde_minus - 0.5) < 1e-14
        out.append((form_II_symmetric(s)[1], sigma_b, bures_entanglement(s).f_max, sigma_s, rel.e_s))
    return out


def test_oracle_attains_both_measures_at_the_closest_separable_states():
    # measured worst gaps (F, S): 5.7e-9 and 1.6e-4 at N = 20, 2.8e-13 and
    # 3.1e-6 at N = 30; the slow S is the kt = 0.446 state
    pairs = _closest_separable_pairs()
    worst = {}
    for n in (20, 30):
        gap_f = gap_s = 0.0
        for rho_cm, sigma_b, f_max, sigma_s, e_s in pairs:
            rho = fock.gaussian_state_from_cm(rho_cm, n)
            gap_f = max(gap_f, abs(fock.fidelity_fock(rho, fock.gaussian_state_from_cm(sigma_b, n)) - f_max))
            gap_s = max(gap_s, abs(fock.rel_entropy_fock(fock.gaussian_state_from_cm(sigma_s, n), rho) - e_s))
        worst[n] = gap_f, gap_s
    assert worst[30][0] < worst[20][0] and worst[30][1] < worst[20][1]
    assert worst[30][0] < 1e-12 and worst[30][1] < 1e-5
