import math
import sys

import numpy as np
import pytest

from gent import fock
from gent.cm_core import OneModeCM
from gent.errors import DomainError, SupportViolation, UnphysicalState
from gent.relent import (
    grid_rel_ent,
    minimize_mode,
    mode_objective,
    rel_ent_entanglement,
    rel_entropy_one_mode,
    von_neumann_entropy,
)
from gent.scalar_min import bracket_doubling, golden_section
from gent.standard_forms import SymmetricState, symmetric_sts

from conftest import EQUAL_KT_PAIR, random_entangled_symmetric


def test_entropy_pure_states():
    assert von_neumann_entropy(OneModeCM(0.5, 0.5)) == 0.0
    # squeezed vacuum is pure regardless of the squeeze
    assert von_neumann_entropy(OneModeCM(math.e / 2, 1 / (2 * math.e))) == pytest.approx(
        0.0, abs=1e-9
    )


def test_entropy_thermal():
    expected = 1.5 * math.log(1.5) - 0.5 * math.log(0.5)
    assert von_neumann_entropy(OneModeCM(1.0, 1.0)) == pytest.approx(expected, abs=1e-14)
    rho = fock.gaussian_state_from_cm(OneModeCM(1.0, 1.0), 60)
    assert fock.entropy_fock(rho) == pytest.approx(expected, abs=1e-8)


def test_entropy_rejects_unphysical():
    with pytest.raises(UnphysicalState):
        von_neumann_entropy(OneModeCM(0.4, 0.4))


def test_entropy_rejects_unphysical_large_variance():
    # nu = sqrt(1e6 * 1e-7) = 0.316 has no cancellation, so a large variance earns no allowance
    with pytest.raises(UnphysicalState):
        von_neumann_entropy(OneModeCM(1e6, 1e-7))


def test_rel_entropy_same_state_is_zero():
    v = OneModeCM(0.8, 1.1)
    assert rel_entropy_one_mode(v, v) == 0.0


def test_rel_entropy_vs_fock_oracle():
    rho_cm = OneModeCM(0.5, 0.5)  # vacuum
    rhop_cm = OneModeCM(1.0, 1.0)  # thermal
    value = rel_entropy_one_mode(rhop_cm, rho_cm)
    oracle = fock.rel_entropy_fock(
        fock.gaussian_state_from_cm(rhop_cm, 60), fock.gaussian_state_from_cm(rho_cm, 60)
    )
    assert value == pytest.approx(oracle, abs=1e-8)


@pytest.mark.parametrize("vp, v", [(OneModeCM(0.3, 0.3), OneModeCM(1.0, 1.0)),
                                   (OneModeCM(1.0, 1.0), OneModeCM(0.3, 0.3)),
                                   (OneModeCM(1e3, 1e-4), OneModeCM(0.8, 0.8))])
def test_rel_entropy_refuses_unphysical_input(vp, v):
    with pytest.raises(UnphysicalState):
        rel_entropy_one_mode(vp, v)


def test_rel_entropy_pure_reference_diverges():
    with pytest.raises(SupportViolation):
        rel_entropy_one_mode(OneModeCM(0.5, 0.5), OneModeCM(1.0, 1.0))


def test_mode_objective_value():
    # q-function of the second transformed mode of (b, c, |d|) = (1, 0.8, 0.6)
    val = mode_objective(0.8, 0.32, math.sqrt(0.08))
    assert val == pytest.approx(0.3794183756, abs=1e-8)
    with pytest.raises(DomainError):
        mode_objective(0.5, 0.32, math.sqrt(0.08))


def test_one_mode_rel_entropy_is_the_mode_objective():
    # mode_objective(x, k^2, kt) = S(rho'||rho) + S(rho) for rho of CM
    # diag(k^2/kt, kt) and rho' of CM diag(2x^2, 1/2); both read one brace
    rng = np.random.default_rng(1616)
    eps = sys.float_info.epsilon
    worst = 0.0
    for _ in range(500):
        kt, k, x = rng.uniform(0.01, 0.49), rng.uniform(0.5, 3.0), 0.5 + 10 ** rng.uniform(-6, 1.5)
        entropy = von_neumann_entropy(OneModeCM(k, k))
        g = k * k / (2 * x * kt) + 2 * x * kt
        size = entropy + math.log(x + 0.5) + abs(g - 1) / 2 * math.log((x + 0.5) / (x - 0.5))
        gap = rel_entropy_one_mode(OneModeCM(2 * x * x, 0.5), OneModeCM(k * k / kt, kt)) + entropy
        worst = max(worst, abs(gap - mode_objective(x, k * k, kt)) / size)
    assert worst < 16 * eps


def test_minimize_mode():
    kt = math.sqrt(0.08)
    x1, m1 = minimize_mode(0.72, kt)
    x2, m2 = minimize_mode(0.32, kt)
    assert x1 == pytest.approx(1.1100046, abs=1e-4)
    assert m1 == pytest.approx(0.8521063, abs=1e-6)
    assert x2 == pytest.approx(0.7182794, abs=1e-4)
    assert m2 == pytest.approx(0.3641169, abs=1e-6)
    with pytest.raises(DomainError):
        minimize_mode(0.72, 0.6)
    # kappa^2 <= kt (1 - kt): the objective falls to -inf at x -> 1/2
    with pytest.raises(DomainError):
        minimize_mode(0.2, 0.4)


def _slope_and_size(x, kappa_sq, kt):
    """f'(x) = (x - g/2)/D + g' L/2 of mode_objective, and the size of its terms."""
    g = kappa_sq / (2 * x * kt) + 2 * x * kt
    dg = 2 * kt - kappa_sq / (2 * x * x * kt)
    d = x * x - 0.25
    l = math.log((x + 0.5) / (x - 0.5))
    size = (x + g / 2) / d + (2 * kt + kappa_sq / (2 * x * x * kt)) * l / 2
    return (x - g / 2) / d + dg * l / 2, size


def _golden_mode_minimum(kappa_sq, kt):
    """Reference minimum: a doubling walk from 1/2 + 1e-9, then Brent's method.

    golden_section stops at the resolution sqrt(eps)*|x| + 1e-10/3; at a
    minimum that places x to ~sqrt(eps) relative and the value to rounding.
    """
    f = lambda x: mode_objective(x, kappa_sq, kt)
    a, b = bracket_doubling(f, 0.5 + 1e-9, 1e-4)
    return golden_section(f, a, b, 1e-10)


def test_minimizer_is_stationary_to_rounding(rng):
    # measured at most 3.2 ulp of the terms over these states
    for s in random_entangled_symmetric(rng, 500):
        res = rel_ent_entanglement(s)
        kt = s.kappa_tilde_minus
        for kappa, x in ((s.kappa_plus, res.x1_star), (s.kappa_minus, res.x2_star)):
            slope, size = _slope_and_size(x, kappa * kappa, kt)
            assert abs(slope) <= 8 * sys.float_info.epsilon * size, (s, x)


def test_mode_minima_match_golden_section(rng):
    for s in random_entangled_symmetric(rng, 2000):
        kt = s.kappa_tilde_minus
        for kappa in (s.kappa_plus, s.kappa_minus):
            _, m = minimize_mode(kappa * kappa, kt)
            _, m_ref = _golden_mode_minimum(kappa * kappa, kt)
            assert abs(m - m_ref) <= 1e-13 * (abs(m_ref) + 1), s


@pytest.mark.parametrize("r, nbar", [(3, 0), (5, 0.5), (6, 0.5), (6.5, 0)])
def test_e_s_matches_grid_at_strong_squeezing(r, nbar):
    # x1* reaches about 333 at r = 6.5
    s = symmetric_sts(r, nbar)
    assert abs(rel_ent_entanglement(s).e_s - grid_rel_ent(s)) <= 1e-12


@pytest.mark.parametrize("r", [1e-6, 1e-5])
def test_e_s_matches_grid_at_weak_squeezing(r):
    # the mode minimizers lie about r^2 above 1/2
    s = symmetric_sts(r)
    e_s = rel_ent_entanglement(s).e_s
    assert abs(grid_rel_ent(s) - e_s) <= 1e-10 * e_s


def test_rel_ent_entanglement_reference_state():
    res = rel_ent_entanglement(SymmetricState(1.0, 0.8, 0.6))
    assert res.e_s == pytest.approx(0.1989831, abs=1e-6)
    assert res.e_s == pytest.approx(res.q_s1 + res.q_s2, abs=1e-10)
    assert res.s_n1 == pytest.approx(0.7705897, abs=1e-6)
    assert res.s_n2 == pytest.approx(0.2466504, abs=1e-6)
    assert res.x1_star >= res.x2_star


def test_equal_kappas_log_no_ordering_warning(caplog):
    # c - |d| = eps b puts kappa_+^2 - kappa_-^2 = 2 eps b^2 below the accuracy of x*
    with caplog.at_level("DEBUG"):
        for b in np.linspace(0.71, 1.66, 20):
            for eps in np.logspace(-16, -6, 6):
                res = rel_ent_entanglement(SymmetricState(b, 0.7 * b, 0.7 * b - eps * b))
                assert res.e_s > 0
    assert caplog.records == []


def test_minimizers_keep_order_near_equal_kappas():
    # kappa_+^2 - kappa_-^2 = 2 eps b^2 puts x1* - x2* at or below rounding
    for b in np.linspace(0.71, 1.66, 40):
        for eps in np.logspace(-16, -6, 11):
            res = rel_ent_entanglement(SymmetricState(b, 0.7 * b, 0.7 * b - eps * b))
            assert res.x1_star >= res.x2_star, (b, eps)


@pytest.mark.parametrize("k", range(3, 13))
def test_e_s_nonnegative_near_threshold(k):
    # E_S is a difference of O(1) terms that cancel as kt -> 1/2
    kt = 0.5 - 10.0**-k
    res = rel_ent_entanglement(SymmetricState(1.0, 1.0 - kt, 1.0 - kt))
    assert 0.0 <= res.e_s <= 1e-5


def test_rel_ent_separable_is_zero():
    res = rel_ent_entanglement(SymmetricState(1.0, 0.2, 0.1))
    assert res.e_s == 0.0
    assert res.q_s1 == res.q_s2 == 0.0


def test_rel_ent_rejects_unphysical():
    with pytest.raises(UnphysicalState):
        rel_ent_entanglement(SymmetricState(0.6, 0.55, 0.55))


def test_equal_kt_pair_distinguishes_e_s():
    a, b = EQUAL_KT_PAIR
    assert abs(a.kappa_tilde_minus - b.kappa_tilde_minus) < 1e-12
    e_a = rel_ent_entanglement(a).e_s
    e_b = rel_ent_entanglement(b).e_s
    assert abs(e_a - e_b) > 1e-3
