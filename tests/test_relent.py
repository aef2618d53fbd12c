import math

import numpy as np
import pytest

from gent import fock
from gent.cm_core import OneModeCM
from gent.errors import DomainError, SupportViolation, UnphysicalState
from gent.relent import (
    minimize_mode,
    mode_objective,
    rel_ent_entanglement,
    rel_entropy_one_mode,
    von_neumann_entropy,
)
from gent.standard_forms import SymmetricState

from conftest import EQUAL_KT_PAIR


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


def test_rel_entropy_pure_reference_diverges():
    with pytest.raises(SupportViolation):
        rel_entropy_one_mode(OneModeCM(0.5, 0.5), OneModeCM(1.0, 1.0))


def test_mode_objective_value():
    # q-function of the second transformed mode of (b, c, |d|) = (1, 0.8, 0.6)
    val = mode_objective(0.8, 0.32, math.sqrt(0.08))
    assert val == pytest.approx(0.3794183756, abs=1e-8)
    with pytest.raises(DomainError):
        mode_objective(0.5, 0.32, math.sqrt(0.08))


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
