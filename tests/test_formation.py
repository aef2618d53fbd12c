import math

import numpy as np
import pytest

from gent.bures import bures_entanglement
from gent.errors import UnphysicalState
from gent.formation import entanglement_of_formation
from gent.relent import rel_ent_entanglement
from gent.standard_forms import SymmetricState

from conftest import E_S_REVERSAL_PAIR, EQUAL_KT_PAIR, random_entangled_symmetric


def test_e_f_reference_state():
    # kt = sqrt(0.08): c- = (1 - 2 kt)^2 / (8 kt), E_F = (c- + 1) ln(c- + 1) - c- ln c-
    kt = math.sqrt(0.08)
    c_minus = (1 - 2 * kt) ** 2 / (8 * kt)
    expected = (c_minus + 1) * math.log(c_minus + 1) - c_minus * math.log(c_minus)
    e_f = entanglement_of_formation(SymmetricState(1.0, 0.8, 0.6))
    assert e_f == pytest.approx(expected, rel=1e-14)
    assert e_f == pytest.approx(0.2938648, abs=1e-7)


def test_e_f_separable_is_zero():
    assert entanglement_of_formation(SymmetricState(1.0, 0.2, 0.1)) == 0.0
    with pytest.raises(UnphysicalState):
        entanglement_of_formation(SymmetricState(0.6, 0.55, 0.55))


def test_e_f_vanishes_continuously_at_threshold():
    # c- is formed as a square, so E_F falls smoothly to 0 as kt -> 1/2
    prev = math.inf
    for k in range(2, 12):
        kt = 0.5 - 10.0**-k
        e_f = entanglement_of_formation(SymmetricState(1.0, 1.0 - kt, 1.0 - kt))
        assert 0.0 < e_f < prev
        prev = e_f


def test_e_f_is_a_function_of_kt():
    a, b = EQUAL_KT_PAIR
    assert entanglement_of_formation(a) == pytest.approx(entanglement_of_formation(b), abs=1e-14)


def test_e_b_orders_states_as_e_f(rng):
    states = random_entangled_symmetric(rng, 200)
    e_f = np.array([entanglement_of_formation(s) for s in states])
    e_b = np.array([bures_entanglement(s).e_b for s in states])
    d_f = e_f[:, None] - e_f[None, :]
    d_b = e_b[:, None] - e_b[None, :]
    decided = np.abs(d_f) > 1e-12
    assert decided.sum() > 0.99 * len(states) * (len(states) - 1)
    assert np.array_equal(np.sign(d_f[decided]), np.sign(d_b[decided]))


def test_e_s_reverses_the_order_of_e_f():
    a, b = E_S_REVERSAL_PAIR
    assert entanglement_of_formation(b) > entanglement_of_formation(a)
    assert bures_entanglement(b).e_b > bures_entanglement(a).e_b
    assert rel_ent_entanglement(b).e_s < rel_ent_entanglement(a).e_s
