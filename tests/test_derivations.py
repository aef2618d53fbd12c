"""The closed forms behind ``bures`` and ``formation``, checked exactly.

Where square roots of rationals are left, an identity is decided at seeded rationals:
the minimal polynomial of the difference of its sides is x exactly when the difference
is 0.  A rational identity is decided by ``sympy.cancel`` on symbols.
"""

import math
import random
import sys

import sympy
from sympy import Rational, sqrt

from gent import bures
from gent.formation import entanglement_of_formation
from gent.scalar import symmetric_sts

x = sympy.Symbol("x")


def _is_zero(expr) -> bool:
    return sympy.minimal_polynomial(expr, x) == x


def _modes(n, seed):
    """n seeded modes (A, B) with AB >= 1/4, the first one with AB = 1/4, and candidate Y."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        a = Rational(rng.randint(1, 40), rng.randint(1, 20))
        b = 1 / (4 * a) + (0 if i == 0 else Rational(rng.randint(1, 30), rng.randint(1, 10)))
        out.append((a, b, Rational(rng.randint(1, 30), rng.randint(1, 20))))
    return out


def test_one_mode_maximum_is_free_of_a():
    # for a mode (A, B), k = AB - 1/4, and a candidate (X, Y) at fixed Y, one_mode_fidelity
    # gives 1/F = sqrt((A + X)(B + Y) + 4 k (XY - 1/4)) - 2 sqrt(k (XY - 1/4)); at
    # X* = A + 1/(4Y) - 1/(4B) it is stationary (for k > 0) and 1/F = (B + Y)/(2 sqrt(BY))
    big_x = sympy.Symbol("X", positive=True)
    for a, b, y in _modes(12, 404):
        k = a * b - Rational(1, 4)
        inv_f = sqrt((a + big_x) * (b + y) + 4 * k * (big_x * y - Rational(1, 4))) \
            - 2 * sqrt(k * (big_x * y - Rational(1, 4)))
        x_star = a + 1 / (4 * y) - 1 / (4 * b)
        assert x_star * y >= Rational(1, 4)
        assert _is_zero(inv_f.subs(big_x, x_star) - (b + y) / (2 * sqrt(b * y))), (a, b, y)
        if k > 0:
            assert _is_zero(sympy.diff(inv_f, big_x).subs(big_x, x_star)), (a, b, y)
        # the float one-mode fidelity of gent at X* is the closed form to rounding
        f = bures._fid1(float(a), float(b), float(x_star), float(y))
        ref = float(2 * sqrt(b * y) / (b + y))
        assert abs(f - ref) <= 16 * sys.float_info.epsilon, (a, b, y, f, ref)


def test_product_of_the_mode_maxima_is_at_most_f_max():
    # on the slice X2 = x2, Y1 = 1/(4 x2): mode 1 (B = kt) at fixed Y1 and mode 2 (A = kt)
    # at fixed X2 each reach 2 sqrt(BY)/(B + Y), and their product U(x2) falls short of
    # F_max = 2 kt/(kt + 1/2)^2 by a square in (2 x2 - 1): U <= F_max, equal only at x2 = 1/2
    kt, x2 = sympy.symbols("kt x2", positive=True)
    y1 = 1 / (4 * x2)
    u = 2 * sqrt(kt * y1) / (kt + y1) * 2 * sqrt(kt * x2) / (kt + x2)
    assert sympy.simplify(u - 2 * kt / ((kt + y1) * (kt + x2))) == 0
    f_max = 2 * kt / (kt + Rational(1, 2)) ** 2
    gap = 8 * kt**2 * (2 * x2 - 1) ** 2 / ((kt + x2) * (2 * kt + 1) ** 2 * (4 * kt * x2 + 1))
    assert sympy.cancel(f_max - u - gap) == 0
    numerator, _ = sympy.fraction(sympy.factor(gap))
    assert sympy.solve(numerator, x2) == [Rational(1, 2)]
    for value in (0.01, 0.1, 0.25, 0.4, 0.49):
        assert math.isclose(bures.max_fidelity_closed(value), float(f_max.subs(kt, value)), rel_tol=1e-15)


def _sts_kts(seed, n=6):
    """kt of n seeded pure symmetric_sts(r), r in [0.05, 3], and r itself."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        r = rng.uniform(0.05, 3.0)
        out.append((r, symmetric_sts(r).kappa_tilde_minus))
    return out


def test_bures_measure_of_a_pure_state():
    # F_max = 2 kt/(kt + 1/2)^2 is sech^2 r at kt = e^{-2r}/2; E_B's cancellation-free form
    # (1 - 2kt)^2/((1 + sqrt(2kt))^2 (1 + 2kt)) is (sqrt(2kt) - 1)^2/(2kt + 1) = 1 - sqrt(F_max),
    # and the Bures distance sqrt(2 - 2 sqrt(F_max)) is sqrt(2 E_B), whose radicands agree;
    # with kt = s^2/2 each difference is rational in s and decided by sympy.cancel
    r = sympy.Symbol("r", positive=True)
    s = sympy.Symbol("s", positive=True)
    f_max = lambda kt: 2 * kt / (kt + Rational(1, 2)) ** 2  # noqa: E731
    assert sympy.simplify((f_max(sympy.exp(-2 * r) / 2) - sympy.sech(r) ** 2).rewrite(sympy.exp)) == 0
    kt = s**2 / 2
    e_b = (1 - 2 * kt) ** 2 / ((1 + sqrt(2 * kt)) ** 2 * (1 + 2 * kt))
    assert sympy.cancel(e_b - (sqrt(2 * kt) - 1) ** 2 / (2 * kt + 1)) == 0
    assert sympy.cancel(e_b - (1 - sqrt(f_max(kt)))) == 0
    assert sympy.cancel(2 - 2 * sqrt(f_max(kt)) - 2 * e_b) == 0
    # gent's floats against the symbolic forms at the kt of seeded pure states, whose own
    # rounding (b - c = e^{-2r}/2 cancels) the comparison leaves out
    eps = sys.float_info.epsilon
    for r_value, kt_value in _sts_kts(505):
        f_sech = bures.max_fidelity_closed(math.exp(-2 * r_value) / 2)
        assert math.isclose(f_sech, 1 / math.cosh(r_value) ** 2, rel_tol=8 * eps), r_value
        res = bures.bures_entanglement(symmetric_sts(r_value))
        at_kt = {s: sympy.sqrt(2 * sympy.Float(kt_value, 40))}
        assert math.isclose(res.f_max, float(f_max(kt).subs(at_kt)), rel_tol=8 * eps), r_value
        assert math.isclose(res.e_b, float(e_b.subs(at_kt)), rel_tol=8 * eps), r_value
        assert math.isclose(res.d_bures, float(sqrt(2 * e_b).subs(at_kt)), rel_tol=8 * eps), r_value


def test_formation_of_giedke_et_al():
    # Giedke et al.'s c+- = (D^{-1/2} +- D^{1/2})^2/4 at D = 2 kt (kt = s^2/2): c+ - c- = 1, so
    # nu_F = (c+ + c-)/2 has nu_F - 1/2 = c- = (1 - 2kt)^2/(8kt), the square formation.py forms
    s = sympy.Symbol("s", positive=True)
    kt = s**2 / 2
    big_d = 2 * kt
    c_plus, c_minus = ((big_d ** Rational(-1, 2) + sign * sqrt(big_d)) ** 2 / 4 for sign in (1, -1))
    assert sympy.cancel(c_plus - c_minus - 1) == 0
    assert sympy.cancel((c_plus + c_minus) / 2 - Rational(1, 2) - c_minus) == 0
    assert sympy.cancel(c_minus - (1 - 2 * kt) ** 2 / (8 * kt)) == 0
    e_f = c_plus * sympy.log(c_plus) - c_minus * sympy.log(c_minus)
    for r_value, kt_value in _sts_kts(606):
        value = float(e_f.subs(s, sympy.sqrt(2 * sympy.Float(kt_value, 40))))
        got = entanglement_of_formation(symmetric_sts(r_value))
        assert math.isclose(got, value, rel_tol=1e-13), (r_value, got, value)
