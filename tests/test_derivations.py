"""The closed forms behind ``bures.numeric_max_fidelity``'s certificate, checked exactly.

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
