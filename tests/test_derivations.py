"""The closed forms behind ``bures``, ``formation`` and ``relent``, checked exactly.

Where square roots of rationals are left, an identity is decided at seeded rationals:
the minimal polynomial of the difference of its sides is x exactly when the difference
is 0.  A rational identity is decided by ``sympy.cancel`` on symbols.
"""

import math
import random
import sys

import mpmath
import numpy as np
import sympy
from sympy import Rational, log, sqrt

from gent import bures, cm_core, fock, relent, standard_forms
from gent.formation import entanglement_of_formation
from gent.scalar import OneModeCM, StandardFormI, SymmetricState, form_I_spectrum, physical_kappa, symmetric_sts
from gent.standard_forms import form_I_reduction, svd_2x2, to_standard_form_I

from conftest import random_entangled_symmetric

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
        f = bures._fid1(float(a), float(b), float(x_star), float(y), float(k),
                        float(x_star * y - Rational(1, 4)))
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


def test_one_mode_fidelity_conjugate_form():
    # 1/F = S - 2 sqrt(delta) with S = sqrt(Delta + 4 delta); (S - 2 sqrt(delta))(S + 2 sqrt(delta))
    # = Delta, so F = (S + 2 sqrt(delta))/Delta, whose two terms add where the reciprocal's cancel;
    # _fid1 at seeded rational modes measured within 1.4 eps of 30 digits, bound 4 eps
    big, small = sympy.symbols("Delta delta", positive=True)
    root = sqrt(big + 4 * small)
    assert sympy.expand((root - 2 * sqrt(small)) * (root + 2 * sqrt(small))) == big
    assert sympy.simplify(1 / (root - 2 * sqrt(small)) - (root + 2 * sqrt(small)) / big) == 0
    for a, b, y in _modes(12, 1111):
        x_var = 1 / (4 * y) + Rational(1, 3)
        k = (a * b - Rational(1, 4)) * (x_var * y - Rational(1, 4))
        ref = 1 / (sqrt((a + x_var) * (b + y) + 4 * k) - 2 * sqrt(k))
        f = bures._fid1(float(a), float(b), float(x_var), float(y),
                        float(a * b - Rational(1, 4)), float(x_var * y - Rational(1, 4)))
        assert abs(f - float(ref.evalf(30))) <= 4 * sys.float_info.epsilon * f, (a, b, y)


_A, _B, _XV, _YV, _S = sympy.symbols("A B X Y s", positive=True)


def _inv_fid(big_x, big_y):
    """1/F of the mode (A, B) and the candidate (X, Y), in the reciprocal form."""
    k = (_A * _B - Rational(1, 4)) * (big_x * big_y - Rational(1, 4))
    return sqrt((_A + big_x) * (_B + big_y) + 4 * k) - 2 * sqrt(k)


def _flow_slope(big_x, big_y):
    """d ln F/ds along (X e^s, Y e^-s), at s = 0: -F (XB - YA)/(2 sqrt(Delta + 4 delta))."""
    k = (_A * _B - Rational(1, 4)) * (big_x * big_y - Rational(1, 4))
    root = sqrt((_A + big_x) * (_B + big_y) + 4 * k)
    return -(big_x * _B - big_y * _A) / (2 * root * _inv_fid(big_x, big_y))


def _entangled_states(n, seed):
    """n seeded entangled SymmetricStates (b, c, |d|) drawn as in criterion 1."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        b = rng.uniform(0.5, 3.0)
        c = rng.uniform(0.0, b)
        d = rng.uniform(0.0, c)
        if (b + d) * (b - c) >= 0.25 and 1e-4 < (b - d) * (b - c) < 0.2499:
            out.append(SymmetricState(b, c, d))
    return out


def test_slope_along_the_flow_keeps_delta_fixed(monkeypatch):
    # (X, Y) -> (X e^s, Y e^-s) keeps XY, so delta = (AB - 1/4)(XY - 1/4) is fixed, and
    # d(1/F)/ds = (dDelta/ds)/(2 sqrt(Delta + 4 delta)) with dDelta/ds = XB - YA at s = 0
    flowed_x, flowed_y = _XV * sympy.exp(_S), _YV * sympy.exp(-_S)
    assert sympy.simplify(flowed_x * flowed_y - _XV * _YV) == 0
    d_inv = sympy.diff(_inv_fid(flowed_x, flowed_y), _S).subs(_S, 0)
    k = (_A * _B - Rational(1, 4)) * (_XV * _YV - Rational(1, 4))
    assert sympy.simplify(d_inv - (_XV * _B - _YV * _A) / (2 * sqrt((_A + _XV) * (_B + _YV) + 4 * k))) == 0
    # numeric_max_fidelity's slope h(w) is the sum of that flow slope over mode 1
    # (kappa_+^2/kt, kt) at (X1*, 1/(4 x2)) and mode 2 (kt, kappa_-^2/kt) at (x2, Y2*); its
    # floats at seeded slices hold to the size of XB and YA in the two terms (they cancel
    # as kt -> 1/2) times 1.7 eps (measured on 1200 slices), against 40 digits from the
    # kappas the verifier reads; bound 8 eps
    slopes, solve = [], bures.falling_root
    monkeypatch.setattr(bures, "falling_root", lambda f, lo, hi: slopes.append(f) or solve(f, lo, hi))
    flow_slope = sympy.lambdify((_A, _B, _XV, _YV), _flow_slope(_XV, _YV), "mpmath")
    size = sympy.lambdify((_A, _B, _XV, _YV),
                          _flow_slope(_XV, _YV) * (_XV * _B + _YV * _A) / (_XV * _B - _YV * _A), "mpmath")
    rng = random.Random(1212)
    eps = sys.float_info.epsilon
    for s in _entangled_states(10, 1212):
        slopes.clear()
        bures.numeric_max_fidelity(s)
        kt = s.kappa_tilde_minus
        kp, km = physical_kappa(s.kappa_plus, s.b), physical_kappa(s.kappa_minus, s.b)
        with mpmath.workdps(40):
            kt_, kp_, km_ = (mpmath.mpf(v) for v in (kt, kp, km))
            quarter = mpmath.mpf(1) / 4
            for w in [math.log(0.5)] + [rng.uniform(-4.0, 3.0) for _ in range(5)]:
                x2 = mpmath.exp(mpmath.mpf(w))
                modes = ((kp_**2 / kt_, kt_, x2 + (kp_**2 - quarter) / kt_, quarter / x2),
                         (kt_, km_**2 / kt_, x2, quarter / x2 + (km_**2 - quarter) / kt_))
                h = sum(flow_slope(*mode) for mode in modes)
                assert abs(slopes[0](w) - h) <= 8 * eps * sum(abs(size(*mode)) for mode in modes), (s, w)


def test_envelope_step_at_each_mode_maximum():
    # at X* = A + 1/(4Y) - 1/(4B), d ln F/dX = 0, so along w = -ln(4Y) (mode 1, X = X*(Y))
    # the total slope of ln F is its slope along the flow at fixed a = ln(4 X Y): the
    # verifier's h.  Mode 2, at fixed X = e^w with Y* = B + 1/(4X) - 1/(4A), alike.
    # Decided exactly at seeded rational modes.
    x_star = _A + 1 / (4 * _YV) - 1 / (4 * _B)
    y_star = _B + 1 / (4 * _XV) - 1 / (4 * _A)
    total_1 = _YV * sympy.diff(sympy.log(_inv_fid(x_star, _YV)), _YV)  # d/dw = -Y d/dY of ln F
    total_2 = -_XV * sympy.diff(sympy.log(_inv_fid(_XV, y_star)), _XV)  # d/dw = X d/dX of ln F
    for a, b, v in _modes(6, 1313)[1:]:  # mixed modes: at AB = 1/4 the maximum is an edge
        at = {_A: a, _B: b, _YV: v, _XV: v}
        assert _is_zero(total_1.subs(at) - _flow_slope(x_star, _YV).subs(at)), (a, b, v)
        assert _is_zero(total_2.subs(at) - _flow_slope(_XV, y_star).subs(at)), (a, b, v)


def test_maximizing_variances_in_direct_form():
    # mode 1 = (kappa_+^2/kt, kt) at fixed Y1 = 1/(4 x2), mode 2 = (kt, kappa_-^2/kt) at fixed
    # X2 = x2: X* = A + 1/(4Y) - 1/(4B) is X1* = x2 + e1 and Y* = B + 1/(4X) - 1/(4A) is
    # Y2* = 1/(4 x2) + e2, e = (kappa^2 - 1/4)/kt; with a = ln(X1/X2) and ln(Y2/Y1), e^a - 1 is
    # e1/x2 and 4 x2 e2; and delta at each maximum is kt e1^2 y1 and kt e2^2 x2
    kp, km, kt, x2 = sympy.symbols("kappa_p kappa_m kt x2", positive=True)
    e1, e2 = (kp**2 - Rational(1, 4)) / kt, (km**2 - Rational(1, 4)) / kt
    y1 = 1 / (4 * x2)
    x1_star = kp**2 / kt + 1 / (4 * y1) - 1 / (4 * kt)
    y2_star = km**2 / kt + 1 / (4 * x2) - 1 / (4 * kt)
    assert sympy.cancel(x1_star - (x2 + e1)) == 0
    assert sympy.cancel(y2_star - (y1 + e2)) == 0
    assert sympy.cancel(x1_star / x2 - 1 - e1 / x2) == 0
    assert sympy.cancel(y2_star / y1 - 1 - 4 * x2 * e2) == 0
    quarter = Rational(1, 4)
    assert sympy.cancel((kp**2 - quarter) * (x1_star * y1 - quarter) - kt * e1**2 * y1) == 0
    assert sympy.cancel((km**2 - quarter) * (x2 * y2_star - quarter) - kt * e2**2 * x2) == 0


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
    for r_value, kt_value in _sts_kts(606) + [(r, symmetric_sts(r).kappa_tilde_minus) for r in (3, 5)]:
        value = float(e_f.subs(s, sympy.sqrt(2 * sympy.Float(kt_value, 40))))
        got = entanglement_of_formation(symmetric_sts(r_value))
        assert math.isclose(got, value, rel_tol=1e-13), (r_value, got, value)


def test_entropy_is_the_brace_at_rho_prime_equal_rho():
    # -Tr rho ln rho' at rho' = rho: sqrt(det V') = nu = 1/2 + x and g = 2 det V / nu = 2 nu,
    # so g - 1 = 2x, and the brace ln(1+x) + (g-1)/2 ln(1+1/x) is (x+1)ln(x+1) - x ln x
    xs = sympy.Symbol("x", positive=True)
    nu = Rational(1, 2) + xs
    assert sympy.simplify(2 * nu**2 / nu - 1 - 2 * xs) == 0
    brace = log(1 + xs) + xs * log(1 + 1 / xs)
    assert sympy.simplify(sympy.expand_log((xs + 1) * log(xs + 1) - xs * log(xs) - brace, force=True)) == 0
    rng = random.Random(707)
    for _ in range(40):
        value = 10 ** rng.uniform(-10, 12)
        ref = float(brace.subs(xs, sympy.Float(value, 50)).evalf(50))
        assert math.isclose(relent._entropy_excess(value), ref, rel_tol=4 * sys.float_info.epsilon), value


# the split of the one-mode relative entropy: rho of CM diag(a, b), nu = sqrt(ab) = 1/2 + n, and
# rho' of CM diag(a', b'), nu' = sqrt(a'b'), with L(y) = ln((y + 1/2)/(y - 1/2)) and h(u) = ln(1+u) - u
_NU, _NUP, _S, _SP, _N = sympy.symbols("nu nu_p s s_p n", positive=True)
_DELTA = sympy.Symbol("delta", positive=True)  # the identities are analytic in delta > -n
_HALF = Rational(1, 2)


def _big_l(y):
    return log(y + _HALF) - log(y - _HALF)


def _h(u):
    return log(1 + u) - u


def _bregman(nu, nup):
    """B = ln((nu' + 1/2)/(nu + 1/2)) + (nu - 1/2)(L(nu') - L(nu))."""
    return log((nup + _HALF) / (nu + _HALF)) + (nu - _HALF) * (_big_l(nup) - _big_l(nu))


def _logs_expanded(expr):
    """expr with the argument of every log factored, then each log of a product split."""
    return sympy.expand_log(expr.replace(log, lambda arg: log(sympy.factor(arg))), force=True)


def test_split_is_brace_less_entropy():
    # with a = nu s, b = nu/s, a' = nu' s', b' = nu'/s', the brace -Tr(rho ln rho') =
    # ln(nu' + 1/2) + (g - 1) L(nu')/2, g = (a b' + b a')/nu', less the entropy S(nu), is
    # B + (sqrt(a b') - sqrt(b a'))^2 L(nu') / (2 nu'); for a beam-splitter mode, a = kappa^2/kt,
    # b = kt, a' = 2 x^2 and b' = 1/2, the last term is (kappa - 2 kt x)^2 L(x) / (4 kt x)
    a, b, ap, bp = _NU * _S, _NU / _S, _NUP * _SP, _NUP / _SP
    g = (a * bp + b * ap) / _NUP
    brace = log(_NUP + _HALF) + (g - 1) / 2 * _big_l(_NUP)
    entropy = (_NU + _HALF) * log(_NU + _HALF) - (_NU - _HALF) * log(_NU - _HALF)
    squeeze = (sqrt(a * bp) - sqrt(b * ap)) ** 2 / (2 * _NUP)
    assert sympy.simplify(sympy.expand(brace - entropy - _bregman(_NU, _NUP) - squeeze * _big_l(_NUP))) == 0
    k, kt, xs = sympy.symbols("kappa kt x", positive=True)
    mode = squeeze.subs({_NU: k, _S: k / kt, _NUP: xs, _SP: 2 * xs})
    assert sympy.simplify(mode - (k - 2 * kt * xs) ** 2 / (4 * kt * xs)) == 0


def test_bregman_term_in_h():
    # B is the relative entropy of the thermal states of nu and nu' = nu + delta: the Bregman
    # divergence S(nu') - S(nu) - S'(nu')(nu' - nu) of the entropy S, S' = L, and in h it is
    # (n+1) h(delta/(n+1)) - n h(delta/n), or, with v = delta/(nu' + 1/2), -h(-v) - n h(v/n),
    # the form relent._split takes; at n = 0 (pure rho) it is ln(1 + delta)
    nu, nup = _N + _HALF, _N + _HALF + _DELTA
    b_log = _bregman(nu, nup)
    entropy = lambda y: (y + _HALF) * log(y + _HALF) - (y - _HALF) * log(y - _HALF)  # noqa: E731
    v = _DELTA / (nup + _HALF)
    for form in (entropy(nup) - entropy(nu) - _big_l(nup) * _DELTA,
                 (_N + 1) * _h(_DELTA / (_N + 1)) - _N * _h(_DELTA / _N),
                 -_h(-v) - _N * _h(v / _N)):
        assert sympy.simplify(_logs_expanded(b_log - form)) == 0, form
    assert sympy.simplify(_logs_expanded(sympy.limit(-_h(-v) - _N * _h(v / _N), _N, 0) - log(1 + _DELTA))) == 0


def test_split_terms_are_nonnegative():
    # h(0) = 0 and h'(u) = -u/(1+u), so h <= 0 on u > -1: both terms of B, -h(-v) and
    # -n h(v/n), are >= 0, and so is the squeeze term, a square times L > 0.  gent's floats
    # keep the signs, and relent._split holds to 16 eps of 50 digits at seeded points
    # (measured 7.1 eps; n = 0, near pairs n' = n (1 +- 10^-k) and squeeze 0 included)
    u = sympy.Symbol("u", real=True)
    assert _h(0) == 0 and sympy.simplify(sympy.diff(_h(u), u) + u / (1 + u)) == 0
    rng = random.Random(1515)
    eps = sys.float_info.epsilon
    with mpmath.workdps(50):
        half = mpmath.mpf(1) / 2
        big_l = lambda y: mpmath.log((y + half) / (y - half))  # noqa: E731
        for i in range(400):
            n = 0.0 if i % 8 == 0 else 10 ** rng.uniform(-8, 4)
            if i % 3 or n == 0:
                n_p = 10 ** rng.uniform(-8, 4)
            else:
                n_p = n * (1 + rng.choice([1, -1]) * 10 ** rng.uniform(-12, -1))
            squeeze = 0.0 if i % 2 else 10 ** rng.uniform(-6, 2)
            v = (n_p - n) / (n_p + 1)
            assert relent._h(-v, (n + 1) / (n_p + 1)) <= 0, (n, n_p)
            if n:
                assert relent._h(v / n, (n + 1) / (n_p + 1) * n_p / n) <= 0, (n, n_p)
            nu, nup = half + mpmath.mpf(n), half + mpmath.mpf(n_p)
            ref = mpmath.log((nup + half) / (nu + half)) + squeeze * big_l(nup)
            if n:
                ref += (nu - half) * (big_l(nup) - big_l(nu))
            got = relent._split(n, n_p, squeeze)
            assert got >= 0 and abs(got - ref) <= 16 * eps * ref, (n, n_p, squeeze)


# the brace of mode_rel_entropy, which is f less the mode entropy:
# f(x) = (1+g)/2 ln(x+1/2) + (1-g)/2 ln(x-1/2), g = kappa^2/(2 x kt) + 2 x kt
_X, _K2, _KT = sympy.symbols("x kappa_sq kt", positive=True)
_G = _K2 / (2 * _X * _KT) + 2 * _X * _KT
_F = (1 + _G) / 2 * log(_X + Rational(1, 2)) + (1 - _G) / 2 * log(_X - Rational(1, 2))


def _mode_draws(n, seed):
    """n seeded (e = x - 1/2, kappa^2, kt) floats, e from 1e-6 to 10^1.5."""
    rng = random.Random(seed)
    return [(10 ** rng.uniform(-6, 1.5), rng.uniform(0.5, 3.0) ** 2, rng.uniform(0.01, 0.49)) for _ in range(n)]


def test_g_minus_1_is_g_less_1():
    # _g_minus_1 = (kappa^2 - 1/4 + (2 kt e - (1/2 - kt))^2)/p with p = 2 x kt, x = 1/2 + e;
    # exact at the floats' own rationals, to a few eps relative (nothing cancels)
    e = sympy.Symbol("e", positive=True)
    g_minus_1 = (_K2 - Rational(1, 4) + (2 * _KT * e - (Rational(1, 2) - _KT)) ** 2) / (_KT * (1 + 2 * e))
    assert sympy.cancel(_G.subs(_X, Rational(1, 2) + e) - 1 - g_minus_1) == 0
    for e_value, k2, kt in _mode_draws(200, 808):
        exact = (_G - 1).subs({_X: Rational(1, 2) + Rational(e_value), _K2: Rational(k2), _KT: Rational(kt)})
        got = relent._g_minus_1(e_value, k2, kt)
        assert abs(got - exact) <= 4 * sys.float_info.epsilon * abs(exact), (e_value, k2, kt)


def test_mode_slope_is_the_derivatives_of_mode_rel_entropy():
    # f' = 1/(x+1/2) - (g-1)/(2D) + g' L/2 and f'' = -1/(x+1/2)^2 - g'/D + (g-1) x/D^2 + g'' L/2,
    # D = x^2 - 1/4, L = ln((x+1/2)/(x-1/2)), g' = (p^2 - kappa^2)/(p x), g'' = 2 kappa^2/(p x^2);
    # _mode_slope's floats hold to 8 eps of the size of their terms at 50-digit derivatives
    half, big_d = Rational(1, 2), _X**2 - Rational(1, 4)
    big_l = log(_X + half) - log(_X - half)
    p = 2 * _X * _KT
    g1, g2 = (p * p - _K2) / (p * _X), 2 * _K2 / (p * _X**2)
    assert sympy.simplify(sympy.diff(_G, _X) - g1) == 0 and sympy.simplify(sympy.diff(_G, _X, 2) - g2) == 0
    f1 = 1 / (_X + half) - (_G - 1) / (2 * big_d) + g1 * big_l / 2
    f2 = -1 / (_X + half) ** 2 - g1 / big_d + (_G - 1) * _X / big_d**2 + g2 * big_l / 2
    assert sympy.simplify(sympy.diff(_F, _X) - f1) == 0
    assert sympy.simplify(sympy.diff(_F, _X, 2) - f2) == 0
    d1 = sympy.lambdify((_X, _K2, _KT), sympy.diff(_F, _X), "mpmath")
    d2 = sympy.lambdify((_X, _K2, _KT), sympy.diff(_F, _X, 2), "mpmath")
    size2 = sympy.lambdify((_X, _K2, _KT), sum(abs(t) for t in f2.args), "mpmath")
    eps = sys.float_info.epsilon
    with mpmath.workdps(50):
        for e_value, k2, kt in _mode_draws(200, 909):
            x_value = mpmath.mpf(e_value) + mpmath.mpf(1) / 2
            got1, got2, size1 = relent._mode_slope(e_value, k2, kt)
            assert abs(got1 - d1(x_value, k2, kt)) <= 8 * eps * size1, (e_value, k2, kt)
            assert abs(got2 - d2(x_value, k2, kt)) <= 8 * eps * size2(x_value, k2, kt), (e_value, k2, kt)


def test_minimize_mode_starts_at_the_second_order_root(monkeypatch):
    # f' is linear in a = kappa^2/(2 kt), so f' = 0 reads a = A(x; kt); f' holds ln(x + 1/2)
    # and ln(x - 1/2) only through L = ln((x + 1/2)/(x - 1/2)) = 2 atanh(1/(2x)), and with
    # u = 1/x, A = x^2 + c/12 + c/(90 x^2) + O(x^-4), c = 1 - 2 kt.  Inverted, x0^2 - 1/4 =
    # (2 kappa^2 - kt)/(4 kt) - c/12 - c/(90 a), and minimize_mode forms x0 - 1/2 as
    # (x0^2 - 1/4)/(x0 + 1/2)
    half, a, big_l, u = Rational(1, 2), *sympy.symbols("a L u", positive=True)
    f1 = sympy.expand(sympy.diff(_F, _X).subs(_K2, 2 * a * _KT).subs(log(_X - half), log(_X + half) - big_l))
    assert f1.coeff(log(_X + half)) == 0
    big_a = sympy.cancel(-f1.subs(a, 0) / sympy.diff(f1, a))
    assert sympy.cancel(f1.subs(a, big_a)) == 0 and sympy.diff(big_a, a) == 0
    c = 1 - 2 * _KT
    series = sympy.series(big_a.subs(big_l, 2 * sympy.atanh(u / 2)).subs(_X, 1 / u), u, 0, 4).removeO()
    assert sympy.expand(series - (1 / u**2 + c / 12 + c * u**2 / 90)) == 0
    # x0^2 - 1/4 over a - 1/4 rises with a; at the least a = 1/(8 kt) of a kappa >= 1/2 it is
    # 1 - 2 kt/3 - 32 kt^2/45, which falls with kt to 22/45 at kt = 1/2: the start lies above 1/2
    d = a - Rational(1, 4) - c / 12 - c / (90 * a)
    ratio = sympy.cancel((d / (a - Rational(1, 4))).subs(a, 1 / (8 * _KT)))
    assert sympy.expand(ratio - (1 - 2 * _KT / 3 - 32 * _KT**2 / 45)) == 0
    assert ratio.subs(_KT, half) == Rational(22, 45)
    starts, slope = [], relent._mode_slope

    def recording_slope(e, kappa_sq, kt):
        starts.append(e)
        return slope(e, kappa_sq, kt)

    # gent's float start holds to 4 eps relative of the rational formula at its own floats
    # (measured 1.23 eps)
    monkeypatch.setattr(relent, "_mode_slope", recording_slope)
    worst = 0.0
    for _, k2, kt in _mode_draws(50, 1010):
        starts.clear()
        relent.minimize_mode(k2, kt)
        exact_d = d.subs({a: Rational(k2) / (2 * Rational(kt)), _KT: Rational(kt)})
        exact = float((exact_d / (sqrt(exact_d + Rational(1, 4)) + half)).evalf(30))
        worst = max(worst, abs(starts[0] - exact) / exact)
    assert worst <= 4 * sys.float_info.epsilon


def test_physical_excess_newton_step():
    # n = (nu - 1/2) + (det V - nu^2)/(2 nu) from a rounded nu = sqrt(det V) + delta is
    # sqrt(det V) - 1/2 + delta^2/(2 nu): the step cancels the first order of nu's rounding
    root, delta = sympy.Symbol("s", positive=True), sympy.Symbol("delta", real=True)
    nu, half = root + delta, Rational(1, 2)
    error = sympy.cancel((nu - half) + (root**2 - nu**2) / (2 * nu) - (root - half))
    assert sympy.cancel(error - delta**2 / (2 * nu)) == 0
    assert sympy.series(error, delta, 0, 2).removeO() == 0
    # at seeded near-pure modes, nu - 1/2 from 1e-11 to 0.1, det V - 1/4 is the exact product's,
    # rounded once, and n holds to 1 eps relative of 50 digits (measured 0.48 eps; the naive
    # sqrt(v_qq v_pp) - 1/2 is off by up to 4.7e9 eps)
    rng, eps = random.Random(4242), sys.float_info.epsilon
    with mpmath.workdps(50):
        for _ in range(400):
            a = 10 ** rng.uniform(-1.5, 1.5)
            qq, pp = a, (0.5 + 10 ** rng.uniform(-11, -1)) ** 2 / a
            excess, n = OneModeCM(qq, pp).physical_excess()
            det = Rational(qq) * Rational(pp)
            assert abs(Rational(excess) - (det - half**2)) <= eps / 2 * (det - half**2), (qq, pp)
            exact = mpmath.sqrt(mpmath.mpf(det.p) / det.q) - mpmath.mpf(0.5)
            assert abs(n - exact) <= eps * exact, (qq, pp)


def test_form_I_c_and_d_are_singular_values():
    # to_standard_form_I takes c and |d| of C' = N1 C N2^T as the half sum and half difference
    # of P = hypot(m00 + m11, m10 - m01) and Q = hypot(m00 - m11, m10 + m01): P^2 - Q^2 = 4 det M
    # and P^2 + Q^2 = 2 ||M||_F^2, so c |d| = |det M| and c^2 + d^2 = ||M||_F^2, and c^2, d^2
    # are the roots of y^2 - tr(M M^T) y + det(M M^T), the squared singular values of M
    m00, m01, m10, m11 = entries = sympy.symbols("m00 m01 m10 m11", real=True)
    big_m = sympy.Matrix(2, 2, entries)
    big_p2, big_q2 = (m00 + m11) ** 2 + (m10 - m01) ** 2, (m00 - m11) ** 2 + (m10 + m01) ** 2
    c, d = (sqrt(big_p2) + sqrt(big_q2)) / 2, (sqrt(big_p2) - sqrt(big_q2)) / 2
    assert sympy.expand(c * d - big_m.det()) == 0
    assert sympy.expand(c**2 + d**2 - (big_m * big_m.T).trace()) == 0
    assert sympy.expand((c * d) ** 2 - (big_m * big_m.T).det()) == 0
    # gent's c and |d| (taken as |det M|/c) at seeded rational C, with V1 = b1 I and V2 = b2 I so
    # that C' = C exactly, against the singular values of the float C at 50 digits: measured
    # 0.81 and 0.74 eps of c; bound 4 eps
    rng = random.Random(1717)
    eps = sys.float_info.epsilon
    with mpmath.workdps(50):
        for _ in range(300):
            b1, b2 = (float(Rational(rng.randint(1, 60), rng.randint(1, 12))) for _ in range(2))
            cm = [float(Rational(rng.randint(-90, 90), rng.randint(1, 30))) for _ in range(4)]
            v = np.diag([b1, b1, b2, b2])
            v[0, 2], v[0, 3], v[1, 2], v[1, 3] = cm
            v[2:, :2] = v[:2, 2:].T
            form = to_standard_form_I(v)
            f2 = sum(mpmath.mpf(t) ** 2 for t in cm)
            det = abs(mpmath.mpf(cm[0]) * cm[3] - mpmath.mpf(cm[1]) * cm[2])
            s1 = (mpmath.sqrt(f2 + 2 * det) + mpmath.sqrt(f2 - 2 * det)) / 2
            s2 = (mpmath.sqrt(f2 + 2 * det) - mpmath.sqrt(f2 - 2 * det)) / 2
            assert form.b1 == b1 and form.b2 == b2, cm
            assert abs(form.c - s1) <= 4 * eps * s1 and abs(abs(form.d) - s2) <= 4 * eps * s1, cm


def test_form_I_spectrum_discriminant_is_a_sum_of_products():
    # Simon's invariants of standard form I: det(y I - (Omega V)^2) = (y^2 + Delta y + det V)^2
    # with Delta = b1^2 + b2^2 + 2cd and det V = (b1 b2 - c^2)(b1 b2 - d^2), so kappa_+-^2 are the
    # roots of y^2 - Delta y + det V; form_I_spectrum writes the discriminant Delta^2 - 4 det V as
    # ((b1 - b2)(b1 + b2))^2 + 4(b1 c + b2 d)(b1 d + b2 c), and the partial transpose's (d -> -d)
    # as ((b1 - b2)(b1 + b2))^2 - 4(b1 c - b2 d)(b1 d - b2 c)
    b1, b2, c, d, y = sympy.symbols("b1 b2 c d y", real=True)
    v = sympy.Matrix([[b1, 0, c, 0], [0, b1, 0, d], [c, 0, b2, 0], [0, d, 0, b2]])
    omega = sympy.Matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    local, det_v = b1**2 + b2**2, (b1 * b2 - c**2) * (b1 * b2 - d**2)
    charpoly = (y * sympy.eye(4) - (omega * v) ** 2).det()
    assert sympy.expand(charpoly - (y**2 + (local + 2 * c * d) * y + det_v) ** 2) == 0
    split = ((b1 - b2) * (b1 + b2)) ** 2
    assert sympy.expand((local + 2 * c * d) ** 2 - 4 * det_v - split - 4 * (b1 * c + b2 * d) * (b1 * d + b2 * c)) == 0
    assert sympy.expand((local - 2 * c * d) ** 2 - 4 * det_v - split + 4 * (b1 * c - b2 * d) * (b1 * d - b2 * c)) == 0
    # gent's floats at seeded rational forms (b1 != b2, c >= |d|, b1 b2 > c^2) against the roots
    # at 50 digits from the floats: kappa^2 within 1.2 eps of max(b1, b2)^2 (measured; the
    # scale of rounding_tol), up to 91 eps relative in a small kappa; bound 4 eps of it
    rng = random.Random(1818)
    eps = sys.float_info.epsilon
    with mpmath.workdps(50):
        done = 0
        while done < 300:
            b1_, b2_ = (Rational(rng.randint(1, 60), rng.randint(1, 12)) for _ in range(2))
            c_ = Rational(rng.randint(0, 60), rng.randint(1, 12))
            d_ = c_ * Rational(rng.randint(-20, 20), 20)
            if b1_ == b2_ or not b1_ * b2_ > c_**2:
                continue
            done += 1
            form = StandardFormI(*(float(t) for t in (b1_, b2_, c_, d_)))
            spec = form_I_spectrum(form)
            fb1, fb2, fc, fd = (mpmath.mpf(t) for t in (form.b1, form.b2, form.c, form.d))
            det = (fb1 * fb2 - fc**2) * (fb1 * fb2 - fd**2)
            got = ((spec.kappa_plus, spec.kappa_minus), (spec.kappa_tilde_plus, spec.kappa_tilde_minus))
            for sign, (k_big, k_small) in zip((1, -1), got):
                delta = fb1**2 + fb2**2 + 2 * sign * fc * fd
                root = mpmath.sqrt(delta**2 - 4 * det)
                for k, ref in ((k_big, mpmath.sqrt((delta + root) / 2)), (k_small, mpmath.sqrt((delta - root) / 2))):
                    assert abs(k - ref) * ref <= 4 * eps * max(form.b1, form.b2) ** 2, (form, sign)


def test_verifier_argmax_is_the_inverse_of_the_beam_splitter_map(monkeypatch):
    # numeric_max_fidelity's argmax, with t = 2 + m and r = sqrt(t1/t2): b' = sqrt(t1 t2)/4,
    # c' = m1/(4r), |d'| = r m2/4 and u' = 2 x2 r.  A candidate's beam-splitter variances
    # ((b'+c')u', (b'-|d'|)/u', (b'-c')u', (b'+|d'|)/u') are then (X1, Y1, x2, Y2) with
    # X1 = x2 (1 + m1), Y1 = 1/(4 x2) and Y2 = Y1 (1 + m2), so kt'^2 = Y1 x2 = 1/4.
    # Written in r (t1 = r^2 t2), every side is rational.
    r, m2, x2 = sympy.symbols("r m2 x2", positive=True)
    t2 = 2 + m2
    t1 = r**2 * t2
    m1 = t1 - 2
    assert sympy.sqrt(t1 * t2) == r * t2 and sympy.sqrt(t1 / t2) == r
    b, c, d, u = sympy.sqrt(t1 * t2) / 4, m1 / (4 * r), r * m2 / 4, 2 * x2 * r
    y1 = 1 / (4 * x2)
    for got, want in zip(((b + c) * u, (b - d) / u, (b - c) * u, (b + d) / u), (x2 * (1 + m1), y1, x2, y1 * (1 + m2))):
        assert sympy.cancel(got - want) == 0
    assert sympy.cancel((b - d) * (b - c) - Rational(1, 4)) == 0
    # the verifier's floats on criterion 1's draws, against the same formula at 50 digits from
    # its own x2* and kappas: measured within 1.5 eps relative (b', c', |d'|, u'); bound 4 eps
    roots, solve = [], bures.falling_root
    eps = sys.float_info.epsilon
    worst = 0.0
    monkeypatch.setattr(bures, "falling_root", lambda f, lo, hi: roots.append(solve(f, lo, hi)) or roots[-1])
    for s in random_entangled_symmetric(np.random.default_rng(101), 100):
        _, argmax, u_arg = bures.numeric_max_fidelity(s)
        kt = s.kappa_tilde_minus
        kp, km = physical_kappa(s.kappa_plus, s.b), physical_kappa(s.kappa_minus, s.b)
        with mpmath.workdps(50):
            kt_, kp_, km_, x2_ = (mpmath.mpf(v) for v in (kt, kp, km, math.exp(roots[-1])))
            e1, e2 = (kp_**2 - mpmath.mpf(0.25)) / kt_, (km_**2 - mpmath.mpf(0.25)) / kt_
            m1_, m2_ = e1 / x2_, min(4 * x2_ * e2, e1 / x2_)  # the clip a2 <= a1
            t1_, t2_ = 2 + m1_, 2 + m2_
            r_ = mpmath.sqrt(t1_ / t2_)
            want = (mpmath.sqrt(t1_ * t2_) / 4, m1_ / (4 * r_), r_ * m2_ / 4, 2 * x2_ * r_)
            for g, w in zip((argmax.b, argmax.c, argmax.d_abs, u_arg), want):
                worst = max(worst, float(abs(g - w) / w / eps))
    assert worst <= 4, worst


def test_form_II_squeeze_balances_the_beam_splitter_modes():
    # form_II_symmetric's v = sqrt((b - |d|)/(b - c)) squeezes both modes of a symmetric state so
    # that the 50:50 beam splitter's image ((b+c)v, (b-|d|)/v, (b-c)v, (b+|d|)/v) is
    # (kappa_+^2/kt, kt, kt, kappa_-^2/kt), kt = sqrt((b - c)(b - |d|)): the variances that
    # numeric_max_fidelity takes for its form-II state.  Written in e = b - c > 0 and
    # e + g = b - |d|, g = c - |d| >= 0, so that each root is real
    c, e, g = sympy.symbols("c e g", positive=True)
    b, d = c + e, c - g
    v = sqrt((b - d) / (b - c))
    kt = sqrt((b - c) * (b - d))
    kp2, km2 = (b - d) * (b + c), (b + d) * (b - c)
    for got, want in zip(((b + c) * v, (b - d) / v, (b - c) * v, (b + d) / v), (kp2 / kt, kt, kt, km2 / kt)):
        assert sympy.simplify(got - want) == 0
    # the floats of v and of the form-II CM's entries (b v, b/v, c v, -|d|/v) on seeded entangled
    # states, against 50 digits from the same b, c and |d|: measured within 0.99 eps relative
    eps = sys.float_info.epsilon
    worst = 0.0
    for s in random_entangled_symmetric(np.random.default_rng(37), 200):
        v_f, cm = standard_forms.form_II_symmetric(s)
        with mpmath.workdps(50):
            b_, c_, d_ = (mpmath.mpf(t) for t in (s.b, s.c, s.d_abs))
            v_ = mpmath.sqrt((b_ - d_) / (b_ - c_))
            for got, want in zip((v_f, cm[0, 0], cm[1, 1], cm[0, 2], cm[1, 3]), (v_, b_ * v_, b_ / v_, c_ * v_, -d_ / v_)):
                worst = max(worst, float(abs(got - want) / abs(want) / eps))
    assert worst <= 2, worst


def _rot(m):
    """R(t) = [[cos t, -sin t], [sin t, cos t]] with tan(t/2) = m, rational in m."""
    c, s = (1 - m**2) / (1 + m**2), 2 * m / (1 + m**2)
    return sympy.Matrix([[c, -s], [s, c]])


def _mp_rot(t):
    return mpmath.matrix([[mpmath.cos(t), -mpmath.sin(t)], [mpmath.sin(t), mpmath.cos(t)]])


def _mp_max(m):
    return max(abs(t) for t in m)


def test_shared_svd_angles():
    # svd_2x2 reads M = R(t1) diag(s1, s2) R(t2)^T from e, h = m00 + m11, m10 - m01, which are
    # 2P (cos, sin)(t1 - t2), and f, g = m00 - m11, m10 + m01, which are 2Q (cos, sin)(t1 + t2),
    # with s1, s2 = P +- Q: so t1 - t2 = atan2(h, e), t1 + t2 = atan2(g, f), P = hypot(e, h)/2
    # and Q = hypot(f, g)/2
    m1, m2 = sympy.symbols("m1 m2", real=True)
    big_p, big_q = sympy.symbols("P Q", positive=True)
    m = _rot(m1) * sympy.diag(big_p + big_q, big_p - big_q) * _rot(m2).T
    diff, total = _rot(m1) * _rot(m2).T, _rot(m1) * _rot(m2)  # R(t1 - t2), R(t1 + t2)
    e, h, f, g = m[0, 0] + m[1, 1], m[1, 0] - m[0, 1], m[0, 0] - m[1, 1], m[1, 0] + m[0, 1]
    for got, want in ((e, diff[0, 0]), (h, diff[1, 0]), (f, total[0, 0]), (g, total[1, 0])):
        assert sympy.cancel(got - want * (2 * big_p if got in (e, h) else 2 * big_q)) == 0
    # gent's angles and singular values at seeded rational M, rebuilt at 50 digits: measured
    # 1.5 eps of s1; bound 4 eps
    rng = random.Random(3636)
    eps = sys.float_info.epsilon
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(300):
            entries = [float(Rational(rng.randint(-90, 90), rng.randint(1, 30))) for _ in range(4)]
            t1, s1, s2, t2 = svd_2x2(*entries)
            rebuilt = _mp_rot(t1) * mpmath.diag([s1, s2]) * _mp_rot(t2).T
            gap = _mp_max(rebuilt - mpmath.matrix([entries[:2], entries[2:]]))
            worst = max(worst, float(gap / s1 / eps)) if s1 else worst
    assert worst <= 4, worst


def test_one_mode_phi_and_e2r():
    # V = nu R(phi) diag(e^{2r}, e^{-2r}) R(phi)^T: tan 2 phi = 2 v_qp / (v_qq - v_pp),
    # v_qq + v_qp tan phi = nu e^{2r}, v_pp - v_qp tan phi = nu e^{-2r} and det V = nu^2; and
    # (V / nu + I) / (e^r + e^-r), the square root of V / nu that unit_root forms (its trace
    # plus 2 is (e^r + e^-r)^2), is R(phi) diag(e^r, e^-r) R(phi)^T
    m, big_e, nu = sympy.symbols("m E nu", positive=True)
    rot = _rot(m)
    v = nu * rot * sympy.diag(big_e**2, big_e**-2) * rot.T
    x_, y_, z_ = v[0, 0], v[0, 1], v[1, 1]
    c, s = rot[0, 0], rot[1, 0]
    tan = s / c
    for expr in (x_ + y_ * tan - nu * big_e**2, z_ - y_ * tan - nu / big_e**2, x_ * z_ - y_**2 - nu**2,
                 2 * y_ * (c * c - s * s) - (x_ - z_) * 2 * s * c):
        assert sympy.cancel(expr) == 0
    a = v / nu
    assert sympy.cancel(a.trace() + 2 - (big_e + 1 / big_e) ** 2) == 0
    root = (a + sympy.eye(2)) / (big_e + 1 / big_e)
    assert all(sympy.cancel(t) == 0 for t in root - rot * sympy.diag(big_e, 1 / big_e) * rot.T)
    # gent's (phi, r, nu) at seeded rational positive definite V against the same reading at 50
    # digits: measured 0.25 eps in phi, 1.4 eps in r (relative where |r| > 1) and 1.2 times the
    # rounding of det V in nu; bounds 2, 4 and 4
    rng = random.Random(3637)
    eps = sys.float_info.epsilon
    worst = [0.0] * 3
    with mpmath.workdps(50):
        done = 0
        while done < 300:
            x0, z0 = (Rational(rng.randint(1, 90), rng.randint(1, 30)) for _ in range(2))
            y0 = Rational(rng.randint(-90, 90), rng.randint(1, 30))
            if not x0 * z0 > y0**2:
                continue
            done += 1
            x1, y1, z1 = (float(t) for t in (x0, y0, z0))
            phi, r, nu_ = fock._principal_axis(x1, y1, z1)
            fx, fy, fz = (mpmath.mpf(t) for t in (x1, y1, z1))
            phi_ = (mpmath.atan2(2 * fy, fx - fz) if fx >= fz else mpmath.atan2(-2 * fy, fz - fx)) / 2
            root_ = mpmath.sqrt(fx * fz - fy**2)
            r_ = mpmath.log((fx + fy * mpmath.tan(phi_)) / root_) / 2
            # det V = x z - y^2 rounds by about eps (x z + y^2), and nu by that over 2 nu
            det_rounding = eps * (fx * fz + fy**2) / (2 * root_)
            worst = [max(w, float(g)) for w, g in zip(worst, (abs(phi - phi_) / eps, abs(r - r_) / max(1, abs(r_)) / eps,
                                                               abs(nu_ - root_) / det_rounding))]
    assert worst[0] <= 2 and worst[1] <= 4 and worst[2] <= 4, worst


def _rational_qp_free(rng, kind=0):
    """Seeded rational V without q-p correlation, physical as a float V: kind 0 general,
    1 with equal diagonals (b1 = b2), 2 with uncorrelated modes."""
    while True:
        vq, vp = ([Rational(rng.randint(10, 60), 20), Rational(rng.randint(-25, 25), 20),
                   Rational(rng.randint(10, 60), 20)] for _ in range(2))
        if kind == 1:
            vq[2], vp[2] = vq[0], vp[0]
        elif kind == 2:
            vq[1] = vp[1] = 0
        if vq[0] * vq[2] <= vq[1] ** 2 or vp[0] * vp[2] <= vp[1] ** 2:
            continue
        v = np.zeros((4, 4))
        v[::2, ::2] = [[vq[0], vq[1]], [vq[1], vq[2]]]
        v[1::2, 1::2] = [[vp[0], vp[1]], [vp[1], vp[2]]]
        if form_I_spectrum(to_standard_form_I(v)).kappa_minus > 0.5 + 1e-3:
            return v


def test_core_factorization():
    # a unit-determinant A has ((A + I) / sqrt(tr A + 2))^2 = A (Cayley-Hamilton), so
    # V_q^{1/2} = sqrt(b_q) that root of V_q / b_q; for V without q-p correlation
    # det(y I - (Omega V)^2) = (y^2 + tr(V_q V_p) y + det(V_q V_p))^2, so the kappa^2 are the
    # eigenvalues of V_q^{1/2} V_p V_q^{1/2} = X X^T, X = V_q^{1/2} V_p^{1/2}, and with
    # R(o) kappa^2 R(o)^T = X X^T, M = V_q^{1/2} R(o) kappa^{-1/2} has M kappa M^T = V_q and
    # M^-T kappa M^-1 = V_p.  For equal diagonals, R(pi/4) diag(e1, e2) with
    # e_i^4 = q_i/p_i and kappa_i^2 = q_i p_i, q_+- = x00 +- x01, p_+- = p00 +- p01, does so too
    p, q = sympy.symbols("p q", positive=True)
    a = sympy.Matrix([[p, q], [q, (1 + q**2) / p]])
    assert all(sympy.cancel(t) == 0 for t in (a + sympy.eye(2)) ** 2 / (a.trace() + 2) - a)
    sym = sympy.symbols("x00 x01 x11 p00 p01 p11 y", real=True)
    x00, x01, x11, p00, p01, p11, y = sym
    vq, vp = sympy.Matrix([[x00, x01], [x01, x11]]), sympy.Matrix([[p00, p01], [p01, p11]])
    v = sympy.zeros(4, 4)
    for i in range(2):
        for j in range(2):
            v[2 * i, 2 * j], v[2 * i + 1, 2 * j + 1] = vq[i, j], vp[i, j]
    omega = sympy.Matrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    charpoly = (y * sympy.eye(4) - (omega * v) ** 2).det()
    assert sympy.expand(charpoly - (y**2 + (vq * vp).trace() * y + (vq * vp).det()) ** 2) == 0
    qs, ps = sympy.symbols("q_p q_m", positive=True), sympy.symbols("p_p p_m", positive=True)
    m = sympy.Matrix([[1, -1], [1, 1]]) / sqrt(2) * sympy.diag(*((qi / pi) ** Rational(1, 4) for qi, pi in zip(qs, ps)))
    kappa = sympy.diag(*(sqrt(qi * pi) for qi, pi in zip(qs, ps)))
    half = [(qs[0] + qs[1]) / 2, (qs[0] - qs[1]) / 2, (ps[0] + ps[1]) / 2, (ps[0] - ps[1]) / 2]
    for got, (d, o) in ((m * kappa * m.T, half[:2]), (m.inv().T * kappa * m.inv(), half[2:])):
        assert all(sympy.simplify(t) == 0 for t in got - sympy.Matrix([[d, o], [o, d]]))
    # gent's factors of seeded rational V (general, equal diagonals, uncorrelated modes), with the
    # kappas the build reads, rebuilt at 50 digits against V: measured 5.5 eps of the largest
    # entry; bound 12 eps
    rng = random.Random(3638)
    eps = sys.float_info.epsilon
    worst = 0.0
    with mpmath.workdps(50):
        for i in range(300):
            v_ = _rational_qp_free(rng, i % 3)
            spec = form_I_spectrum(to_standard_form_I(v_))
            kappas, t2, (r1, r2), t1 = fock._core_factors(
                (v_[0, 0], v_[0, 2], v_[2, 2]), (v_[1, 1], v_[1, 3], v_[3, 3]), (spec.kappa_plus, spec.kappa_minus))
            mm = _mp_rot(t1) * mpmath.diag([mpmath.exp(r1), mpmath.exp(r2)]) * _mp_rot(t2).T
            k_ = mpmath.diag(list(kappas))
            for got, want in ((mm * k_ * mm.T, v_[::2, ::2]), (mpmath.inverse(mm).T * k_ * mpmath.inverse(mm), v_[1::2, 1::2])):
                worst = max(worst, float(_mp_max(got - mpmath.matrix(want.tolist())) / np.abs(v_).max() / eps))
    assert worst <= 12, worst


def test_local_layer_is_the_inverse_normalizer_and_rotation():
    # V = L V_I L^T with L = M1 (+) M2, M_i = N_i^{-1} R(a_i): N_i^{-1} = (V_i / b_i)^{1/2} is
    # R(phi_i) diag(e^s, e^-s) R(phi_i)^T (test_one_mode_phi_and_e2r), so
    # M_i = R(phi_i) diag(e^s, e^-s) R(a_i - phi_i): R(phi)^T = R(-phi), and R(-phi) R(a) is the
    # rotation by a - phi
    m1, m2 = sympy.symbols("m1 m2", real=True)
    assert all(sympy.cancel(t) == 0 for t in _rot(m1).T - _rot(-m1))
    product = _rot(-m1) * _rot(m2)
    assert sympy.cancel(product[0, 0] - product[1, 1]) == 0 and sympy.cancel(product[0, 1] + product[1, 0]) == 0
    assert sympy.cancel(product[0, 0] ** 2 + product[1, 0] ** 2 - 1) == 0
    # the local layer of seeded q-p correlated V = T W T^T (W without q-p correlation, T a
    # rational local symplectic) against N_i^{-1} R(a_i) at 50 digits, with N_i^{-1} the square
    # root of V_i / b_i and b_i, a_i gent's form I and angles: measured 6.7 eps of the largest
    # entry; bound 16 eps.  (Against the b_i of the exact det V_i it is up to 3.5e3 eps: det V_i
    # cancels in floats, and the form and its local layer share its rounding.)
    rng = random.Random(3639)
    eps = sys.float_info.epsilon
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(100):
            w = _rational_qp_free(rng)
            t = np.zeros((4, 4))
            for k in (0, 2):
                a00, a01, a10 = (Rational(rng.randint(-30, 30), rng.randint(5, 20)) for _ in range(3))
                if a00 == 0:
                    continue
                t[k : k + 2, k : k + 2] = [[a00, a01], [a10, (1 + a01 * a10) / a00]]  # det 1
            if not t[0, 0] or not t[2, 2]:
                continue
            v = t @ w @ t.T
            v = (v + v.T) / 2
            spec, scale = cm_core.symplectic_spectrum(v), cm_core.entry_scale(v)
            kappas = physical_kappa(spec.kappa_plus, scale), physical_kappa(spec.kappa_minus, scale)
            (_, into), (_, squeezes), (_, out) = fock._two_mode_factors(v, kappas)[1][3:]  # the local layer
            form, angles = form_I_reduction(v)
            for i, b in enumerate((form.b1, form.b2)):
                block = mpmath.matrix(v[2 * i : 2 * i + 2, 2 * i : 2 * i + 2].tolist()) / b
                det = mpmath.sqrt(mpmath.det(block))  # the root, as unit_root's identity gives it
                root = (block + det * mpmath.eye(2)) / mpmath.sqrt(block[0, 0] + block[1, 1] + 2 * det)
                want = root * _mp_rot(angles[i])
                got = _mp_rot(out[i]) * mpmath.diag([mpmath.exp(squeezes[i]), mpmath.exp(-squeezes[i])]) * _mp_rot(into[i])
                worst = max(worst, float(_mp_max(got - want) / _mp_max(want) / eps))
    assert worst <= 16, worst
