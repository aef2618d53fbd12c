"""The closed forms behind ``bures``, ``formation`` and ``relent``, checked exactly.

Where square roots of rationals are left, an identity is decided at seeded rationals:
the minimal polynomial of the difference of its sides is x exactly when the difference
is 0.  A rational identity is decided by ``sympy.cancel`` on symbols.
"""

import math
import random
import sys

import mpmath
import sympy
from sympy import Rational, log, sqrt

from gent import bures, relent
from gent.formation import entanglement_of_formation
from gent.scalar import SymmetricState, physical_kappa, symmetric_sts

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
        f = bures._fid1(float(a), float(b), float(x_var), float(y))
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


def test_minimize_mode_starts_at_the_large_x_root(monkeypatch):
    # with kappa^2 = 1/h^2 and x = y/h, f'/h -> 1/y - 1/(2 kt y^3) as h -> 0, whose root is
    # y = 1/sqrt(2 kt): x0 = sqrt(kappa^2/(2 kt)); minimize_mode forms x0 - 1/2 as
    # (2 kappa^2 - kt)/(4 kt (x0 + 1/2)), since x0^2 - 1/4 = (2 kappa^2 - kt)/(4 kt)
    h, y = sympy.symbols("h y", positive=True)
    lead = sympy.limit(sympy.diff(_F, _X).subs(_K2, 1 / h**2).subs(_X, y / h) / h, h, 0)
    assert sympy.simplify(lead - (1 / y - 1 / (2 * _KT * y**3))) == 0
    assert sympy.solve(lead, y) == [1 / sqrt(2 * _KT)]
    x0 = sqrt(_K2 / (2 * _KT))
    assert sympy.cancel(x0**2 - Rational(1, 4) - (2 * _K2 - _KT) / (4 * _KT)) == 0
    starts, slope = [], relent._mode_slope

    def recording_slope(e, kappa_sq, kt):
        starts.append(e)
        return slope(e, kappa_sq, kt)

    monkeypatch.setattr(relent, "_mode_slope", recording_slope)
    for _, k2, kt in _mode_draws(50, 1010):
        starts.clear()
        relent.minimize_mode(k2, kt)
        exact = sympy.sqrt(Rational(k2) / (2 * Rational(kt))) - Rational(1, 2)
        assert math.isclose(starts[0], float(exact.evalf(30)), rel_tol=4 * sys.float_info.epsilon), (k2, kt)
