import math
import random
import sys

import mpmath
import numpy as np
import pytest

from gent import bures, fock
from gent.bures import (
    bures_entanglement,
    max_fidelity_closed,
    numeric_max_fidelity,
    one_mode_fidelity,
)
from gent.cm_core import OneModeCM
from gent.errors import DomainError, OptimizerNoConverge, UnphysicalState
from gent.scalar import physical_kappa
from gent.scalar_min import SQRT_EPS, falling_root, golden_section
from gent.standard_forms import SymmetricState, symmetric_sts

from conftest import random_entangled_symmetric


def test_fidelity_identical_states():
    v = OneModeCM(0.9, 0.7)
    assert one_mode_fidelity(v, v) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_vacuum_vs_thermal():
    # analytic value 1/(nbar+1), cross-checked by the Fock oracle
    vac = OneModeCM(0.5, 0.5)
    for nbar in (0.2, 0.5, 1.0):
        th = OneModeCM(nbar + 0.5, nbar + 0.5)
        f = one_mode_fidelity(vac, th)
        assert f == pytest.approx(1.0 / (nbar + 1.0), abs=1e-12)
        f_oracle = fock.fidelity_fock(
            fock.gaussian_state_from_cm(vac, 60), fock.gaussian_state_from_cm(th, 60)
        )
        assert f == pytest.approx(f_oracle, abs=1e-8)


def test_fidelity_squeezed_vs_vacuum_oracle():
    sq = OneModeCM(math.e / 2, 1.0 / (2 * math.e))
    vac = OneModeCM(0.5, 0.5)
    f_oracle = fock.fidelity_fock(
        fock.gaussian_state_from_cm(sq, 60), fock.gaussian_state_from_cm(vac, 60)
    )
    assert one_mode_fidelity(sq, vac) == pytest.approx(f_oracle, abs=1e-8)


def test_fidelity_symmetric_in_arguments():
    a, b = OneModeCM(0.8, 0.9), OneModeCM(0.55, 1.3)
    assert one_mode_fidelity(a, b) == pytest.approx(one_mode_fidelity(b, a), abs=1e-14)


def test_fidelity_rejects_unphysical():
    with pytest.raises(UnphysicalState):
        one_mode_fidelity(OneModeCM(0.3, 0.3), OneModeCM(0.5, 0.5))


def _fidelity_50_digits(v, w):
    """The reciprocal form 1/(sqrt(Delta + 4 delta) - 2 sqrt(delta)) at the floats' own values;
    its terms cancel to about 300 of 400 digits at entries of 1e150."""
    with mpmath.workdps(400):
        a, b, c, d = (mpmath.mpf(t) for t in (v.sigma_qq, v.sigma_pp, w.sigma_qq, w.sigma_pp))
        quarter = mpmath.mpf(1) / 4
        big, small = (a + c) * (b + d), (a * b - quarter) * (c * d - quarter)
        return 1 / (mpmath.sqrt(big + 4 * small) - 2 * mpmath.sqrt(small))


def _one_mode_pair_draw(rng):
    """A seeded one-mode CM: thermal (v, v), squeezed thermal with entries from 1e-6 to 1e150,
    or pure with a power-of-two squeeze; every det V is exact or at least 0.56, so the
    rounding of det V - 1/4 stays within 2 eps of it."""
    kind = rng.randrange(3)
    if kind == 0:
        v = 10 ** rng.uniform(math.log10(0.75), 150)
        return OneModeCM(v, v)
    if kind == 1:
        k = rng.randint(-18, 18)
        return OneModeCM(math.ldexp(0.5, k), math.ldexp(0.5, -k))
    while True:
        q, nu = 10 ** rng.uniform(-6, 150), 10 ** rng.uniform(math.log10(0.75), 150)
        if 1e-6 <= nu * nu / q <= 1e150:
            return OneModeCM(q, nu * nu / q)


def test_one_mode_fidelity_against_50_digits():
    # F = (sqrt(Delta + 4 delta) + 2 sqrt(delta)) / Delta has no cancelling terms, and
    # Delta + 4 delta past the float range is scaled by a power of two.  On these 600
    # seeded pairs (every third a near pair, V' = V (1 + 10^[-12, -1])) the worst relative
    # error measured 1.9 eps; the bound 4 eps leaves a margin of 2.  The reciprocal form
    # divided by zero on 137 of them and erred by up to 1.3e-2 relative on the others.
    eps = sys.float_info.epsilon
    rng = random.Random(1414)
    for i in range(600):
        v = _one_mode_pair_draw(rng)
        if i % 3 == 0:
            near = 1 + 10 ** rng.uniform(-12, -1)
            w = OneModeCM(v.sigma_qq * near, v.sigma_pp * near)
        else:
            w = _one_mode_pair_draw(rng)
        ref = _fidelity_50_digits(v, w)
        assert abs(one_mode_fidelity(v, w) - ref) <= 4 * eps * ref, (v, w)
    # the fidelity of a state with itself, once NaN at 1e150 and 0.25 at 1e8
    for v in (0.5, 10.0, 1e4, 1e8, 1e50, 1e150):
        assert one_mode_fidelity(OneModeCM(v, v), OneModeCM(v, v)) == 1.0, v


def test_closed_form_domain():
    with pytest.raises(DomainError):
        max_fidelity_closed(0.0)
    with pytest.raises(DomainError):
        max_fidelity_closed(0.6)
    assert max_fidelity_closed(0.5) == pytest.approx(1.0, abs=1e-14)


def test_bures_entanglement_closed_form():
    s = SymmetricState(1.0, 0.8, 0.6)
    res = bures_entanglement(s)
    kt = math.sqrt(0.08)
    assert res.kappa_tilde_minus == pytest.approx(kt, abs=1e-12)
    assert res.f_max == pytest.approx(2 * kt / (kt + 0.5) ** 2, abs=1e-14)
    assert res.e_b == pytest.approx(1.0 - math.sqrt(res.f_max), abs=1e-12)
    assert res.d_bures == pytest.approx(math.sqrt(2 - 2 * math.sqrt(res.f_max)), abs=1e-12)


@pytest.mark.parametrize("gap", [10.0**-k for k in range(2, 12)])
def test_e_b_and_distance_near_the_threshold_against_mpmath(gap):
    # 1/2 - kt = gap, where sqrt(2 kt) - 1 and 2 - 2 sqrt(F_max) cancel (at gap 1e-8 the
    # latter is 0.49 relative off); the forms used stay within 1 eps (measured)
    res = bures_entanglement(SymmetricState(1.0, 0.5 + gap, 0.5 + gap))
    with mpmath.workdps(50):
        kt = mpmath.mpf(res.kappa_tilde_minus)
        e_b = (mpmath.sqrt(2 * kt) - 1) ** 2 / (2 * kt + 1)
        d_bures = mpmath.sqrt(2 - 2 * mpmath.sqrt(2 * kt / (kt + 0.5) ** 2))
        eps = sys.float_info.epsilon
        assert abs(res.e_b - e_b) <= 4 * eps * e_b
        assert abs(res.d_bures - d_bures) <= 4 * eps * d_bures


def test_f_max_of_a_pure_state_is_its_largest_schmidt_coefficient():
    # over all separable states, Gaussian or not, a pure state's maximal fidelity is its
    # largest Schmidt coefficient lambda_0 (Wei and Goldbart, PRA 68, 042307 (2003)); the
    # oracle's pure state is U|00>, so its amplitude matrix is the even class block's vacuum
    # column, and lambda_0 the square of that matrix's largest singular value.  Worst gap
    # 3.2e-15 measured at N = 30, so 1e-14 leaves a margin of 3.
    n = 30
    for r in np.linspace(0.05, 0.6, 12):
        s = symmetric_sts(float(r))
        rho = fock.gaussian_state_from_cm(s.to_cm(), n)
        assert rho.log_weights is None and rho.weights[0] == 1.0  # a pure core
        amp = np.zeros(n * n, dtype=rho.blocks[0].dtype)
        amp[rho._classes[0]] = rho.blocks[0][:, 0]
        lambda_0 = np.linalg.svd(amp.reshape(n, n), compute_uv=False)[0] ** 2
        assert abs(lambda_0 - bures_entanglement(s).f_max) <= 1e-14, r


def test_bures_separable_is_zero():
    res = bures_entanglement(SymmetricState(1.0, 0.5, 0.25))
    assert res.e_b == 0.0
    assert res.f_max == 1.0
    assert res.kappa_tilde_minus > 0.5


def test_numeric_maximizer_matches_closed_form():
    s = SymmetricState(1.0, 0.8, 0.6)
    f_star, argmax, _u = numeric_max_fidelity(s)
    assert f_star == pytest.approx(max_fidelity_closed(s.kappa_tilde_minus), abs=1e-6)
    # argmax sits on the separability threshold
    assert argmax.kappa_tilde_minus == pytest.approx(0.5, abs=1e-8)


def test_numeric_maximizer_tmsv():
    s = symmetric_sts(0.5)
    f_star, _, _ = numeric_max_fidelity(s)
    kt = 0.5 * math.exp(-1.0)
    assert f_star == pytest.approx(2 * kt / (kt + 0.5) ** 2, abs=1e-6)


def test_numeric_maximizer_beyond_criterion_1_range(rng):
    # nearly separable pure, strongly squeezed thermal, and b up to 10 (criterion 1 stops at 3)
    states = [symmetric_sts(0.05), symmetric_sts(2, 0.3)]
    states += random_entangled_symmetric(rng, 4, b_lo=3.0, b_hi=10.0)
    for s in states:
        f_star, argmax, _u = numeric_max_fidelity(s)
        assert abs(f_star - max_fidelity_closed(s.kappa_tilde_minus)) <= 1e-9, s
        assert abs(argmax.kappa_tilde_minus - 0.5) <= 1e-12, s


@pytest.mark.parametrize("b, c, d_abs", [(15, 14.983, 0.5), (50, 49.995, 0.2)])
def test_numeric_maximizer_scale_beyond_20(b, c, d_abs):
    # u* follows v = sqrt((b-|d|)/(b-c)): 29.2 and 99.8 here, past the former cap u' <= 20
    s = SymmetricState(b, c, d_abs)
    f_star, argmax, u = numeric_max_fidelity(s)
    assert u > 20
    assert abs(f_star - max_fidelity_closed(s.kappa_tilde_minus)) <= 1e-9
    assert abs(argmax.kappa_tilde_minus - 0.5) <= 1e-12


def test_numeric_maximizer_f_star_to_rounding_up_to_b_1e5():
    # (b, c, |d|) with |d| = f b and c = b - kt^2/(b - |d|): kappa_+^2/kt reaches 2.7e10 at
    # b = 1e5.  F* is an attained candidate's fidelity, so above the 50-digit F_max only by
    # its own rounding: measured from -1.8 to 1.7 eps relative on these 112 states, where
    # a search on values through the reciprocal one-mode form returned F* above F_max by
    # 1.9e-14 relative at (b, f, kt) = (10, 0.7, 1/4) and 1.1e-6 at b = 1e5; bound 4 eps
    eps = sys.float_info.epsilon
    tested = 0
    for b in (10.0 ** (k / 2) for k in range(11)):
        for f in (0.5, 0.7, 0.9, 0.99):
            for kt in (0.1, 0.25, 0.35, 0.45):
                d_abs = f * b
                c = b - kt**2 / (b - d_abs)
                if c < d_abs or (b + d_abs) * (b - c) < 0.3:  # kappa_- above 0.55
                    continue
                s = SymmetricState(b, c, d_abs)
                f_star, _, _ = numeric_max_fidelity(s)
                with mpmath.workdps(50):
                    k = mpmath.mpf(s.kappa_tilde_minus)
                    f_max = 2 * k / (k + mpmath.mpf(1) / 2) ** 2
                    assert abs(f_star - f_max) <= 4 * eps * f_max, (b, f, kt)
                tested += 1
    assert tested == 112


def test_numeric_maximizer_requires_entangled():
    with pytest.raises(DomainError):
        numeric_max_fidelity(SymmetricState(1.0, 0.2, 0.1))


def _product_fidelity(s, ln_x2, a1, a2):
    """Fidelity of s to the candidates (ln X2, a1, a2) of numeric_max_fidelity, on a grid.

    The candidate's beam-splitter modes have variances (X2 e^a1, 1/(4 X2)) and
    (X2, e^a2 / (4 X2)); the given state's are (k+^2/kt, kt) and (kt, k-^2/kt).
    """

    def fid(gq, gp, xq, xp):
        delta = (gq * gp - 0.25) * np.maximum(xq * xp - 0.25, 0.0)
        return 1.0 / (np.sqrt((gq + xq) * (gp + xp) + 4 * delta) - 2 * np.sqrt(delta))

    kt = s.kappa_tilde_minus
    x2 = np.exp(ln_x2)[:, None]
    f1 = fid(s.kappa_plus**2 / kt, kt, x2 * np.exp(a1), 0.25 / x2)
    f2 = fid(kt, s.kappa_minus**2 / kt, x2, 0.25 * np.exp(a2) / x2)
    return f1[:, :, None] * f2[:, None, :]


def test_numeric_maximizer_beats_grid():
    # criterion-1 draws, a state whose maximum lies on the edge c' = |d'|, and one with u* = 29
    states = random_entangled_symmetric(np.random.default_rng(101), 8)
    states += [symmetric_sts(1, 0.5), SymmetricState(15, 14.983, 0.5)]
    for s in states:
        f_star, _, _ = numeric_max_fidelity(s)
        kt = s.kappa_tilde_minus
        g1q, g2p = s.kappa_plus**2 / kt, s.kappa_minus**2 / kt
        g = (g1q, kt, g2p)
        # the maximizer's own search box, at its widest
        ln_x2 = np.linspace(math.log(min(g)) - 3, math.log(max(g)) + 3, 161)
        a = np.linspace(0.0, max(math.log(4 * g1q / min(g)), math.log(16 * g2p * max(g))) + 6, 161)
        grid = _product_fidelity(s, ln_x2, a, a)
        grid_max = grid[:, np.tril(np.ones((a.size, a.size), dtype=bool))].max()  # a2 <= a1
        assert grid_max <= f_star + 1e-12, s
        assert f_star - grid_max < 1e-2, s  # the grid reaches the maximum


def _one_mode_draws(rng, n):
    """n triples (A, B, V): a one-mode state (A, B) with AB >= 1/4 and a candidate's
    fixed variance V, each in e^[-4, 4]; every tenth state is pure, AB = 1/4."""
    out = []
    while len(out) < n:
        ln_a, ln_b, ln_v = rng.uniform(-4.0, 4.0, 3)
        pure = len(out) % 10 == 0
        if pure:
            ln_b = -math.log(4.0) - ln_a
        if abs(ln_b) <= 4.0 and (pure or ln_a + ln_b >= -math.log(4.0)):
            a = math.exp(ln_a)
            out.append((a, 0.25 / a if pure else math.exp(ln_b), math.exp(ln_v)))
    return out


def test_one_mode_closed_form_maximum_against_brent():
    # numeric_max_fidelity takes each beam-splitter mode's maximum in closed form:
    # over X = e^a/(4Y) at fixed Y (mode 1), a* = log1p(4Y (AB - 1/4)/B), and over
    # Y = e^a/(4X) at fixed X (mode 2), a* = log1p(4X (AB - 1/4)/A).  Brent's method
    # over a in [0, max(0, ln 16AY) + 3] (X up to e^3 past 4A; mode 2 alike) must not
    # beat it.  Measured on these 3000 draws: Brent above by at most 2.7 eps relative
    # (rounding of _fid1; 4.5e-13 when its two terms cancelled), argmaxes apart by at
    # most 4.7 sqrt(eps)(1 + a*); bounds 8 eps and 32 sqrt(eps)
    worst_f = worst_a = 0.0
    for a_, b_, v in _one_mode_draws(np.random.default_rng(2007), 3000):
        k = max(0.0, a_ * b_ - 0.25)
        forms = (
            (lambda z: bures._fid1(a_, b_, math.exp(z) / (4 * v), v), math.log(16 * a_ * v), 4 * v * k / b_),
            (lambda z: bures._fid1(a_, b_, v, math.exp(z) / (4 * v)), math.log(16 * b_ * v), 4 * v * k / a_),
        )
        for f, ln_hi, offset in forms:
            a_star = math.log1p(offset)
            a_brent, neg = golden_section(lambda z: -f(z), 0.0, max(0.0, ln_hi) + 3.0, tol=1e-11)
            worst_f = max(worst_f, (-neg - f(a_star)) / f(a_star))
            worst_a = max(worst_a, abs(a_brent - a_star) / (SQRT_EPS * (1 + a_star)))
    assert worst_f <= 8 * sys.float_info.epsilon
    assert worst_a <= 32


def test_numeric_maximizer_argmax_is_sigma_star_b():
    # sigma*_B has beam-splitter variances X2 = Y1 = 1/2, X1 = g1q + 1/2 - 1/(4 kt) and
    # Y2 = g2p + 1/2 - 1/(4 kt).  On the criterion-1 draws the verifier's argmax
    # (b', c', |d'|, u') matched it to 16.6 eps relative, in |d'|, whose reference
    # Y2 - 1/2 cancels where kappa_- nears 1/2 (b' 1.8, c' 4.3, u' 1.3 eps; a search on
    # values stopped at 1.5 sqrt(eps)), and the fidelity there matched F_max to 7.5 eps
    # relative; bounds 32 eps and 16 eps
    eps = sys.float_info.epsilon
    for s in random_entangled_symmetric(np.random.default_rng(101), 100):
        kt = s.kappa_tilde_minus
        g1q, g2p = s.kappa_plus**2 / kt, s.kappa_minus**2 / kt
        x1, y1, x2, y2 = g1q + 0.5 - 0.25 / kt, 0.5, 0.5, g2p + 0.5 - 0.25 / kt
        u = math.sqrt((x1 + x2) / (y1 + y2))
        b = math.sqrt((x1 + x2) * (y1 + y2)) / 2
        _, argmax, u_arg = numeric_max_fidelity(s)
        got, want = (argmax.b, argmax.c, argmax.d_abs, u_arg), (b, (x1 - x2) / (2 * u), (y2 - y1) * u / 2, u)
        assert all(abs(g - w) <= 32 * eps * w for g, w in zip(got, want)), s
        f_max = max_fidelity_closed(kt)
        assert abs(bures._fid1(g1q, kt, x1, y1) * bures._fid1(kt, g2p, x2, y2) - f_max) <= 16 * eps * f_max, s


def _recorded_root_solves(monkeypatch):
    """Each root solve of numeric_max_fidelity, recorded as [slope evaluations, root]."""
    solves, solve = [], bures.falling_root

    def recorded(f, lo, hi):
        solves.append([0, None])

        def counted(w):
            solves[-1][0] += 1
            return f(w)

        solves[-1][1] = solve(counted, lo, hi)
        return solves[-1][1]

    monkeypatch.setattr(bures, "falling_root", recorded)
    return solves


def test_numeric_maximizer_objective_calls(monkeypatch):
    # a speed guard that reads no clock: on the criterion-1 draws of the test above, one
    # root solve of the slope over ln X2 takes 7-10 slope evaluations per state (mean
    # 8.85), each mode's slope in closed form, and two _fid1 calls give F*; the bound 12
    # leaves a margin of 1.2 (a search on the values took 22-44 _fid1 calls, bound 66).
    # The root x2* = e^w* measured within 0.5 eps of 1/2, where the search on values
    # stopped at about sqrt(eps); bound 2 eps
    eps = sys.float_info.epsilon
    calls, fid1 = [], bures._fid1

    def counted(*args):
        calls.append(1)
        return fid1(*args)

    monkeypatch.setattr(bures, "_fid1", counted)
    solves = _recorded_root_solves(monkeypatch)
    for s in random_entangled_symmetric(np.random.default_rng(101), 100):
        calls.clear()
        solves.clear()
        numeric_max_fidelity(s)
        assert len(solves) == 1 and solves[0][0] <= 12, s
        assert abs(math.exp(solves[0][1]) - 0.5) <= 2 * eps, s
        assert len(calls) == 2, s


def _thermal_grid():
    grid = [symmetric_sts(r, nbar) for r in (0.05, 0.5, 1.0, 2.0, 3.0) for nbar in (0.0, 0.3, 2.0)]
    return [s for s in grid if not s.is_separable()]


def test_numeric_maximizer_bound_certifies_f_star(monkeypatch):
    # U(w*), the product of the two one-mode maxima at the root w* of the slope, bounds
    # the family on that slice; F* is attained in the family, at the candidate with a2
    # clipped to min(a2*, a1*).  Where a2* > a1*, the clip puts the argmax on the edge
    # c' = |d'|; elsewhere F* is U(w*) bit for bit.  For kappa_+ = kappa_- the two maxima
    # meet at x2 = 1/2, so a root that lands a rounding to one side of it clips: measured
    # on 4 of the 7 mixed thermal states.  U(w*) - F* measured 0 on all but one, 1.6 eps relative at
    # symmetric_sts(0.5, 0.3), where a search on values left up to 50.6 eps; the bound
    # 128 eps is kept
    eps = sys.float_info.epsilon
    solves = _recorded_root_solves(monkeypatch)
    states = random_entangled_symmetric(np.random.default_rng(101), 8)
    states += [symmetric_sts(1, 0.5), SymmetricState(15, 14.983, 0.5)] + _thermal_grid()
    clipped = 0
    for s in states:
        f_star, argmax, _ = numeric_max_fidelity(s)
        kt, x2 = s.kappa_tilde_minus, math.exp(solves[-1][1])
        kp, km = physical_kappa(s.kappa_plus, s.b), physical_kappa(s.kappa_minus, s.b)
        e1, e2 = (kp - 0.5) * (kp + 0.5) / kt, (km - 0.5) * (km + 0.5) / kt
        y1 = 0.25 / x2  # each mode's maximum: X1* = x2 + e1, Y2* = y1 + e2
        u = bures._fid1(kp**2 / kt, kt, x2 + e1, y1) * bures._fid1(kt, km**2 / kt, x2, y1 + e2)
        assert 0.0 <= u - f_star <= 128 * eps * f_star and argmax.c >= argmax.d_abs, s
        a1, a2 = math.log1p(e1 / x2), math.log1p(4 * x2 * e2)
        if a2 > a1 and kp > 0.6:  # mixed: a pure state has a1* = a2* = 0
            clipped += 1
            assert argmax.c == argmax.d_abs, s
        elif a2 < a1:
            assert f_star == u, s
    assert clipped >= 1


def test_numeric_maximizer_argmax_on_threshold_for_squeezed_thermal():
    states = _thermal_grid()
    assert len(states) == 12
    for s in states:
        f_star, argmax, u = numeric_max_fidelity(s)
        assert isinstance(argmax, SymmetricState) and u > 0, s
        assert abs(argmax.kappa_tilde_minus - 0.5) <= 1e-12, s
        assert abs(f_star - max_fidelity_closed(s.kappa_tilde_minus)) <= 1e-9, s
    # a pure state's kappas, on either side of 1/2 by rounding, are read as exactly 1/2:
    # both one-mode maxima sit on their edges a = 0, so b' = 1/2 and c' = |d'| = 0 exactly
    for r in np.linspace(0.05, 3.0, 60).tolist():
        _, argmax, _ = numeric_max_fidelity(symmetric_sts(r))
        assert (argmax.b, argmax.c, argmax.d_abs) == (0.5, 0.0, 0.0), r


def test_numeric_maximizer_refuses_a_maximum_on_a_search_bound(monkeypatch):
    # search ranges that stop one e-fold inside the given state's variances cut off
    # the maximum of this state, which lies below the lower end of the ln X2 range
    monkeypatch.setattr(bures, "_MARGIN", -1.0)
    with pytest.raises(OptimizerNoConverge, match="search bound"):
        numeric_max_fidelity(SymmetricState(1.0, 0.8, 0.6))


def test_root_finder_refuses_a_maximum_on_either_search_bound():
    # the slope must fall from positive at the lower end to negative at the upper
    assert falling_root(lambda z: 0.5 - z, 0.0, 1.0) == 0.5
    for slope in (lambda z: -1.0 - z, lambda z: 2.0 - z, lambda z: z - 0.5, lambda z: -z):
        with pytest.raises(OptimizerNoConverge, match="search bound"):
            falling_root(slope, 0.0, 1.0)
