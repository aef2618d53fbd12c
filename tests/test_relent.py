import math
import random
import sys

import mpmath
import numpy as np
import pytest

from gent import fock, relent
from gent.cm_core import OneModeCM
from gent.errors import DomainError, OptimizerNoConverge, SupportViolation, UnphysicalState
from gent.relent import (
    grid_rel_ent,
    minimize_mode,
    mode_rel_entropy,
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


def test_entropy_holds_to_rounding_against_50_digits():
    # -Tr rho ln rho is the brace at rho' = rho: ln(1+x) + x ln(1+1/x) at nu = 1/2 + x, whose
    # terms do not cancel; (x+1)ln(x+1) - x ln x lost 7.1e-11 relative at x = 1e6, 1.3e-2 at 1e15
    rng = random.Random(3030)
    xs = [10.0**k for k in range(-12, 16)] + [10 ** rng.uniform(-12, 15) for _ in range(300)]
    with mpmath.workdps(50):
        for x in xs:
            m = mpmath.mpf(x)
            ref = (m + 1) * mpmath.log(m + 1) - m * mpmath.log(m)
            assert abs(relent._entropy_excess(x) - ref) <= 4 * sys.float_info.epsilon * ref, x


def _mp_mode_minimum(kappa_sq, kt, x_start):
    """The minimum of the brace -Tr(rho ln rho') of mode_rel_entropy at the working precision,
    by bisection of f' in t = ln(x - 1/2) within a factor 4 of x_start - 1/2 (f has one
    stationary point)."""
    half = mpmath.mpf(1) / 2

    def g_and_slope(x):
        g = kappa_sq / (2 * x * kt) + 2 * x * kt
        dg = 2 * kt - kappa_sq / (2 * x * x * kt)
        return g, (x - g / 2) / (x * x - half * half) + dg * mpmath.log((x + half) / (x - half)) / 2

    lo, hi = mpmath.log((x_start - half) / 4), mpmath.log(4 * (x_start - half))
    assert g_and_slope(half + mpmath.exp(lo))[1] < 0 < g_and_slope(half + mpmath.exp(hi))[1]
    for _ in range(130):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if g_and_slope(half + mpmath.exp(mid))[1] < 0 else (lo, mid)
    x = half + mpmath.exp(lo)
    g = g_and_slope(x)[0]
    return (1 + g) / 2 * mpmath.log(x + half) + (1 - g) / 2 * mpmath.log(x - half)


NEAR_THRESHOLD_STATES = [(0.6, 0.1), (1.0, 0.3), (1.0, 0.5), (3.0, 0.9), (3.0, 2.5), (10.0, 9.5),
                         (100.0, 99.5), (1000.0, 999.5), "pure"]


@pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_e_s_near_the_threshold_against_60_digits(gap):
    # at 1/2 - kt = gap, c = b - kt^2/(b - d), and the pure symmetric_sts(r) of that kt.  The
    # reference takes the float state as given, and the pure state as exactly pure (its float
    # kappas read as exactly 1/2) at its float kt.  E_S ~ C gap^2 moves by about eps/(2 gap)
    # relative under kt's own rounding: measured at most 0.77 eps/gap, 5.2e-9 at gap 1e-8, where
    # brace - entropy lost 0.04 at 1e-7 and all digits at 1e-8.  At gap 1e-8 the threshold rule
    # reads (1000, 999.5) as separable: above_vacuum(kt, b) allows 128 eps b^2 = 2.8e-8
    eps = sys.float_info.epsilon
    kt = 0.5 - gap
    separable = []
    for state in NEAR_THRESHOLD_STATES:
        if state == "pure":
            s = symmetric_sts(-0.5 * math.log(2 * kt))
            assert relent._vacuum_floor(s.kappa_plus) == relent._vacuum_floor(s.kappa_minus) == 0.5
        else:
            b, d = state
            s = SymmetricState(b, b - kt * kt / (b - d), d)
        if s.is_separable():
            separable.append(state)
            continue
        res = rel_ent_entanglement(s)
        with mpmath.workdps(60):
            b_, c_, d_ = (mpmath.mpf(t) for t in (s.b, s.c, s.d_abs))
            kt_ = mpmath.sqrt((b_ - d_) * (b_ - c_))
            k_sqs = [mpmath.mpf(1) / 4] * 2 if state == "pure" else [(b_ - d_) * (b_ + c_), (b_ + d_) * (b_ - c_)]
            ref = mpmath.mpf(0)
            for k_sq, x_star in zip(k_sqs, (res.x1_star, res.x2_star)):
                nu = mpmath.sqrt(k_sq)
                entropy = (nu + 0.5) * mpmath.log(nu + 0.5) - (nu - 0.5) * mpmath.log(nu - 0.5) if nu > 0.5 else 0
                ref += _mp_mode_minimum(k_sq, kt_, x_star) - entropy
        assert res.e_s > 0, state
        assert abs(res.e_s - ref) <= min(2 * eps / gap, 1e-8) * ref, (state, res.e_s, ref)
    assert separable == ([(1000.0, 999.5)] if gap == 1e-8 else [])


def test_rel_entropy_same_state_is_zero():
    # the split is 0 at rho' = rho term by term, with no shortcut; a pure rho' (the last two)
    # gives 0 for the same pure rho alone
    for v in (OneModeCM(0.8, 1.1), OneModeCM(1e7, 3e-7), OneModeCM(0.5 + 1e-9, 0.5 + 1e-9),
              OneModeCM(0.5, 0.5), OneModeCM(0.5 * math.e, 0.5 / math.e)):
        assert rel_entropy_one_mode(v, v) == 0.0, v


@pytest.mark.parametrize("nu", [1.0, 10.0, 1e3, 1e5, 1e7])
def test_rel_entropy_of_near_thermal_pairs_against_60_digits(nu):
    # nu' = (1 +- 10^-k) nu, where brace - entropy cancelled to a relative error of about
    # 10^k eps nu (5.3e-9 at nu = 1e7, k = 3) and lost every digit from k = 8 on; the split
    # measured at most 2.0 eps
    eps = sys.float_info.epsilon
    with mpmath.workdps(60):
        nu_, half = mpmath.mpf(nu), mpmath.mpf(1) / 2
        entropy = (nu_ + half) * mpmath.log(nu_ + half) - (nu_ - half) * mpmath.log(nu_ - half)
        for k in range(1, 13):
            for nup in (nu * (1 + 10.0**-k), nu * (1 - 10.0**-k)):
                nup_ = mpmath.mpf(nup)
                brace = (1 + 2 * nu_) / 2 * mpmath.log(nup_ + half) + (1 - 2 * nu_) / 2 * mpmath.log(nup_ - half)
                got = rel_entropy_one_mode(OneModeCM(nup, nup), OneModeCM(nu, nu))
                assert abs(got - (brace - entropy)) <= 4 * eps * (brace - entropy), (nu, nup)


def test_h_against_50_digits():
    # h(u) = ln(1+u) - u from |u| = 1e-12 to 1e3, with 1 + u exact: measured at most 2.3 eps
    rng = random.Random(1515)
    us = [sign * 10.0**k for k in range(-12, 4) for sign in (1, -1) if sign * 10.0**k > -1]
    us += [sign * 10 ** rng.uniform(-12, 3) for sign in (1, -1) for _ in range(300)]
    us += [rng.uniform(-0.999, 1.0) for _ in range(300)]
    with mpmath.workdps(50):
        for u in us:
            w = 1.0 + u
            u = w - 1.0  # exact, so that (u, w) is one point
            if u <= -1 or u == 0:
                continue
            ref = mpmath.log1p(mpmath.mpf(u)) - u
            assert abs(relent._h(u, w) - ref) <= 4 * sys.float_info.epsilon * abs(ref), u


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


@pytest.mark.parametrize("vp, v", [(OneModeCM(0.5, 0.5), OneModeCM(1.0, 1.0)),
                                   (OneModeCM(0.5, 0.5), OneModeCM(0.5 * math.e, 0.5 / math.e)),
                                   (OneModeCM(0.5 * math.e, 0.5 / math.e), OneModeCM(0.5, 0.5)),
                                   (OneModeCM(0.5, 0.5), OneModeCM(0.5 + 1e-9, 0.5 + 1e-9))])
def test_rel_entropy_pure_reference_diverges(vp, v):
    with pytest.raises(SupportViolation):
        rel_entropy_one_mode(vp, v)


def test_mode_rel_entropy_value():
    # q-function of the second transformed mode of (b, c, |d|) = (1, 0.8, 0.6): the brace
    # 0.3794183756 at x = 0.8, less the mode entropy
    k = math.sqrt(0.32)
    val = mode_rel_entropy(0.3, k, math.sqrt(0.08))
    assert val + von_neumann_entropy(OneModeCM(k, k)) == pytest.approx(0.3794183756, abs=1e-8)
    with pytest.raises(DomainError):
        mode_rel_entropy(0.0, k, math.sqrt(0.08))


def _mp_rel_entropy_and_size(x, k, kt):
    """S(rho'||rho) = brace - entropy for rho of CM diag(k^2/kt, kt) and rho' of CM
    diag(2x^2, 1/2), and the size of the terms, at the working precision."""
    x, k, kt, half = mpmath.mpf(x), mpmath.mpf(k), mpmath.mpf(kt), mpmath.mpf(1) / 2
    g = k * k / (2 * x * kt) + 2 * x * kt
    big_l = mpmath.log((x + half) / (x - half))
    entropy = (k + half) * mpmath.log(k + half) - (k - half) * mpmath.log(k - half)
    brace = mpmath.log(x + half) + (g - 1) / 2 * big_l
    return brace - entropy, entropy + mpmath.log(x + half) + abs(g - 1) / 2 * big_l


def test_one_mode_rel_entropy_is_the_mode_form_against_60_digits():
    # rel_entropy_one_mode on the CMs and mode_rel_entropy on (x - 1/2, k, kt) hold to 60 digits
    # of the mode problem: measured at most 2.5 and 2.1 eps of the size of the terms (the old
    # brace - entropy forms agreed with each other to 16 eps of it), and mode_rel_entropy to
    # 6.9 eps of its value
    rng = np.random.default_rng(1616)
    eps = sys.float_info.epsilon
    with mpmath.workdps(60):
        for _ in range(500):
            kt, k, x = rng.uniform(0.01, 0.49), rng.uniform(0.5, 3.0), 0.5 + 10 ** rng.uniform(-6, 1.5)
            ref, size = _mp_rel_entropy_and_size(x, k, kt)
            one_mode = rel_entropy_one_mode(OneModeCM(2 * x * x, 0.5), OneModeCM(k * k / kt, kt))
            mode = mode_rel_entropy(x - 0.5, k, kt)
            assert abs(one_mode - ref) <= 8 * eps * size, (kt, k, x)
            assert abs(mode - ref) <= 8 * eps * size and abs(mode - ref) <= 16 * eps * ref, (kt, k, x)


def test_minimize_mode():
    kt = math.sqrt(0.08)
    e1, e2 = minimize_mode(0.72, kt), minimize_mode(0.32, kt)
    assert 0.5 + e1 == pytest.approx(1.1100046, abs=1e-4)
    assert 0.5 + e2 == pytest.approx(0.7182794, abs=1e-4)
    # the minima of the brace, as mode_rel_entropy plus the mode entropy
    for e, k_sq, brace in ((e1, 0.72, 0.8521063), (e2, 0.32, 0.3641169)):
        k = math.sqrt(k_sq)
        assert mode_rel_entropy(e, k, kt) + von_neumann_entropy(OneModeCM(k, k)) == pytest.approx(brace, abs=1e-6)
    with pytest.raises(DomainError):
        minimize_mode(0.72, 0.6)
    # kappa^2 <= kt (1 - kt): the objective falls to -inf at x -> 1/2
    with pytest.raises(DomainError):
        minimize_mode(0.2, 0.4)


def _slope_and_size(x, kappa_sq, kt):
    """f'(x) = (x - g/2)/D + g' L/2 of mode_rel_entropy, and the size of its terms."""
    g = kappa_sq / (2 * x * kt) + 2 * x * kt
    dg = 2 * kt - kappa_sq / (2 * x * x * kt)
    d = x * x - 0.25
    l = math.log((x + 0.5) / (x - 0.5))
    size = (x + g / 2) / d + (2 * kt + kappa_sq / (2 * x * x * kt)) * l / 2
    return (x - g / 2) / d + dg * l / 2, size


def _golden_mode_minimum(kappa, kt):
    """Reference minimum of mode_rel_entropy: a doubling walk from 1/2 + 1e-9, then Brent's method.

    golden_section stops at the resolution sqrt(eps)*|x| + 1e-10/3; at a
    minimum that places x to ~sqrt(eps) relative and the value to rounding.
    """
    f = lambda x: mode_rel_entropy(x - 0.5, kappa, kt)
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
            m = mode_rel_entropy(minimize_mode(kappa * kappa, kt), kappa, kt)
            _, m_ref = _golden_mode_minimum(kappa, kt)
            assert abs(m - m_ref) <= 1e-13 * (abs(m_ref) + 1), s


@pytest.mark.parametrize("curvature", [0.1, 0.01])
def test_minimize_mode_safeguards_hold_an_understated_curvature(monkeypatch, rng, curvature):
    # f'' understated makes every Newton step too long: the sign bracket's bisection
    # takes over (about 40 slope evaluations per solve, against 4), and with the
    # rounding stop switched off (size 0) the tiny-move stop ends the solve.  Measured
    # gaps to the unperturbed solve: f = mode_rel_entropy 0.88 eps of the brace f + S(kappa),
    # whose terms set the rounding of the stationary point, and x - 1/2 0.48 sqrt(eps) relative
    cases = [(k, s.kappa_tilde_minus) for s in random_entangled_symmetric(rng, 50)
             for k in (s.kappa_plus, s.kappa_minus)]
    want = [minimize_mode(k * k, kt) for k, kt in cases]
    slope, calls = relent._mode_slope, []
    for size_factor in (1.0, 0.0):
        def understated(e, kappa_sq, kt):
            calls.append(kappa_sq)
            f1, f2, size = slope(e, kappa_sq, kt)
            return f1, curvature * f2, size_factor * size

        monkeypatch.setattr(relent, "_mode_slope", understated)
        for (k, kt), e in zip(cases, want):
            e_p = minimize_mode(k * k, kt)
            f, f_p = mode_rel_entropy(e, k, kt), mode_rel_entropy(e_p, k, kt)
            assert abs(f_p - f) <= 8 * sys.float_info.epsilon * (f + relent._entropy_nu(k)), (k, kt)
            assert abs(e_p - e) <= math.sqrt(sys.float_info.epsilon) * e, (k, kt)
    assert len(calls) > 2 * len(cases) * 20
    monkeypatch.setattr(relent, "_NEWTON_MAX_STEPS", 5)
    with pytest.raises(OptimizerNoConverge, match="no stationary point in 5 steps"):
        minimize_mode(cases[0][0] ** 2, cases[0][1])


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
    # E_S is a sum of nonnegative terms, each of order (1/2 - kt)^2 as kt -> 1/2
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


def _entropy(nu):
    """Entropy of a mode of symplectic eigenvalue nu, (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2)."""
    return 0.0 if nu <= 0.5 else (nu + 0.5) * math.log(nu + 0.5) - (nu - 0.5) * math.log(nu - 0.5)


def test_e_s_above_the_hashing_floor():
    # the relative entropy of entanglement is at least the coherent information
    # I_coh = S(rho_A) - S(rho_AB) = S(b) - S(kappa_+) - S(kappa_-) (hashing, Devetak and Winter
    # 2005), and E_S bounds it from above: on criterion 1's draws and squeezed thermal states
    # the smallest margin measured is 0.034 (symmetric_sts(0.1)), and I_coh > 0 on 16 of the 109
    states = random_entangled_symmetric(np.random.default_rng(101), 100)
    states += [symmetric_sts(r, nbar) for r in (0.1, 0.5, 1.0) for nbar in (0.0, 0.2, 1.0)]
    margins = []
    for s in states:
        i_coh = _entropy(s.b) - _entropy(s.kappa_plus) - _entropy(s.kappa_minus)
        margins.append(rel_ent_entanglement(s).e_s - i_coh)
    assert min(margins) > 0, min(margins)
