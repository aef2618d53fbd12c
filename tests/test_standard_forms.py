import math

import mpmath
import numpy as np
import pytest

from gent import cm_core, standard_forms as sf
from gent.errors import DomainError, NonPositiveDefinite, NumericalDegeneracy, UnphysicalState

from conftest import random_entangled_symmetric, random_local_symplectic

EPS = np.finfo(float).eps


def test_recover_form_I_from_scaled_cm(rng):
    base = sf.StandardFormI(b1=1.1, b2=0.9, c=0.5, d=-0.3)
    v = sf.make_scaled_cm(sf.ScaledState(base, u1=1.4, u2=0.8))
    rec = sf.to_standard_form_I(v)
    assert rec.b1 == pytest.approx(base.b1, abs=1e-10)
    assert rec.b2 == pytest.approx(base.b2, abs=1e-10)
    assert rec.c == pytest.approx(base.c, abs=1e-10)
    assert rec.d == pytest.approx(base.d, abs=1e-10)


def test_recover_after_local_rotation(rng):
    from conftest import random_local_symplectic

    for s in random_entangled_symmetric(rng, 10):
        v = s.to_cm()
        t = random_local_symplectic(rng)
        rec = sf.to_standard_form_I(t @ v @ t.T)
        assert rec.b1 == pytest.approx(s.b, abs=1e-8)
        assert rec.c == pytest.approx(s.c, abs=1e-7)
        assert rec.d == pytest.approx(-s.d_abs, abs=1e-7)


def test_recover_pure_state_after_local_symplectic(rng):
    # c = |d| puts kappa_- on the vacuum floor, where lost digits show as an unphysical state
    from conftest import random_local_symplectic

    for r in [0.05, *rng.uniform(0.0, 2.5, 40)]:
        s = sf.symmetric_sts(float(r))
        t = random_local_symplectic(rng)
        rec = sf.to_standard_form_I(t @ s.to_cm() @ t.T)
        tol = 1e-12 * s.b
        assert abs(rec.b1 - s.b) <= tol and abs(rec.b2 - s.b) <= tol, r
        assert abs(rec.c - s.c) <= tol and abs(rec.d + s.d_abs) <= tol, r
        assert sf.SymmetricState(rec.b1, rec.c, abs(rec.d)).is_physical(), r


def test_symmetric_kappas_match_generic_spectrum(rng):
    for s in random_entangled_symmetric(rng, 10):
        spec = cm_core.symplectic_spectrum(s.to_cm())
        assert s.kappa_plus == pytest.approx(spec.kappa_plus, abs=1e-9)
        assert s.kappa_minus == pytest.approx(spec.kappa_minus, abs=1e-9)
        assert s.kappa_tilde_minus == pytest.approx(spec.kappa_tilde_minus, abs=1e-9)


def test_form_II_scales_the_diagonal_blocks(rng):
    for s in random_entangled_symmetric(rng, 10):
        v, v_ii = sf.form_II_symmetric(s)
        # form II has equal diagonal blocks up to the p/q asymmetry
        assert v_ii[0, 0] == pytest.approx(s.b * v)
        assert v_ii[1, 1] == pytest.approx(s.b / v)


def test_symmetric_sts_parameters():
    s = sf.symmetric_sts(0.5, nbar=0.25)
    nu = 0.75
    assert s.b == pytest.approx(nu * math.cosh(1.0))
    assert s.c == pytest.approx(nu * math.sinh(1.0))
    assert s.c == s.d_abs
    assert sf.symmetric_sts(0.0).is_separable()
    assert sf.symmetric_sts(9.3).b > sf.symmetric_sts(9.3).c  # b - c keeps a digit
    with pytest.raises(DomainError):
        sf.symmetric_sts(-0.1)


@pytest.mark.parametrize("r, nbar", [(9.5, 0.0), (20.0, 0.0), (400.0, 0.0), (1.0, 1e308)])
def test_symmetric_sts_beyond_float_range_is_ill_conditioned(r, nbar):
    # b - c = nu e^{-2r} rounds to 0 (r = 9.5, 20), cosh 2r overflows (r = 400),
    # or nu cosh 2r does (nbar = 1e308): the physical state is refused, not misread
    with pytest.raises(NumericalDegeneracy, match="ill-conditioned"):
        sf.symmetric_sts(r, nbar)


def test_scaled_state_and_form_II_refusals():
    base = sf.StandardFormI(1.0, 1.0, 0.5, -0.3)
    for u1, u2 in [(0.0, 1.0), (1.0, -1.0), (-2.0, -2.0)]:
        with pytest.raises(DomainError):
            sf.ScaledState(base, u1, u2)
    with pytest.raises(UnphysicalState):
        sf.form_II_symmetric(sf.SymmetricState(0.5, 0.4, 0.4))  # kappa_- = 0.3


def test_symmetric_state_validation():
    with pytest.raises(DomainError):
        sf.SymmetricState(b=0.4, c=0.0, d_abs=0.0)
    with pytest.raises(DomainError):
        sf.SymmetricState(b=1.0, c=0.2, d_abs=0.5)  # c < |d|
    with pytest.raises(DomainError):
        sf.SymmetricState(b=1.0, c=1.0, d_abs=0.5)  # b = c


@pytest.mark.parametrize(
    "b, c, d_abs",
    [(math.nan, 0.5, 0.1), (1.0, math.nan, 0.1), (1.0, 0.5, math.nan), (math.inf, 0.5, 0.1),
     (math.inf, math.inf, 0.1)],
)
def test_symmetric_state_rejects_non_finite(b, c, d_abs):
    # NaN fails every comparison of the other checks, so it needs its own
    with pytest.raises(DomainError, match="non-finite"):
        sf.SymmetricState(b, c, d_abs)


def test_zero_det_c_branch():
    v = sf.make_scaled_cm(sf.ScaledState(sf.StandardFormI(1.0, 1.0, 0.4, 0.0), 1.0, 1.0))
    rec = sf.to_standard_form_I(v)
    assert rec.d == 0.0
    assert rec.c == pytest.approx(0.4, abs=1e-10)


def _form_I_mpmath(v):
    """Standard form I of the float CM v from its local invariants at 50 digits.

    No normalizer and no singular values: b_i = sqrt(det V_i), c d = det C and
    c^2 + d^2 = b1 b2 tr(C^T V1^-1 C V2^-1), the squared Frobenius norm of
    N1 C N2^T for any symplectic N_i with N_i V_i N_i^T = b_i I.
    """
    with mpmath.workdps(50):
        m = mpmath.matrix(np.asarray(v).tolist())
        v1, v2, c = m[0:2, 0:2], m[2:4, 2:4], m[0:2, 2:4]
        b1, b2, det_c = mpmath.sqrt(mpmath.det(v1)), mpmath.sqrt(mpmath.det(v2)), mpmath.det(c)
        t = c.T * v1**-1 * c * v2**-1
        norm_sq = b1 * b2 * (t[0, 0] + t[1, 1])
        c_max = mpmath.sqrt((norm_sq + mpmath.sqrt(norm_sq**2 - 4 * det_c**2)) / 2)
        d = mpmath.sign(det_c) * abs(det_c) / c_max if c_max else mpmath.mpf(0)
        return tuple(float(x) for x in (b1, b2, c_max, d))


# local squeezes up to e^3 (entries up to e^6 b): the worst error, relative to
# the largest entry, measured 32 eps over these 300 draws and 56 eps over 600
# more (seeds 7 and 8); the bound leaves a margin of 4.5 over the larger
FORM_I_TOL_PER_SCALE = 256 * EPS


def _form_I_draws(rng):
    """(label, base form, V): 100 each of det C < 0, det C > 0 and pure states."""
    for i in range(300):
        if i % 3 == 2:
            s = sf.symmetric_sts(rng.uniform(0.0, 2.0))
            base = sf.StandardFormI(s.b, s.b, s.c, -s.d_abs)
        else:
            b1, b2 = rng.uniform(0.5, 3.0, 2)
            c = rng.uniform(0.1, 1.0) * math.sqrt(b1 * b2)
            d = rng.uniform(0.05, 1.0) * c * (-1 if i % 3 == 0 else 1)
            base = sf.StandardFormI(b1, b2, c, d)
        t = random_local_symplectic(rng, r_max=3.0)
        v = t @ base.to_cm() @ t.T
        yield ("pure" if i % 3 == 2 else "mixed"), base, 0.5 * (v + v.T)


def test_form_I_against_mpmath():
    worst = 0.0
    for label, base, v in _form_I_draws(np.random.default_rng(3141)):
        got, want = sf.to_standard_form_I(v), _form_I_mpmath(v)
        scale = cm_core.entry_scale(v)
        err = max(abs(g - w) for g, w in zip((got.b1, got.b2, got.c, got.d), want)) / scale
        worst = max(worst, err)
        assert err <= FORM_I_TOL_PER_SCALE, (label, base, got, want)
        assert math.copysign(1.0, got.d) == math.copysign(1.0, base.d), (label, base, got)
        assert got.c >= abs(got.d)
        if label == "pure":  # c = |d|
            assert got.c - abs(got.d) <= FORM_I_TOL_PER_SCALE * scale, (base, got)
    assert worst > 0.0  # the reference is independent of the recovery


def test_form_I_zero_det_c_is_zero_d():
    # det C = 0 exactly in floats: C = diag(c u, 0) of a scaled state, and a
    # rank-one C with dyadic entries; both give d = 0.0, not a rounding of it
    scaled = sf.make_scaled_cm(sf.ScaledState(sf.StandardFormI(1.3, 0.9, 0.5, 0.0), 2.5, 0.3))
    rank_one = np.array(
        [
            [2.0, 0.25, 0.25, 0.5],
            [0.25, 1.5, 0.125, 0.25],
            [0.25, 0.125, 1.75, -0.5],
            [0.5, 0.25, -0.5, 2.5],
        ]
    )
    for v in (scaled, rank_one):
        got, want = sf.to_standard_form_I(v), _form_I_mpmath(v)
        assert got.d == 0.0 and want[3] == 0.0
        assert abs(got.c - want[2]) <= FORM_I_TOL_PER_SCALE * cm_core.entry_scale(v)
        assert (got.b1, got.b2) == pytest.approx(want[:2], rel=1e-14)


@pytest.mark.parametrize(
    "block",
    [
        [[1.0, 0.0], [0.0, -0.5]],  # det < 0
        [[1.0, 1.0], [1.0, 1.0]],  # det = 0
        [[-1.0, 0.0], [0.0, -1.0]],  # det > 0, negative definite
    ],
)
@pytest.mark.parametrize("first", [True, False])
def test_form_I_refuses_non_positive_block(block, first):
    v = np.diag([1.0, 1.0, 1.0, 1.0])
    v[0, 2] = v[2, 0] = 0.3
    k = 0 if first else 2
    v[k : k + 2, k : k + 2] = block
    with pytest.raises(NonPositiveDefinite):
        sf.to_standard_form_I(v)
