import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gent import cm_core, fock, standard_forms
from gent.errors import NonPositiveDefinite, NumericalDegeneracy, UnphysicalState
from gent.scalar import form_I_spectrum
from gent.standard_forms import StandardFormI, symmetric_sts

from conftest import NoLinalg, dump_cm_json, random_local_symplectic, random_physical_cm, squeezed_pure_cms


def test_omega_algebra():
    om = cm_core.omega(2)
    np.testing.assert_array_equal(om @ om, -np.eye(4))
    np.testing.assert_array_equal(om.T, -om)
    assert np.linalg.det(om) == pytest.approx(1.0, abs=1e-14)


def test_below_floor_symmetric_state():
    # b = 1/2, c = 0.4, d = 0: kappa_- = sqrt(0.5 * 0.1)
    v = 0.5 * np.eye(4)
    v[0, 2] = v[2, 0] = 0.4
    assert cm_core.is_physical(v).kappa == pytest.approx(math.sqrt(0.05), abs=1e-10)
    assert not cm_core.is_physical(v)


def test_vacuum_spectrum():
    v = 0.5 * np.eye(4)
    spec = cm_core.symplectic_spectrum(v)
    assert spec.kappa_plus == pytest.approx(0.5, abs=1e-12)
    assert spec.kappa_minus == pytest.approx(0.5, abs=1e-12)
    assert spec.kappa_tilde_minus == pytest.approx(0.5, abs=1e-12)
    assert cm_core.is_physical(v)
    assert cm_core.is_separable(v)


def test_tmsv_spectrum():
    r = 0.7
    v = symmetric_sts(r).to_cm()
    spec = cm_core.symplectic_spectrum(v)
    # pure state: both symplectic eigenvalues at the vacuum floor
    assert spec.kappa_plus == pytest.approx(0.5, abs=1e-10)
    assert spec.kappa_minus == pytest.approx(0.5, abs=1e-10)
    assert spec.kappa_tilde_minus == pytest.approx(0.5 * math.exp(-2 * r), abs=1e-10)
    assert not cm_core.is_separable(v)


def test_partial_transpose_involution():
    rng = np.random.default_rng(3)
    v = random_physical_cm(rng)
    assert np.array_equal(cm_core.partial_transpose(cm_core.partial_transpose(v)), v)


def test_unphysical_verdict():
    v = 0.4 * np.eye(4)  # below the vacuum floor
    verdict = cm_core.is_physical(v)
    assert not verdict
    assert verdict.kappa == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(UnphysicalState):
        cm_core.is_separable(v)


def test_one_mode_nu_is_numpy_sqrt_bit_for_bit():
    # math.sqrt and np.sqrt are both correctly rounded; a negative det is refused, as NaN is
    rng = np.random.default_rng(4242)
    sigmas = np.exp(rng.uniform(-20.0, 20.0, (400, 2)))
    sigmas[::7, 0] *= -1.0
    for sqq, spp in sigmas.tolist():
        cm = cm_core.OneModeCM(sqq, spp)
        if sqq < 0:
            with pytest.raises(NonPositiveDefinite):
                cm.physical_nu()
            continue
        ref = float(np.sqrt(sqq * spp))
        if ref < 0.5:
            with pytest.raises(UnphysicalState):
                cm.physical_nu()
        else:
            assert cm.physical_nu() == ref
    with pytest.raises(NonPositiveDefinite):
        cm_core.OneModeCM(math.nan, 1.0).physical_nu()


def test_large_entries_do_not_widen_the_threshold():
    # kappa_- = sqrt(1e6 * 1e-7) = 0.316, exact for a diagonal CM whatever its scale
    v = np.diag([1e6, 1e-7, 1e6, 1e-7])
    assert not cm_core.is_physical(v)
    with pytest.raises(UnphysicalState, match=r"^nu = 1/2 - 0\.184, beyond the rounding allowance 1e-12 at scale 0\.5$"):
        cm_core.OneModeCM(1e6, 1e-7).physical_nu()
    assert cm_core.OneModeCM(1e6, 1e6).physical_nu() == 1e6


def test_ill_conditioned_threshold_refused():
    # at r = 7.5 the entries (b ~ 8e5) cannot tell kappa_- = 1/2 from its neighbours
    s = symmetric_sts(7.5)
    with pytest.raises(NumericalDegeneracy, match="ill-conditioned"):
        s.is_physical()
    with pytest.raises(NumericalDegeneracy, match="ill-conditioned"):
        cm_core.is_separable(s.to_cm())
    # far from the threshold a large scale still decides
    assert cm_core.is_separable(np.diag([1e6, 1e6, 1e6, 1e6]))


def test_strongly_squeezed_pure_states_decided():
    # eigvals of Omega V called 18 of these 500 CMs "not purely imaginary"
    draws = list(squeezed_pure_cms(np.random.default_rng(45), 500, 4.0, 5.0))
    for state, v in draws:
        spec = cm_core.symplectic_spectrum(v)
        tol = cm_core.ROUNDING_PER_SCALE_SQ / 2 * cm_core.entry_scale(v) ** 2
        assert abs(spec.kappa_plus - state.kappa_plus) <= tol
        assert abs(spec.kappa_minus - state.kappa_minus) <= tol
        assert abs(spec.kappa_tilde_minus - state.kappa_tilde_minus) <= tol
        assert cm_core.is_physical(v)
        assert not cm_core.is_separable(v)
    # i R Omega R is i times a real antisymmetric matrix: its spectrum is +- symmetric
    eps = float(np.finfo(float).eps)
    om = cm_core.omega(2)
    forms = (om, cm_core.LAMBDA_PT @ om @ cm_core.LAMBDA_PT)
    for _, v in draws:
        lam, q = np.linalg.eigh(v)
        root = (q * np.sqrt(lam)) @ q.T  # V^{1/2}
        for form in forms:
            ev = np.linalg.eigvalsh(1j * (root @ form @ root))
            assert np.max(np.abs(ev + ev[::-1])) <= 8 * eps * np.linalg.norm(v, 2)


def test_pure_state_rounding_within_half_the_allowance():
    # the calibration behind ROUNDING_PER_SCALE_SQ: kappa_- = 1/2 came out at most
    # ~9.4 eps scale^2 low over 10^5 such draws
    for _, v in squeezed_pure_cms(np.random.default_rng(46), 2000, 0.0, 5.0):
        low = 0.5 - cm_core.symplectic_spectrum(v).kappa_minus
        assert low <= cm_core.ROUNDING_PER_SCALE_SQ / 2 * cm_core.entry_scale(v) ** 2


def test_not_positive_definite():
    # a diagonal block that is not positive definite, then V1 = V2 = I with b1 b2 <= c^2
    for v in (np.diag([1.0, 1.0, 1.0, -0.1]), StandardFormI(1.0, 1.0, 2.0, -2.0).to_cm()):
        with pytest.raises(NonPositiveDefinite, match="^covariance matrix is not positive definite$"):
            cm_core.symplectic_spectrum(v)


def test_json_roundtrip(tmp_path):
    v = symmetric_sts(0.3, 0.2).to_cm()
    path = tmp_path / "cm.json"
    dump_cm_json(v, path)
    back = cm_core.load_cm_json(path)
    np.testing.assert_allclose(back, v, atol=1e-15)


def test_json_rejects_bad_input(tmp_path):
    path = tmp_path / "bad.json"
    dump_cm_json(np.eye(3), path)
    with pytest.raises(ValueError, match="4x4"):
        cm_core.load_cm_json(path)
    v = np.eye(4)
    v[0, 1] = 1e-3  # asymmetric
    dump_cm_json(v, path)
    with pytest.raises(ValueError, match="symmetric"):
        cm_core.load_cm_json(path)


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
def test_json_rejects_non_finite_entries(tmp_path, entry):
    # json reads these words as floats; NaN also passes the symmetry test
    path = tmp_path / "nan.json"
    path.write_text('{"v": [[%s,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]}' % entry)
    with pytest.raises(ValueError, match="NaN or infinite"):
        cm_core.load_cm_json(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [(0, 0), (2, 3), (0, 2), (1, 3)])
def test_non_finite_entries_refused(value, entry):
    # a diagonal block ((0, 0), (2, 3)) and C ((0, 2), (1, 3)); the parent
    # route let numpy's LinAlgError through, and scalar form I would return NaN
    v = symmetric_sts(0.4).to_cm()
    v[entry] = v[entry[::-1]] = value
    with pytest.raises(ValueError, match="non-finite entry"):
        cm_core.symplectic_spectrum(v)
    with pytest.raises(ValueError, match="non-finite entry"):
        standard_forms.to_standard_form_I(v)


def test_one_cm_costs_one_form_I_reduction_and_no_eigensolve(monkeypatch, rng):
    # reductions are counted at the reducing function: the misses of its one-entry cache
    standard_forms._reduce.cache_clear()
    calls = lambda: standard_forms._reduce.cache_info().misses  # noqa: E731

    # a q-p-correlated Fock build reads its spectrum, scale and local angles from one reduction
    w = random_physical_cm(rng)
    assert w[0, 1] and w[2, 3] and w[0, 3]
    fock.gaussian_state_from_cm(w, 4)
    assert calls() == 1
    standard_forms._reduce.cache_clear()

    v = random_physical_cm(rng)
    monkeypatch.setattr(np, "linalg", NoLinalg())  # no np.linalg routine decides physicality or PPT

    def no_angles(*args):
        raise AssertionError("math.atan2 called: only form_I_reduction forms the local angles")

    atan2 = math.atan2
    monkeypatch.setattr(math, "atan2", no_angles)
    phys, sep, spec = cm_core.is_physical(v), cm_core.is_separable(v), cm_core.symplectic_spectrum(v)
    form = standard_forms.to_standard_form_I(v)
    assert calls() == 1
    assert form_I_spectrum(form) == spec
    monkeypatch.setattr(math, "atan2", atan2)
    assert standard_forms.form_I_reduction(v)[0] == form  # the angles, from the record
    assert calls() == 1

    # equal content in another array is the same matrix
    twin = v.copy()
    assert (cm_core.is_physical(twin), cm_core.is_separable(twin)) == (phys, sep)
    assert cm_core.symplectic_spectrum(twin) == spec
    assert calls() == 1

    # a matrix changed in place is read again, and its spectrum is its own
    v[0, 0] += 0.25
    changed = cm_core.symplectic_spectrum(v)
    assert calls() == 2
    assert changed != spec
    assert cm_core.symplectic_spectrum(v.copy()) == changed

    # one entry: a third matrix evicts the second, and a refused matrix is not kept
    cm_core.symplectic_spectrum(twin)
    cm_core.symplectic_spectrum(v)
    assert calls() == 4
    bad = -np.eye(4)
    for _ in range(2):
        with pytest.raises(NonPositiveDefinite, match="^covariance matrix is not positive definite$"):
            cm_core.symplectic_spectrum(bad)
    assert calls() == 6
    # one whose blocks are positive definite but b1 b2 <= c^2 has a form I and no spectrum: its
    # record is kept, and every spectrum read of it refuses it
    wide = StandardFormI(1.0, 1.0, 1.2, 0.0)
    for _ in range(2):
        assert standard_forms.to_standard_form_I(wide.to_cm()) == wide
        with pytest.raises(NonPositiveDefinite, match="^covariance matrix is not positive definite$"):
            cm_core.is_physical(wide.to_cm())
    assert calls() == 7


def _exact_spectrum(v):
    """(k+, k-, kt+, kt-) of the float matrix v as given: Simon's invariants det V1, det V2,
    det C and det V in exact rational arithmetic, the roots of y^2 - Delta y + det V at 50 digits."""
    m = [[Fraction(x) for x in row] for row in np.asarray(v).tolist()]

    def det(rows, cols):
        if len(rows) == 1:
            return m[rows[0]][cols[0]]
        return sum((-1) ** k * m[rows[0]][col] * det(rows[1:], cols[:k] + cols[k + 1:])
                   for k, col in enumerate(cols))

    det_v1, det_v2, det_c = det((0, 1), (0, 1)), det((2, 3), (2, 3)), det((0, 1), (2, 3))
    det_v = det((0, 1, 2, 3), (0, 1, 2, 3))
    out = []
    with mpmath.workdps(50):
        for delta in (det_v1 + det_v2 + 2 * det_c, det_v1 + det_v2 - 2 * det_c):
            disc = delta * delta - 4 * det_v  # exact, and >= 0 for a positive-definite V
            big = (mpmath.mpf(delta.numerator) / delta.denominator
                   + mpmath.sqrt(mpmath.mpf(disc.numerator) / disc.denominator)) / 2
            out += [mpmath.sqrt(big), mpmath.sqrt(mpmath.mpf(det_v.numerator) / det_v.denominator / big)]
    return out


def _asymmetric_sts(rng):
    """Two-mode squeezing r on thermal inputs nu1 != nu2: standard form I with b1 != b2, c = -d."""
    r, nu1, nu2 = rng.uniform(0.0, 2.0), rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
    ch, sh = math.cosh(r) ** 2, math.sinh(r) ** 2
    c = (nu1 + nu2) * math.sinh(r) * math.cosh(r)
    return StandardFormI(nu1 * ch + nu2 * sh, nu1 * sh + nu2 * ch, c, -c)


def test_spectrum_against_exact_invariants():
    # the closed form from standard form I against the exact spectrum of the float matrix as
    # given: worst 0.93 eps scale^2 here (the eigensolver it replaced: 5.8), bound 4, far
    # inside the ROUNDING_PER_SCALE_SQ / 2 = 64 eps that the threshold tests allow
    rng = np.random.default_rng(2727)
    cms = [random_physical_cm(rng) for _ in range(100)]
    for _ in range(100):
        t = random_local_symplectic(rng, 3.0)
        cms.append(t @ _asymmetric_sts(rng).to_cm() @ t.T)
    for _ in range(50):  # the edges d = 0 and c = |d|, as given and under local symplectics
        b1, b2 = rng.uniform(0.5, 3.0, 2)
        c = rng.uniform(0.0, math.sqrt(b1 * b2 - 0.25))
        t = random_local_symplectic(rng, 3.0)
        for form in (StandardFormI(b1, b2, c, 0.0), StandardFormI(b1, b2, c, c), StandardFormI(b1, b2, c, -c)):
            cms += [form.to_cm(), t @ form.to_cm() @ t.T]
    eps = float(np.finfo(float).eps)
    worst = 0.0
    for v in cms:
        v = 0.5 * (v + v.T)
        spec = cm_core.symplectic_spectrum(v)
        got = (spec.kappa_plus, spec.kappa_minus, spec.kappa_tilde_plus, spec.kappa_tilde_minus)
        err = max(abs(g - float(w)) for g, w in zip(got, _exact_spectrum(v)))
        worst = max(worst, err / (eps * cm_core.entry_scale(v) ** 2))
    assert worst <= 4.0, worst

