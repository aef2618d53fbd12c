import math

import numpy as np
import pytest

from gent import cm_core, standard_forms
from gent.errors import NonPositiveDefinite, NumericalDegeneracy, UnphysicalState
from gent.standard_forms import symmetric_sts

from conftest import dump_cm_json, random_physical_cm, squeezed_pure_cms


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
    # math.sqrt and np.sqrt are both correctly rounded; a negative det gives NaN in both
    rng = np.random.default_rng(4242)
    sigmas = np.exp(rng.uniform(-20.0, 20.0, (400, 2)))
    sigmas[::7, 0] *= -1.0
    for sqq, spp in sigmas.tolist():
        nu = cm_core.OneModeCM(sqq, spp).nu
        with np.errstate(invalid="ignore"):
            ref = float(np.sqrt(sqq * spp))
        assert nu == ref or (math.isnan(nu) and math.isnan(ref))
    assert math.isnan(cm_core.OneModeCM(math.nan, 1.0).nu)


def test_large_entries_do_not_widen_the_threshold():
    # kappa_- = sqrt(1e6 * 1e-7) = 0.316, exact for a diagonal CM whatever its scale
    v = np.diag([1e6, 1e-7, 1e6, 1e-7])
    assert not cm_core.is_physical(v)
    assert not cm_core.OneModeCM(1e6, 1e-7).is_physical()
    assert cm_core.OneModeCM(1e6, 1e6).is_physical()


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
        root = cm_core.sqrt_cm(v)
        for form in forms:
            ev = np.linalg.eigvalsh(1j * (root @ form @ root))
            assert np.max(np.abs(ev + ev[::-1])) <= 8 * eps * np.linalg.norm(v, 2)


def test_pure_state_rounding_within_half_the_allowance():
    # the calibration behind ROUNDING_PER_SCALE_SQ: kappa_- = 1/2 came out at most
    # ~23 eps scale^2 low over 10^5 such draws
    for _, v in squeezed_pure_cms(np.random.default_rng(46), 2000, 0.0, 5.0):
        low = 0.5 - cm_core.symplectic_spectrum(v).kappa_minus
        assert low <= cm_core.ROUNDING_PER_SCALE_SQ / 2 * cm_core.entry_scale(v) ** 2


def test_not_positive_definite():
    v = np.diag([1.0, 1.0, 1.0, -0.1])
    with pytest.raises(NonPositiveDefinite):
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


def test_one_cm_costs_one_eigensolve(monkeypatch, rng):
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        solver = getattr(np.linalg, name)

        def counted(*args, _name=name, _solver=solver, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    monkeypatch.setattr(cm_core, "_last_spectrum", (None, None))

    v = random_physical_cm(rng)
    phys, sep, spec = cm_core.is_physical(v), cm_core.is_separable(v), cm_core.symplectic_spectrum(v)
    assert calls == {"eigh": 1, "eigvalsh": 1}
    standard_forms.to_standard_form_I(v)
    assert calls == {"eigh": 1, "eigvalsh": 1}  # form I solves no eigenproblem

    # equal content in another array is the same matrix
    twin = v.copy()
    assert (cm_core.is_physical(twin), cm_core.is_separable(twin)) == (phys, sep)
    assert cm_core.symplectic_spectrum(twin) == spec
    assert calls == {"eigh": 1, "eigvalsh": 1}

    # a matrix changed in place is solved again, and its spectrum is its own
    v[0, 0] += 0.25
    changed = cm_core.symplectic_spectrum(v)
    assert calls == {"eigh": 2, "eigvalsh": 2}
    assert changed != spec
    assert cm_core.symplectic_spectrum(v.copy()) == changed

    # one entry: a third matrix evicts the second, and a failed solve is not kept
    cm_core.symplectic_spectrum(twin)
    cm_core.symplectic_spectrum(v)
    assert calls == {"eigh": 4, "eigvalsh": 4}
    bad = -np.eye(4)
    for _ in range(2):
        with pytest.raises(NonPositiveDefinite):
            cm_core.symplectic_spectrum(bad)
    assert calls == {"eigh": 6, "eigvalsh": 4}
