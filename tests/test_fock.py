import math
from dataclasses import replace

import numpy as np
import pytest

from gent import cm_core, fock, relent
from gent.cm_core import OneModeCM
from gent.errors import (
    DecompositionFailure,
    DimensionMismatch,
    NonPositiveDefinite,
    SupportViolation,
    TruncationWarning,
    UnphysicalState,
)
from gent.standard_forms import symmetric_sts

from conftest import random_entangled_symmetric, random_physical_cm


def test_thermal_state_basics():
    rho = fock.thermal_state(1.0, 60)
    assert rho.trace_deficit < 1e-10
    assert fock.entropy_fock(rho) == pytest.approx(
        relent.von_neumann_entropy(OneModeCM(1.0, 1.0)), abs=1e-8
    )
    with pytest.raises(UnphysicalState):
        fock.thermal_state(0.3, 10)


def test_vacuum_has_no_deficit():
    rho = fock.thermal_state(0.5, 8)
    assert rho.trace_deficit == 0.0
    assert rho.matrix[0, 0] == 1.0


def test_williamson_random(rng):
    worst = 0.0
    for _ in range(30):
        v = random_physical_cm(rng)
        s, kappas = fock.williamson(v)
        om = cm_core.omega(2)
        worst = max(
            worst,
            np.max(np.abs(s @ np.diag(np.repeat(kappas, 2)) @ s.T - v)),
            np.max(np.abs(s.T @ om @ s - om)),
        )
    assert worst < 1e-10


def _squeezed_split_thermal(nu):
    # nu I under a beam splitter and a local squeeze on each mode
    from gent.optics import BeamSplitterParams, bs_symplectic

    m = np.diag([math.exp(0.3), math.exp(-0.3), math.exp(-0.7), math.exp(0.7)])
    m = m @ bs_symplectic(BeamSplitterParams(0.8, 0.5))
    return nu * m @ m.T


def test_williamson_degenerate_spectrum():
    # every state here has the doubly degenerate spectrum (nu, nu)
    om = cm_core.omega(2)
    for v, nu in [
        (symmetric_sts(0.4, 0.1).to_cm(), 0.6),
        (0.5 * np.eye(4), 0.5),
        (symmetric_sts(1e-9).to_cm(), 0.5),
        (_squeezed_split_thermal(0.8), 0.8),
    ]:
        s, kappas = fock.williamson(v)
        np.testing.assert_allclose(kappas, [nu, nu], atol=1e-12)
        np.testing.assert_allclose(s @ np.diag(np.repeat(kappas, 2)) @ s.T, v, atol=1e-10)
        assert np.max(np.abs(s.T @ om @ s - om)) < 1e-10


def test_williamson_refuses_non_positive_definite():
    v = np.array([[1.0, 0, 2, 0], [0, 1, 0, 0], [2, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(NonPositiveDefinite):
        fock.williamson(v)


def test_euler_reconstruction(rng):
    for _ in range(20):
        v = random_physical_cm(rng)
        s, _ = fock.williamson(v)
        k1, z, k2 = fock.euler_decompose(s)
        np.testing.assert_allclose(k1 @ z @ k2, s, atol=1e-9)
        # passive factors are orthogonal
        assert np.max(np.abs(k1.T @ k1 - np.eye(4))) < 1e-9
        assert np.max(np.abs(np.diag(z)[::2] * np.diag(z)[1::2] - 1.0)) < 1e-9


def test_one_mode_state_moments():
    v = OneModeCM(0.9, 0.7)
    rho = fock.gaussian_state_from_cm(v, 60)
    np.testing.assert_allclose(fock.moments_from_fock(rho), v.matrix(), atol=1e-8)


def test_two_mode_state_moments():
    v = symmetric_sts(0.35, 0.15).to_cm()
    rho = fock.gaussian_state_from_cm(v, 24)
    assert rho.trace_deficit < 1e-8
    np.testing.assert_allclose(fock.moments_from_fock(rho), v, atol=1e-5)


def test_beamsplitter_gate_matches_cm_action():
    # gate B(theta, phi) realizes V -> M V M^T on the covariance matrix
    from gent.optics import BeamSplitterParams, bs_symplectic

    v = symmetric_sts(0.3).to_cm()
    rho = fock.gaussian_state_from_cm(v, 18)
    theta, phi = 1.1, 0.4
    out = fock.apply_gate(rho, fock.BeamSplitter(theta, phi))
    m = bs_symplectic(BeamSplitterParams(theta, phi))
    np.testing.assert_allclose(fock.moments_from_fock(out), m @ v @ m.T, atol=1e-4)


def test_squeeze_gate_scales_quadratures():
    vac = fock.thermal_state(0.5, 40)
    out = replace(vac, unitary=fock._squeeze_unitary(0.3, 40))
    expected = np.diag([0.5 * math.exp(0.6), 0.5 * math.exp(-0.6)])
    np.testing.assert_allclose(fock.moments_from_fock(out), expected, atol=1e-8)


def test_truncation_warning():
    rho = fock.thermal_state(3.0, 5)  # heavy tail cut off
    assert rho.trace_deficit > 1e-2
    with pytest.warns(TruncationWarning):
        fock.moments_from_fock(rho)


def test_fidelity_self_is_one():
    rho = fock.gaussian_state_from_cm(OneModeCM(0.8, 0.9), 40)
    assert fock.fidelity_fock(rho, rho) == pytest.approx(1.0, abs=1e-7)


def test_dimension_mismatch():
    a = fock.thermal_state(0.7, 10)
    b = fock.thermal_state(0.7, 12)
    with pytest.raises(DimensionMismatch):
        fock.fidelity_fock(a, b)
    with pytest.raises(DimensionMismatch):
        fock.tensor(a, b)


def test_rel_entropy_support_violation():
    vac = fock.gaussian_state_from_cm(OneModeCM(0.5, 0.5), 30)
    th = fock.gaussian_state_from_cm(OneModeCM(1.0, 1.0), 30)
    with pytest.raises(SupportViolation):
        fock.rel_entropy_fock(vac, th)


def test_theta_zero_bs_is_identity():
    rho = fock.gaussian_state_from_cm(symmetric_sts(0.2).to_cm(), 12)
    out = fock.apply_gate(rho, fock.BeamSplitter(0.0))
    assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12


def test_squeeze_inverse_roundtrip():
    rho = fock.thermal_state(0.8, 40)
    u = fock._squeeze_unitary(-0.25, 40) @ fock._squeeze_unitary(0.25, 40)
    back = replace(rho, unitary=u)
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-9


def test_balanced_bs_splits_tmsv_into_squeezed_vacua():
    v = symmetric_sts(0.2).to_cm()
    rho = fock.gaussian_state_from_cm(v, 25)
    out = fock.apply_gate(rho, fock.BeamSplitter(math.pi / 2))
    mom = fock.moments_from_fock(out)
    assert np.max(np.abs(mom[:2, 2:])) < 1e-6  # cross-correlations removed


def test_tmsv_purity():
    rho = fock.gaussian_state_from_cm(symmetric_sts(0.4).to_cm(), 30)
    purity = float(np.real(np.trace(rho.matrix @ rho.matrix)))
    assert purity == pytest.approx(1.0, abs=1e-6)


def test_pure_pure_fidelity_is_squared_overlap():
    a = fock.gaussian_state_from_cm(OneModeCM(0.5 * math.exp(0.4), 0.5 * math.exp(-0.4)), 40)
    b = fock.gaussian_state_from_cm(OneModeCM(0.5, 0.5), 40)
    overlap_sq = float(np.real(np.trace(a.matrix @ b.matrix)))
    assert fock.fidelity_fock(a, b) == pytest.approx(overlap_sq, abs=1e-9)


def test_thermal_pair_rel_entropy_matches_closed_form():
    v, vp = OneModeCM(0.6, 0.6), OneModeCM(1.0, 1.0)
    oracle = fock.rel_entropy_fock(
        fock.gaussian_state_from_cm(vp, 60), fock.gaussian_state_from_cm(v, 60)
    )
    assert oracle == pytest.approx(relent.rel_entropy_one_mode(vp, v), abs=1e-7)


def test_squeezed_thermal_entropy_invariance():
    rho = fock.gaussian_state_from_cm(OneModeCM(0.9 * math.exp(0.6), 0.9 * math.exp(-0.6)), 60)
    assert fock.entropy_fock(rho) == pytest.approx(
        relent.von_neumann_entropy(OneModeCM(0.9, 0.9)), abs=1e-7
    )


def test_truncation_convergence():
    # doubling N moves the oracle fidelity by less than the quoted tolerance
    a, b = OneModeCM(0.9, 0.7), OneModeCM(0.6, 1.1)
    vals = [
        fock.fidelity_fock(fock.gaussian_state_from_cm(a, n), fock.gaussian_state_from_cm(b, n))
        for n in (30, 60)
    ]
    assert abs(vals[1] - vals[0]) < 1e-8


def test_gate_on_wrong_mode_count():
    rho = fock.thermal_state(0.7, 8)
    with pytest.raises(DimensionMismatch):
        fock.apply_gate(rho, fock.BeamSplitter(0.5))


def _sqrtm(m):
    """Square root of a dense positive semidefinite matrix by eigh."""
    w, vec = np.linalg.eigh(m)
    return (vec * np.sqrt(np.clip(w, 0.0, None))) @ vec.conj().T


def _dense_fidelity(rho, sigma):
    """Uhlmann fidelity ||sqrt(rho) sqrt(sigma)||_1^2 from the dense matrices."""
    sv = np.linalg.svd(_sqrtm(rho.matrix) @ _sqrtm(sigma.matrix), compute_uv=False)
    return float(np.sum(sv) ** 2)


def _random_one_mode_cm(rng):
    nu, z, phi = rng.uniform(0.5, 1.2), rng.uniform(-0.4, 0.4), rng.uniform(-np.pi, np.pi)
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    return nu * rot @ np.diag([np.exp(2 * z), np.exp(-2 * z)]) @ rot.T


def test_factored_fidelity_matches_dense_formula(rng):
    worst = 0.0
    for n, draw in [(20, random_physical_cm)] * 20 + [(40, _random_one_mode_cm)] * 20:
        rho = fock.gaussian_state_from_cm(draw(rng), n)
        sigma = fock.gaussian_state_from_cm(draw(rng), n)
        worst = max(worst, abs(fock.fidelity_fock(rho, sigma) - _dense_fidelity(rho, sigma)))
    assert worst < 1e-9


def test_fidelity_repeat_is_bit_identical(rng):
    rho = fock.gaussian_state_from_cm(random_physical_cm(rng), 12)
    sigma = fock.gaussian_state_from_cm(random_physical_cm(rng), 12)
    first = fock.fidelity_fock(rho, sigma)
    assert fock.fidelity_fock(rho, sigma) == first
    assert fock.fidelity_fock(rho, fock.gaussian_state_from_cm(random_physical_cm(rng), 12)) != first


def test_sqrt_factor_reproduces_matrix(rng):
    for v, n in [(random_physical_cm(rng), 20), (_random_one_mode_cm(rng), 40)]:
        rho = fock.gaussian_state_from_cm(v, n)
        even, odd = fock._parity_classes(n, rho.n_modes)
        for idx, f in zip((even, odd), rho.parity_blocks):
            assert np.max(np.abs(f @ f.conj().T - rho.matrix[np.ix_(idx, idx)])) < 1e-13
        assert not np.any(rho.matrix[np.ix_(even, odd)])
        assert not np.any(rho.matrix[np.ix_(odd, even)])


def test_gates_keep_parity_blocks_exact(rng):
    one = fock.gaussian_state_from_cm(_random_one_mode_cm(rng), 16)
    two = fock.gaussian_state_from_cm(random_physical_cm(rng), 12)
    states = [
        one,
        two,
        fock.tensor(one, fock.gaussian_state_from_cm(_random_one_mode_cm(rng), 16)),
        fock.gaussian_state_from_cm(np.diag([0.5, 0.5, 0.5 * math.exp(0.6), 0.5 * math.exp(-0.6)]), 12),
        fock.apply_gate(two, fock.BeamSplitter(1.1, 0.4)),
    ]
    for state in states:
        even, odd = fock._parity_classes(state.dim_per_mode, state.n_modes)
        assert not np.any(state.unitary[np.ix_(even, odd)])
        assert not np.any(state.unitary[np.ix_(odd, even)])


def test_fidelity_self_is_squared_trace():
    # criterion 2's rho at N = 20; the trace is below 1 by the thermal tail
    rng = np.random.default_rng(202)
    for s in random_entangled_symmetric(rng, 3, b_lo=0.55, b_hi=1.2):
        rho = fock.gaussian_state_from_cm(s.to_cm(), 20)
        assert abs(fock.fidelity_fock(rho, rho) - rho.weights.sum() ** 2) < 1e-13


def test_fidelity_is_multiplicative():
    # criterion 10's states at N = 20
    cms = [OneModeCM(0.7, 0.6), OneModeCM(0.55, 0.9), OneModeCM(0.8, 0.8), OneModeCM(0.6, 0.75)]
    rho1, sig1, rho2, sig2 = (fock.gaussian_state_from_cm(c, 20) for c in cms)
    joint = fock.fidelity_fock(fock.tensor(rho1, rho2), fock.tensor(sig1, sig2))
    assert abs(joint - fock.fidelity_fock(rho1, sig1) * fock.fidelity_fock(rho2, sig2)) < 1e-12


def _dense_rel_entropy(rho_p, rho):
    """Tr rho ln rho - Tr(rho ln rho') from the dense matrices, Tr rho ln rho by eigvalsh."""
    lam = np.linalg.eigvalsh(rho.matrix)
    lam = lam[lam > 0]
    return float(lam @ np.log(lam) - np.real(np.trace(rho.matrix @ rho_p.log_matrix)))


def test_factored_rel_entropy_matches_dense_formula(rng):
    # the draws of test_factored_fidelity_matches_dense_formula
    worst = 0.0
    for n, draw in [(20, random_physical_cm)] * 20 + [(40, _random_one_mode_cm)] * 20:
        rho = fock.gaussian_state_from_cm(draw(rng), n)
        sigma = fock.gaussian_state_from_cm(draw(rng), n)
        worst = max(worst, abs(fock.rel_entropy_fock(sigma, rho) - _dense_rel_entropy(sigma, rho)))
    assert worst < 1e-12


def test_rel_entropy_to_pure_copy_is_zero():
    v = symmetric_sts(0.3).to_cm()
    ref, rho = (fock.gaussian_state_from_cm(v, 12) for _ in range(2))
    assert ref.log_weights is None
    assert abs(fock.rel_entropy_fock(ref, rho)) < 1e-14


def test_entropy_matches_closed_form():
    # criterion 4's states at N = 60
    rng = np.random.default_rng(404)
    for _ in range(100):
        nu, z = rng.uniform(0.5, 1.2), rng.uniform(-0.4, 0.4)
        v = OneModeCM(nu * math.exp(2 * z), nu * math.exp(-2 * z))
        rho = fock.gaussian_state_from_cm(v, 60)
        assert abs(fock.entropy_fock(rho) - relent.von_neumann_entropy(v)) < 1e-15


def test_rel_entropy_is_additive():
    # criterion 10's states at N = 20
    cms = [OneModeCM(0.7, 0.6), OneModeCM(0.55, 0.9), OneModeCM(0.8, 0.8), OneModeCM(0.6, 0.75)]
    rho1, sig1, rho2, sig2 = (fock.gaussian_state_from_cm(c, 20) for c in cms)
    joint = fock.rel_entropy_fock(fock.tensor(sig1, sig2), fock.tensor(rho1, rho2))
    assert abs(joint - fock.rel_entropy_fock(sig1, rho1) - fock.rel_entropy_fock(sig2, rho2)) < 1e-13


def test_factored_unitary_is_unitary(rng):
    rho = fock.gaussian_state_from_cm(random_physical_cm(rng), 20)
    u = rho.unitary
    assert np.max(np.abs(u @ u.conj().T - np.eye(rho.dim))) < 1e-12


def test_log_matrix_of_pure_core_is_none():
    assert fock.thermal_state(0.5, 10).log_matrix is None
    pure = fock.gaussian_state_from_cm(symmetric_sts(0.3).to_cm(), 12)
    assert pure.log_weights is None and pure.log_matrix is None
    mixed = fock.gaussian_state_from_cm(symmetric_sts(0.3, 0.2).to_cm(), 12)
    w, vec = np.linalg.eigh(mixed.log_matrix)
    np.testing.assert_allclose(np.sort(w), np.sort(mixed.log_weights), atol=1e-12)


def test_passive_action_matches_dense_generator(rng):
    # per-sector exponentials against exp(-i G) of the full truncated generator
    # G = sum_jk h_jk aj^dag ak, where u = exp(-i h) and h has eigenvalues in (-pi, pi)
    n = 9
    a = fock.destroy(n)
    ops = [np.kron(a, np.eye(n)), np.kron(np.eye(n), a)]
    for _ in range(5):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = z + z.conj().T
        h *= 3.0 / np.max(np.abs(np.linalg.eigvalsh(h)))  # the principal logarithm of u
        w, vec = np.linalg.eigh(h)
        u = (vec * np.exp(-1j * w)) @ vec.conj().T
        gen = sum(h[j, k] * ops[j].T @ ops[k] for j in range(2) for k in range(2))
        gw, gvec = np.linalg.eigh(gen)
        dense = (gvec * np.exp(-1j * gw)) @ gvec.conj().T
        x = rng.standard_normal((n * n, 3)) + 1j * rng.standard_normal((n * n, 3))
        np.testing.assert_allclose(fock._passive_action(u, n, x), dense @ x, atol=1e-11)
