import cmath
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gent import bures, cm_core, fock, relent
from gent.cm_core import OneModeCM
from gent.errors import (
    DimensionMismatch,
    DomainError,
    GentError,
    NonPositiveDefinite,
    NumericalDegeneracy,
    SupportViolation,
    TruncationWarning,
    UnphysicalState,
)
from gent.optics import BeamSplitterParams
from gent.standard_forms import ScaledState, StandardFormI, make_scaled_cm, symmetric_sts

from conftest import (
    NoLinalg,
    band_edge_cms,
    random_entangled_symmetric,
    random_local_symplectic,
    random_physical_cm,
)


def test_thermal_state_basics():
    rho = fock.thermal_state(1.0, 60)
    assert rho.trace_deficit < 1e-10
    assert fock.entropy_fock(rho) == pytest.approx(
        relent.von_neumann_entropy(OneModeCM(1.0, 1.0)), abs=1e-8
    )
    with pytest.raises(UnphysicalState):
        fock.thermal_state(0.3, 10)
    with pytest.raises(ValueError):
        fock.thermal_state(1.0, 1)


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
    # gate B(theta, phi) realizes V -> M V M^T on the covariance matrix, for a symmetric and an
    # asymmetric V, the full turn theta = pi and phases of either sign: measured 3.2e-9 and 8.6e-6
    # (the asymmetric V leaves 1.5e-8 of its trace at N = 18).  The opposite sign of phi misses by
    # up to 0.31, and at theta = pi only on the asymmetric V (0.091)
    from gent.optics import BeamSplitterParams, bs_symplectic

    for v in (symmetric_sts(0.3).to_cm(), StandardFormI(0.9, 1.1, 0.3, -0.2).to_cm()):
        rho = fock.gaussian_state_from_cm(v, 18)
        for theta, phi in [(1.1, 0.4), (math.pi, 0.4), (1.1, math.pi), (0.7, -2.3), (math.pi, -1.0)]:
            out = fock.apply_gate(rho, fock.BeamSplitter(theta, phi))
            m = bs_symplectic(BeamSplitterParams(theta, phi))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                moments = fock.moments_from_fock(out)
            np.testing.assert_allclose(moments, m @ v @ m.T, atol=1e-4)


def test_squeeze_gate_scales_quadratures():
    vac = fock.thermal_state(0.5, 40)
    out = replace(vac, blocks=fock._squeeze_blocks(0.3, 40))
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
    two_mode = fock.tensor(a, a)
    with pytest.raises(DimensionMismatch):
        fock.tensor(a, two_mode)  # the right factor must have one mode


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
    u = tuple(a @ b for a, b in zip(fock._squeeze_blocks(-0.25, 40), fock._squeeze_blocks(0.25, 40)))
    back = replace(rho, blocks=u)
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
    # under local squeezes rounding leaves the kappas on either side of 1/2; read as
    # exactly 1/2, every core is pure, and the vacuum lies outside its support
    rng = np.random.default_rng(2121)
    vac = fock.tensor(fock.thermal_state(0.5, 12), fock.thermal_state(0.5, 12))
    for r in (3.0, 4.0):
        v = symmetric_sts(r).to_cm()
        for _ in range(200):
            u, w = np.exp(rng.uniform(-1.0, 1.0, 2))
            t = np.diag([u, 1 / u, w, 1 / w])
            rho = fock.gaussian_state_from_cm(t @ v @ t, 12)
            assert rho.log_weights is None and fock.entropy_fock(rho) == 0, (r, u, w)
            with pytest.raises(SupportViolation):
                fock.rel_entropy_fock(rho, vac)


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


def _unitary(state):
    """U as a dense matrix, from its class blocks."""
    return state._dense(state.blocks)


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
        assert not np.any(_unitary(state)[np.ix_(even, odd)])
        assert not np.any(_unitary(state)[np.ix_(odd, even)])


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
    u = _unitary(rho)
    assert np.max(np.abs(u @ u.conj().T - np.eye(rho.dim))) < 1e-12


def test_log_matrix_of_pure_core_is_none():
    assert fock.thermal_state(0.5, 10).log_matrix is None
    pure = fock.gaussian_state_from_cm(symmetric_sts(0.3).to_cm(), 12)
    assert pure.log_weights is None and pure.log_matrix is None
    mixed = fock.gaussian_state_from_cm(symmetric_sts(0.3, 0.2).to_cm(), 12)
    w, vec = np.linalg.eigh(mixed.log_matrix)
    np.testing.assert_allclose(np.sort(w), np.sort(mixed.log_weights), atol=1e-12)


def _dense_passive(h, n):
    """exp(-i G) of the truncated generator G = sum_jk h_jk aj^dag ak of u = exp(-i h), dense."""
    a = fock.destroy(n)
    ops = [np.kron(a, np.eye(n)), np.kron(np.eye(n), a)]
    gen = sum(h[j, k] * ops[j].T @ ops[k] for j in range(2) for k in range(2))
    gw, gvec = np.linalg.eigh(gen)
    return (gvec * np.exp(-1j * gw)) @ gvec.conj().T


def test_passive_action_matches_dense_generator(rng):
    # on the complete sectors n1 + n2 < N, the beam splitter's Fock unitary is exp(-i G) for the
    # principal logarithm h = D rotation D^dag of its mode unitary u = D R(theta/2) D^dag = exp(-i h),
    # D = diag(1, e^{-i phi}); on the truncated ones it is the product of the truncated generators'
    # exponentials of its three factors D, R(theta/2) and D^dag
    n = 9
    complete = np.add.outer(np.arange(n), np.arange(n)).ravel() < n
    classes = fock._parity_classes(n, 2)
    state = fock.gaussian_state_from_cm(symmetric_sts(0.3).to_cm(), n)
    for theta, phi in zip(rng.uniform(0.0, math.pi, 5), rng.uniform(-math.pi, math.pi, 5)):
        rotation = theta / 2 * np.array([[0.0, -1j], [1j, 0.0]])  # R(theta/2) = exp(-i rotation)
        phase = np.diag([0.0, -phi])  # D^dag = exp(-i phase)
        d = np.diag([1.0, np.exp(-1j * phi)])
        h = d @ rotation @ d.conj().T
        factors = _dense_passive(-phase, n) @ _dense_passive(rotation, n) @ _dense_passive(phase, n)
        x = rng.standard_normal((n * n, 3)) + 1j * rng.standard_normal((n * n, 3))
        out = fock.apply_gate(replace(state, blocks=tuple(x[idx] for idx in classes)), fock.BeamSplitter(theta, phi)).blocks
        for idx, block in zip(classes, out):
            full = complete[idx]
            np.testing.assert_allclose(block[full], (_dense_passive(h, n) @ x)[idx][full], rtol=0, atol=1e-11)
            np.testing.assert_allclose(block[~full], (factors @ x)[idx][~full], rtol=0, atol=1e-11)


# real factors for covariance matrices without q-p correlation ---------------

# numpy's SVD of this form's mode-space M returns R1 and R2 with determinant -1
REFLECTED_SCALED_CM = make_scaled_cm(ScaledState(StandardFormI(0.8, 0.7, 0.2, 0.1), 0.8, 1.2))


def _local_rotation(a1, a2):
    out = np.zeros((4, 4))
    for k, a in ((0, a1), (2, a2)):
        out[k : k + 2, k : k + 2] = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
    return out


def _rot2(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def _factors(v):
    """``fock._two_mode_factors`` of V, with the kappas that the build reads from its spectrum."""
    spec, scale = cm_core.symplectic_spectrum(v), cm_core.entry_scale(v)
    kappas = cm_core.physical_kappa(spec.kappa_plus, scale), cm_core.physical_kappa(spec.kappa_minus, scale)
    return fock._two_mode_factors(np.asarray(v, dtype=float), kappas)


def _factored_cm(factors):
    """V rebuilt from ``_two_mode_factors``: the cores' CM under each gate's symplectic in turn."""
    kappas, gates = factors
    v = np.diag(np.repeat(kappas, 2))
    for action, arg in gates:
        s = np.zeros((4, 4))
        if action is fock._rotation_action:  # R(arg) on (q1, q2) and on (p1, p2)
            s[::2, ::2] = s[1::2, 1::2] = _rot2(arg)
        elif action is fock._squeeze_action:
            s = np.diag(np.exp([arg[0], -arg[0], arg[1], -arg[1]]))
        else:  # the phases, R(arg_i) on (q_i, p_i)
            s[:2, :2], s[2:, 2:] = _rot2(arg[0]), _rot2(arg[1])
        v = s @ v @ s.T
    return v


def _rotation_angles(gates):
    return [arg for action, arg in gates if action is fock._rotation_action]


def test_factor_is_real_without_qp_correlation(rng):
    real = [
        OneModeCM(0.9, 0.7),
        symmetric_sts(0.35, 0.15).to_cm(),
        make_scaled_cm(ScaledState(StandardFormI(1.2, 0.9, 0.4, -0.3), 1.3, 0.7)),
        REFLECTED_SCALED_CM,
    ]
    for v in real:
        assert _unitary(fock.gaussian_state_from_cm(v, 12)).dtype == np.float64
    assert np.iscomplexobj(_unitary(fock.gaussian_state_from_cm(random_physical_cm(rng), 12)))
    state = fock.gaussian_state_from_cm(symmetric_sts(0.3).to_cm(), 12)
    assert np.iscomplexobj(_unitary(fock.apply_gate(state, fock.BeamSplitter(1.0, 0.3))))


def test_real_and_complex_factors_agree():
    # a common local rotation moves the pair onto the complex route and leaves
    # F and S invariant; measured gaps at N = 30: 2.2e-16 and 9.9e-13
    rho_cm, sigma_cm = symmetric_sts(0.3, 0.15).to_cm(), REFLECTED_SCALED_CM
    rot = _local_rotation(0.7, -1.9)
    n = 30
    rho, sigma = (fock.gaussian_state_from_cm(v, n) for v in (rho_cm, sigma_cm))
    rho_r, sigma_r = (fock.gaussian_state_from_cm(rot @ v @ rot.T, n) for v in (rho_cm, sigma_cm))
    assert _unitary(rho).dtype == np.float64 and np.iscomplexobj(_unitary(rho_r))
    assert abs(fock.fidelity_fock(rho, sigma) - fock.fidelity_fock(rho_r, sigma_r)) < 1e-13
    assert abs(fock.rel_entropy_fock(sigma, rho) - fock.rel_entropy_fock(sigma_r, rho_r)) < 1e-10


def test_real_factors_of_degenerate_inputs_reproduce_moments():
    # truncation at N = 20 leaves at most 2.7e-8, on symmetric_sts(0.4)
    n = 20
    for v in [0.7 * np.eye(4), 0.5 * np.eye(4), symmetric_sts(0.4).to_cm(), REFLECTED_SCALED_CM]:
        rho = fock.gaussian_state_from_cm(v, n)
        assert _unitary(rho).dtype == np.float64
        np.testing.assert_allclose(fock.moments_from_fock(rho), v, atol=3e-7)
    assert fock.gaussian_state_from_cm(0.5 * np.eye(4), n).log_weights is None
    # numpy's SVD took reflections here: the closed form's factors are rotations nearest I
    _, gates = _factors(REFLECTED_SCALED_CM)
    assert len(gates) == 3 and all(abs(t) <= math.pi / 4 + 1e-9 for t in _rotation_angles(gates))
    np.testing.assert_allclose(_factored_cm(_factors(REFLECTED_SCALED_CM)), REFLECTED_SCALED_CM, rtol=0, atol=1e-15)


def test_real_passive_blocks_match_complex(rng):
    # a rotation's Fock unitary from the cached real sector eigenpairs is real, matches its class
    # blocks written out, and commutes with the total phase e^{ig(n1 + n2)}.  The beam splitter of
    # phi = 0 is the rotation of theta/2 bit for bit, and of phi = pi, whose phases are the real signs
    # (-1)^n2, the real rotation of -theta/2 to the rounding of the sector exponentials, on the
    # truncated sectors too: (-1)^n2 flips the sign of every hop
    n = 9
    x = rng.standard_normal((n * n, 3))
    classes = fock._parity_classes(n, 2)
    xs = tuple(x[idx] for idx in classes)
    g = 0.4
    for theta in (0.3, -2.0, math.pi, 1e-9):
        outs = fock._rotation_action(theta, n, xs)
        phased_outs = fock._phase_action((g, g), n, fock._rotation_action(theta, n, fock._phase_action((-g, -g), n, xs)))
        placed = fock._rotation_action(theta, n, None)
        for out, out_g, block, x_p in zip(outs, phased_outs, placed, xs):
            assert out.dtype == np.float64 and np.iscomplexobj(out_g)
            np.testing.assert_allclose(out_g, out, rtol=0, atol=1e-12)
            np.testing.assert_allclose(block @ x_p, out, rtol=0, atol=1e-12)
    state = replace(fock.gaussian_state_from_cm(symmetric_sts(0.3).to_cm(), n), blocks=xs)
    for theta in (0.6, math.pi, 1e-9):
        real = fock.apply_gate(state, fock.BeamSplitter(theta)).blocks
        flipped = fock.apply_gate(state, fock.BeamSplitter(theta, math.pi)).blocks
        for out, out_r in zip(fock._rotation_action(theta / 2, n, xs), real):
            assert out_r.dtype == np.float64 and np.array_equal(out_r, out)
        for out, out_f in zip(fock._rotation_action(-theta / 2, n, xs), flipped):
            assert out_f.dtype == np.float64
            np.testing.assert_allclose(out_f, out, rtol=0, atol=1e-13)  # measured 1.5e-14


def _passive_gate(k, n, blocks):
    """A passive 4x4 K, factor by factor, on class blocks.

    Its mode unitary u = a + ic (a_j -> sum u_jk a_k, from K's q-q and p-q entries) is
    diag(e^{i alpha}) R(theta) diag(1, e^{i b}) with theta = atan2(|u10|, |u00|),
    alpha_1 = arg u00, b = arg(-u01) - alpha_1 and alpha_2 = arg det u - alpha_1 - b.
    """
    u = k[::2, ::2] + 1j * k[1::2, ::2]
    a1 = cmath.phase(u[0, 0])
    b = cmath.phase(-u[0, 1]) - a1
    blocks = fock._phase_action((0.0, b), n, blocks)
    blocks = fock._rotation_action(math.atan2(abs(u[1, 0]), abs(u[0, 0])), n, blocks)
    return fock._phase_action((a1, cmath.phase(np.linalg.det(u)) - a1 - b), n, blocks)


def _decomposition_chain_two_mode(v, n):
    """A two-mode V as the gate chain of ``williamson`` and ``euler_decompose``, the independent reference.

    S = K1 Z K2: the cores of williamson's kappas, read at the entry scale, under the
    passive gate of K2, Z's squeezers and the passive gate of K1, each in full.
    """
    s, kappas = fock.williamson(v)
    k1, z, k2 = fock.euler_decompose(s)
    blocks = _passive_gate(k2, n, None)
    blocks = fock._squeeze_action(np.log(np.diag(z)[::2]), n, blocks)
    blocks = _passive_gate(k1, n, blocks)
    scale = cm_core.entry_scale(v)
    return replace(fock.tensor(*(fock.thermal_state(cm_core.physical_kappa(k, scale), n) for k in kappas)), blocks=blocks)


def test_qp_correlated_build_matches_the_decomposition_chain():
    # weak CMs with q-p correlation (nu in [1/2, 0.7], local squeezes up to e^0.3) at N = 12: the
    # closed form and the reference chain truncate different gates, measured 6.5e-5 apart
    # (the opposite sign of the local phases misses V by O(1))
    from conftest import _random_bs

    rng = np.random.default_rng(36)
    n = 12
    worst = 0.0
    for _ in range(20):
        s = random_local_symplectic(rng, 0.3) @ _random_bs(rng)
        v = s @ np.diag(np.repeat(rng.uniform(0.5, 0.7, 2), 2)) @ s.T
        assert v[::2, 1::2].any()
        worst = max(worst, np.max(np.abs(fock.gaussian_state_from_cm(v, n).matrix - _decomposition_chain_two_mode(v, n).matrix)))
    assert worst < 2e-4


def _ci_qp_pair():
    """CI's two CMs, SymmetricState(1, 0.8, 0.6) and StandardFormI(0.9, 1.1, 0.3, -0.2), under its local symplectic."""
    from gent.scalar import SymmetricState

    local = np.zeros((4, 4))  # per mode, a rotation, a squeeze and a rotation
    for k, (a1, r, a2) in enumerate([(0.7, 0.4, -1.1), (-0.3, -0.25, 0.9)]):
        local[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = _rot2(a1) @ np.diag([math.exp(r), math.exp(-r)]) @ _rot2(a2)
    return [local @ v @ local.T for v in (SymmetricState(1, 0.8, 0.6).to_cm(), StandardFormI(0.9, 1.1, 0.3, -0.2).to_cm())]


def test_qp_correlated_moments_at_n_30():
    # CI's pair, which the console-script step reads as --cm files: truncation leaves the moments
    # measured 8.2e-6 and 1.6e-6 from V (3.6e-5 and 2.5e-6 on the Williamson/Euler route); the
    # factors themselves meet V to rounding
    for v, bound in zip(_ci_qp_pair(), (1e-5, 2e-6)):
        assert np.max(np.abs(_factored_cm(_factors(v)) - v)) < 1e-14
        assert np.max(np.abs(fock.moments_from_fock(fock.gaussian_state_from_cm(v, 30)) - v)) < bound


def test_random_factors_reproduce_v(rng):
    # every piece is 2x2 algebra: measured 1.6e-15 of the entry scale over these draws
    worst = 0.0
    for _ in range(300):
        v = random_physical_cm(rng)
        worst = max(worst, np.max(np.abs(_factored_cm(_factors(v)) - v)) / cm_core.entry_scale(v))
    assert worst < 8e-15


def test_strongly_squeezed_states_are_built():
    # all 56 symmetric_sts(r), r in [4, 6.8) by 0.05, are physical by cm_core's rule; the
    # Williamson and mode-space checks refused 38.  Their kappas are exactly 1/2, so the
    # factors meet V to the rounding of a kappa at its entry scale: measured 4.9 eps scale^2
    # of the entry scale (1.9e-5 at r = 6.75)
    eps = np.finfo(float).eps
    rs = np.arange(4, 6.8, 0.05)
    for r in rs:
        v = symmetric_sts(r).to_cm()
        assert cm_core.is_physical(v)
        state = fock.gaussian_state_from_cm(v, 6)
        assert state.log_weights is None
        scale = cm_core.entry_scale(v)
        assert np.max(np.abs(_factored_cm(_factors(v)) - v)) <= 8 * eps * scale**3, r
    assert len(rs) == 56


def _oracle_workload_cms(tmp_path, monkeypatch):
    """The oracle workload's rhos and probes at seed 1, as perfbench draws them."""
    pytest.importorskip("scipy")  # perfbench's checks use scipy and mpmath
    pytest.importorskip("mpmath")
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    oracle = workloads.Oracle(tmp_path)
    oracle.generate(1)
    return [v for _, v in oracle.rhos] + [v for probes in oracle.probes for v in probes], workloads.ORACLE_N


def test_qp_free_build_is_real_with_one_squeeze_and_two_rotations(tmp_path, monkeypatch):
    cms, n = _oracle_workload_cms(tmp_path, monkeypatch)
    calls = []
    for name in ("_squeeze_action", "_rotation_action", "_phase_action"):
        action = getattr(fock, name)
        monkeypatch.setattr(fock, name, lambda *args, _name=name, _action=action: calls.append((_name, args[0])) or _action(*args))
    for v in cms:
        assert not v[::2, 1::2].any()
        calls.clear()
        state = fock.gaussian_state_from_cm(v, n)
        assert [b.dtype for b in state.blocks] == [np.float64, np.float64]
        acting = [name for name, arg in calls if np.any(arg)]
        assert acting.count("_squeeze_action") == 1 and acting.count("_rotation_action") <= 2
        assert "_phase_action" not in acting


def _physical_draws():
    """The 200 pure states under local symplectics of ``test_physical_states_are_built``."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        t = random_local_symplectic(rng)
        yield t @ symmetric_sts(4.0).to_cm() @ t.T


def test_two_mode_build_calls_no_linalg(tmp_path, monkeypatch):
    # the oracle workload's rhos and probes, CI's two CMs with q-p correlation and the 200 draws of
    # test_physical_states_are_built, once the squeezer's and the sectors' eigenpairs are cached
    cms, n = _oracle_workload_cms(tmp_path, monkeypatch)
    inputs = [(v, n) for v in cms] + [(v, 30) for v in _ci_qp_pair()] + [(v, 6) for v in _physical_draws()]
    expected = [fock.gaussian_state_from_cm(v, dim) for v, dim in inputs]  # also fills the per-N caches
    monkeypatch.setattr(np, "linalg", NoLinalg())
    for (v, dim), ref in zip(inputs, expected):
        state = fock.gaussian_state_from_cm(v, dim)
        for b, b_ref in zip(state.blocks, ref.blocks):
            assert np.array_equal(b, b_ref)


def test_passive_gates_call_no_linalg(monkeypatch):
    n = 12
    state = fock.gaussian_state_from_cm(symmetric_sts(0.3, 0.1).to_cm(), n)  # fills the per-N caches
    gate = fock.BeamSplitter(1.0, 0.3)
    chain = lambda: fock._phase_action((0.2, -0.7), n, fock._rotation_action(-2.0, n, state.blocks))  # noqa: E731
    expected = fock.apply_gate(state, gate).blocks, chain()
    monkeypatch.setattr(np, "linalg", NoLinalg())
    for out, ref in zip((fock.apply_gate(state, gate).blocks, chain()), expected):
        for block, block_ref in zip(out, ref):
            assert np.iscomplexobj(block) and np.array_equal(block, block_ref)


def test_beam_splitter_is_the_optics_type():
    assert fock.BeamSplitter is BeamSplitterParams
    with pytest.raises(DomainError):
        fock.BeamSplitter(theta=-0.1)
    # phi = 0 gives a real mode unitary, so a real state stays real
    state = fock.gaussian_state_from_cm(symmetric_sts(0.3).to_cm(), 10)
    assert _unitary(fock.apply_gate(state, fock.BeamSplitter(1.0))).dtype == np.float64


def test_euler_decompose_passive_and_degenerate_inputs():
    # a passive S has P = I: every eigenvector of S^T S is degenerate
    from gent.optics import BeamSplitterParams, bs_symplectic

    om = cm_core.omega(2)
    squeeze = np.diag([math.exp(0.3), math.exp(-0.3), 1.0, 1.0])
    for s in [
        np.eye(4),
        _local_rotation(0.7, 0.0),
        _local_rotation(0.4, -1.1),
        bs_symplectic(BeamSplitterParams(0.8, 0.5)),
        squeeze @ _local_rotation(0.0, 0.9),
    ]:
        k1, z, k2 = fock.euler_decompose(s)
        np.testing.assert_allclose(k1 @ z @ k2, s, atol=1e-12)
        for k in (k1, k2):
            assert np.max(np.abs(k.T @ k - np.eye(4))) < 1e-12
            assert np.max(np.abs(k @ om - om @ k)) < 1e-12


# the block layout at odd cutoffs --------------------------------------------

# truncation leaves these moment errors on the weak states below; measured
# 9.0e-5 at N = 5, 9.9e-7 at N = 7 and 1.2e-14 at N = 15
ODD_MOMENT_TOL = {5: 3e-4, 7: 3e-6, 15: 1e-13}


def _odd_cutoff_states(n):
    """(state, V) pairs: one- and two-mode, real and complex, after tensor and after a gate."""
    from gent.optics import BeamSplitterParams, bs_symplectic

    one_real = 0.51 * np.diag([math.exp(0.1), math.exp(-0.1)])
    rot = _local_rotation(0.7, 0.0)[:2, :2]
    one_complex = rot @ one_real @ rot.T
    two_real = symmetric_sts(0.08, 0.02).to_cm()
    m = bs_symplectic(BeamSplitterParams(0.8, 0.5))
    two_complex = m @ np.diag([0.52 * math.exp(0.1), 0.52 * math.exp(-0.1), 0.51, 0.51]) @ m.T
    gate = fock.BeamSplitter(1.1, 0.4)
    m_gate = bs_symplectic(BeamSplitterParams(gate.theta, gate.phi))
    product = np.zeros((4, 4))
    product[:2, :2], product[2:, 2:] = one_real, one_complex
    build = lambda v: fock.gaussian_state_from_cm(v, n)  # noqa: E731
    return [
        (build(one_real), one_real),
        (build(one_complex), one_complex),
        (build(two_real), two_real),
        (build(two_complex), two_complex),
        (fock.tensor(build(one_real), build(one_complex)), product),
        (fock.apply_gate(build(two_real), gate), m_gate @ two_real @ m_gate.T),
    ]


@pytest.mark.parametrize("n", [5, 7, 15])
def test_odd_cutoff_block_layout(n):
    states = _odd_cutoff_states(n)
    kinds = [np.iscomplexobj(state.blocks[0]) for state, _ in states]
    assert kinds == [False, True, False, True, True, True]
    for state, v in states:
        dim = n**state.n_modes
        assert [b.shape[0] for b in state.blocks] == [(dim + 1) // 2, dim // 2]
        u = _unitary(state)
        assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)  # the tail at N = 5 is part of the tolerance
            moments = fock.moments_from_fock(state)
        assert np.max(np.abs(moments - v)) < ODD_MOMENT_TOL[n]
    for (rho, _), (sigma, _) in zip(states[::2], states[1::2]):
        assert abs(fock.fidelity_fock(rho, sigma) - _dense_fidelity(rho, sigma)) < 1e-9
        assert abs(fock.rel_entropy_fock(sigma, rho) - _dense_rel_entropy(sigma, rho)) < 1e-12


def test_functionals_form_no_dense_matrix():
    # criterion 2's path at N = 20: only the class blocks of 200 levels each
    # and rho's cached square-root factors are ever formed
    n = 20
    rho = fock.gaussian_state_from_cm(symmetric_sts(0.35, 0.15).to_cm(), n)
    sigma = fock.gaussian_state_from_cm(REFLECTED_SCALED_CM, n)
    fock.fidelity_fock(rho, sigma)
    fock.rel_entropy_fock(sigma, rho)
    assert "parity_blocks" in vars(rho)
    for state in (rho, sigma):
        assert [b.shape for b in state.blocks] == [(200, 200), (200, 200)]
        assert not {"matrix", "log_matrix"} & set(vars(state))
        for value in vars(state).values():
            for arr in value if isinstance(value, tuple) else (value,):
                assert np.ndim(arr) < 2 or max(np.shape(arr)) < state.dim


# one-mode builds in closed form ---------------------------------------------


def _one_mode_inputs():
    """About 50 diagonal one-mode CMs: vacuum, thermal, squeezing up to |z| = 2, and 2x2 arrays."""
    rng = np.random.default_rng(1414)
    cms = [OneModeCM(0.5, 0.5), OneModeCM(0.5 * math.exp(4), 0.5 * math.exp(-4))]
    cms += [OneModeCM(nu, nu) for nu in (0.5 + 1e-13, 0.51, 0.8, 1.7)]
    for nu, z in zip(rng.uniform(0.5, 1.5, 36), rng.uniform(-2.0, 2.0, 36)):
        cms.append(OneModeCM(nu * math.exp(2 * z), nu * math.exp(-2 * z)))
    cms += [np.diag([0.7, 0.9]), np.diag([0.5, 0.5]), np.diag([1.3, 1.3]), np.diag([3.0, 0.2])]
    cms += [np.diag([0.5 * math.exp(2 * z), 0.5 * math.exp(-2 * z)]) for z in (-2.0, -0.3, 1.1, 2.0)]
    return cms


def _gate_chain_state(v, n):
    """The diagonal one-mode build as the squeezer's class blocks times the thermal core's.

    The squeeze is read as the mode-space route reads a 1x1 V_q:
    M = V_q^{1/2} kappa^{-1/2} = e^r, with rotations R1 = R2 = 1, so no
    passive gate acts.  The core takes kappa = sqrt(v_qq v_pp); the
    mode-space route's (V_q^{1/2} V_p V_q^{1/2})^{1/2} agrees with it to an ulp.
    """
    sqq, spp = (v.sigma_qq, v.sigma_pp) if isinstance(v, OneModeCM) else (v[0, 0], v[1, 1])
    root, kappa = math.sqrt(sqq), math.sqrt(sqq * spp)
    assert math.sqrt(root * spp * root) == pytest.approx(kappa, rel=3e-16, abs=0)
    core = fock.thermal_state(kappa, n)
    squeeze = fock._squeeze_blocks(math.log(root / math.sqrt(kappa)), n)
    return replace(core, blocks=tuple(s @ b for s, b in zip(squeeze, core.blocks)))


@pytest.mark.parametrize("n", [15, 60])
def test_one_mode_blocks_match_gate_chain(n):
    # measured: at most 2.8e-15 at N = 15 and 6.9e-15 at N = 60 over these inputs,
    # all from the rounding of r, which differs between the two forms
    cms = _one_mode_inputs()
    assert len(cms) >= 50
    worst = 0.0
    for v in cms:
        state, ref = fock.gaussian_state_from_cm(v, n), _gate_chain_state(v, n)
        assert [b.dtype for b in state.blocks] == [np.float64, np.float64]
        worst = max(worst, *(np.max(np.abs(b - b_ref)) for b, b_ref in zip(state.blocks, ref.blocks)))
        np.testing.assert_array_equal(state.weights, ref.weights)
        assert (state.log_weights is None) == (ref.log_weights is None)
        if ref.log_weights is not None:
            np.testing.assert_array_equal(state.log_weights, ref.log_weights)
        assert state.trace_deficit == ref.trace_deficit
    assert worst < 1e-14
    assert fock.gaussian_state_from_cm(OneModeCM(0.5, 0.5), n).log_weights is None


def test_one_mode_build_calls_no_linalg(monkeypatch):
    # rotated ones too: one squeezer and one phase, with no williamson or euler_decompose
    n = 24
    cms = [OneModeCM(0.9, 0.7), OneModeCM(0.5, 0.5), OneModeCM(1.1, 1.1), np.diag([2.0, 0.3])]
    cms += [np.array([[0.9, 0.2], [0.2, 0.7]]), np.array([[0.6, -0.4], [-0.4, 1.3]]), np.array([[1.0, 0.6], [0.6, 1.0]])]
    expected = [fock.gaussian_state_from_cm(v, n) for v in cms]  # also fills the per-N caches
    monkeypatch.setattr(np, "linalg", NoLinalg())
    for v, ref in zip(cms, expected):
        state = fock.gaussian_state_from_cm(v, n)
        for b, b_ref in zip(state.blocks, ref.blocks):
            assert np.array_equal(b, b_ref)


def _rotated_one_mode_cms():
    """(nu, r, V) of 300 seeded V = nu R(phi) diag(e^{2r}, e^{-2r}) R(phi)^T, |r| <= 2, nu in [1/2, 2]."""
    rng = np.random.default_rng(34)
    out = []
    for nu, r, phi in zip(rng.uniform(0.5, 2.0, 300), rng.uniform(-2.0, 2.0, 300), rng.uniform(-np.pi, np.pi, 300)):
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        out.append((nu, r, nu * rot @ np.diag([math.exp(2 * r), math.exp(-2 * r)]) @ rot.T))
    return out


def _decomposition_chain_state(v, n):
    """A one-mode V as the decomposition route's gate chain, from ``williamson`` and ``euler_decompose``.

    S = K1 Z K2: the core of williamson's kappa, read at the entry scale, under
    K2's phase, Z's squeezer and K1's phase; a passive one-mode K is the phase
    of its mode unitary.
    """
    s, (kappa,) = fock.williamson(v)
    k1, z, k2 = fock.euler_decompose(s)
    core = fock.thermal_state(cm_core.physical_kappa(kappa, cm_core.entry_scale(v)), n)
    first, last = (math.atan2(k[1, 0], k[0, 0]) for k in (k2, k1))  # the phase of u = k00 + i k10
    blocks = fock._phase_action((first,), n, core.blocks)
    blocks = tuple(q @ b for q, b in zip(fock._squeeze_blocks(math.log(z[0, 0]), n), blocks))
    return replace(core, blocks=fock._phase_action((last,), n, blocks))


@pytest.mark.parametrize("n", [12, 30])
def test_rotated_one_mode_matches_the_decomposition_chain(n):
    # the closed form and the decomposition route differ only in how r, phi and nu are
    # rounded: measured 1.8e-14 at N = 12 and 1.2e-14 at N = 30
    worst = 0.0
    for _, _, v in _rotated_one_mode_cms():
        state = fock.gaussian_state_from_cm(v, n)
        assert np.iscomplexobj(state.blocks[0])
        worst = max(worst, np.max(np.abs(state.matrix - _decomposition_chain_state(v, n).matrix)))
    assert worst < 4e-14


def test_rotated_one_mode_moments():
    # the 38 of those CMs with |r| <= 0.6 and nu <= 1, where N = 60 holds the state:
    # truncation leaves at most 5.8e-8
    weak = [v for nu, r, v in _rotated_one_mode_cms() if abs(r) <= 0.6 and nu <= 1]
    assert len(weak) >= 20
    worst = 0.0
    for v in weak:
        worst = max(worst, np.max(np.abs(fock.moments_from_fock(fock.gaussian_state_from_cm(v, 60)) - v)))
    assert worst < 1e-7


@pytest.mark.parametrize(
    "v, error, message",
    [
        ([[1.0, 2.0], [2.0, 1.0]], NonPositiveDefinite, "covariance matrix is not positive definite"),
        ([[-1.0, 0.1], [0.1, -1.0]], NonPositiveDefinite, "covariance matrix is not positive definite"),
        ([[0.0, 1e-3], [1e-3, 1.0]], NonPositiveDefinite, "covariance matrix is not positive definite"),
        ([[1.0, math.nan], [math.nan, 1.0]], NonPositiveDefinite, "covariance matrix is not positive definite"),
        ([[0.3, 0.1], [0.1, 0.3]], UnphysicalState, "kappa = 1/2 - 0.217, "),
        # det V = 0 lies within its rounding of 0 and is read as nu = 0
        ([[1.0, 1.0], [1.0, 1.0]], UnphysicalState, "kappa = 1/2 - 0.5, "),
    ],
)
def test_rotated_one_mode_refusals(monkeypatch, v, error, message):
    # the decomposition route's classes and messages (williamson's, and physical_kappa's at the
    # entry scale), decided with no eigensolve
    monkeypatch.setattr(np, "linalg", NoLinalg())
    with pytest.raises(error, match="^" + re.escape(message)):
        fock.gaussian_state_from_cm(np.array(v), 6)


@pytest.mark.parametrize(
    "v, error",
    [
        (OneModeCM(-1.0, 1.0), NonPositiveDefinite),
        (OneModeCM(1.0, -1.0), NonPositiveDefinite),
        (OneModeCM(-1.0, -1.0), NonPositiveDefinite),
        (OneModeCM(0.0, 1.0), NonPositiveDefinite),
        (OneModeCM(1.0, 0.0), NonPositiveDefinite),
        (OneModeCM(1e-200, 1e-200), NonPositiveDefinite),  # det V underflows to 0
        (np.diag([-0.5, -2.0]), NonPositiveDefinite),
        (np.zeros((2, 2)), NonPositiveDefinite),
        (OneModeCM(0.3, 0.3), UnphysicalState),
        (OneModeCM(0.49, 0.5), UnphysicalState),
        (OneModeCM(1e-3, 1.0), UnphysicalState),
        (np.diag([0.2, 0.5]), UnphysicalState),
        (OneModeCM(1e200, 1e200), NumericalDegeneracy),  # det V overflows
        (np.array([[1e200, 0.5e200], [0.5e200, 1e200]]), NumericalDegeneracy),  # rotated, det V overflows
    ],
)
def test_one_mode_refusals(v, error):
    # the build and every one-mode function, in either argument, read a CM through
    # OneModeCM.physical_nu: one class and one message, and no NaN
    cm = v if isinstance(v, OneModeCM) else OneModeCM(float(v[0, 0]), float(v[1, 1]))
    good = OneModeCM(0.8, 0.9)
    calls = [
        lambda: fock.gaussian_state_from_cm(v, 10),
        lambda: relent.von_neumann_entropy(cm),
        lambda: relent.rel_entropy_one_mode(cm, good),
        lambda: relent.rel_entropy_one_mode(good, cm),
        lambda: bures.one_mode_fidelity(cm, good),
        lambda: bures.one_mode_fidelity(good, cm),
    ]
    refusals = set()
    for call in calls:
        with pytest.raises(error) as exc:
            call()
        refusals.add((type(exc.value), str(exc.value)))
    assert len(refusals) == 1, refusals


@pytest.mark.parametrize("n", [1, 3, 6])
def test_cm_of_neither_one_nor_two_modes_is_refused_at_entry(n):
    # a vacuum CM of the wrong size is refused before the factorization, by its shape
    with pytest.raises(DimensionMismatch, match=rf"got shape \({n}, {n}\)"):
        fock.gaussian_state_from_cm(np.eye(n) / 2, 6)


def test_physical_states_are_built(monkeypatch):
    # pure states under local symplectics, entries up to a few thousand: every
    # one is physical by cm_core's threshold rule, which the build shares, and
    # every one is built
    refused = []
    for v in _physical_draws():
        assert cm_core.is_physical(v)
        try:
            fock.gaussian_state_from_cm(v, 6)
        except UnphysicalState:
            refused.append(cm_core.symplectic_spectrum(v).kappa_minus)
    assert not refused
    # a two-mode CM is refused on cm_core's closed-form spectrum, before any eigensolve
    with monkeypatch.context() as m:
        m.setattr(np, "linalg", NoLinalg())
        with pytest.raises(UnphysicalState, match="^kappa_- = 1/2 - 0.1, "):
            fock.gaussian_state_from_cm(0.4 * np.eye(4), 6)
        with pytest.raises(NonPositiveDefinite, match="^covariance matrix is not positive definite$"):
            fock.gaussian_state_from_cm(np.diag([1.0, 1.0, 1.0, -1.0]), 6)
    fock.thermal_state(0.5 - 1e-13, 6)  # within the rule at scale 1/2
    with pytest.raises(UnphysicalState):
        fock.thermal_state(0.5 - 1e-11, 6)


@pytest.mark.parametrize("f", [1.0, 1 + 3e-16, 1 - 3e-16])
def test_one_mode_kappa_is_read_at_the_one_mode_scale(f):
    # nu = sqrt(v_qq v_pp) does not cancel, so a one-mode CM is read at the scale 1/2 of
    # OneModeCM.physical_nu, whatever its variances; read at its entry scale 5e5, the
    # band would pass MAX_ROUNDING_TOL and refuse this pure state as ill-conditioned
    v = OneModeCM(5e5 * f, 5e-7)
    assert v.physical_nu() == 0.5
    assert fock.gaussian_state_from_cm(v, 30).log_weights is None
    assert fock.gaussian_state_from_cm(v.matrix(), 30).log_weights is None


def test_rotated_one_mode_kappa_is_read_at_the_entry_scale():
    # a one-mode CM with q-p correlation takes williamson, whose kappa carries rounding of a
    # few eps (entry scale)^2, as a two-mode CM's does: read at scale 1/2, about a fifth of
    # these 920 pure states, from r = 2.8 on, would be refused as below the vacuum
    rng = np.random.default_rng(3)
    for r in np.linspace(0.5, 5, 46):
        for phi in rng.uniform(0, np.pi, 20):
            rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
            v = rot @ np.diag([math.exp(2 * r), math.exp(-2 * r)]) / 2 @ rot.T
            assert fock.gaussian_state_from_cm(v, 8).log_weights is None, (r, phi)


@pytest.mark.parametrize("r", [7, 10, 12])
def test_rotated_pure_one_mode_beyond_the_rounding_is_ill_conditioned(r):
    # det V = v_qq v_pp - v_qp^2 rounds by up to about eps (v_qq v_pp + v_qp^2), far above
    # det V = 1/4 here: at r = 10 and 12 it rounds to 0 or below on 109 and 134 of these
    # angles.  Read as nu = 0 within that rounding, every one is ill-conditioned at its
    # entry scale, as every one is at r = 7, and none is called not positive definite
    rng = np.random.default_rng(5)
    for phi in rng.uniform(0, np.pi, 200):
        rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        v = rot @ np.diag([math.exp(2 * r), math.exp(-2 * r)]) / 2 @ rot.T
        with pytest.raises(NumericalDegeneracy, match="^ill-conditioned: kappa = "):
            fock.gaussian_state_from_cm(v, 8)


@pytest.mark.parametrize(
    "v, refused",
    [
        (np.diag([5e5, 5e-7, 0.5, 0.5]), True),
        (np.diag([5e5 * (1 + 3e-16), 5e-7, 0.5, 0.5]), True),
        (np.diag([5e5 * (1 - 3e-16), 5e-7, 0.5, 0.5]), True),
        (np.diag([5e5, 5e-6, 0.6, 0.6]), False),
    ],
)
def test_two_mode_build_refuses_where_is_physical_does(v, refused):
    # a two-mode CM is read at its entry scale, as cm_core.is_physical reads it: a kappa
    # at 1/2 is ill-conditioned at entries of 5e5, on either side of 1/2
    outcomes = []
    for call in (lambda: cm_core.is_physical(v), lambda: fock.gaussian_state_from_cm(v, 6)):
        try:
            call()
            outcomes.append(False)
        except NumericalDegeneracy:
            outcomes.append(True)
    assert outcomes == [refused, refused]


def test_build_refuses_exactly_where_is_physical_does():
    # the build decides a two-mode CM on cm_core's spectrum and rule, and its cores take
    # that spectrum's kappas as physical_kappa reads them: at the edge of the rounding
    # band, the kappas of an eigensolve of V fall on the other side of the rule on 11 of
    # these 3000 CMs
    n = 4
    refused = 0
    for v in band_edge_cms(3000):
        try:
            want = None if cm_core.is_physical(v) else UnphysicalState
        except GentError as exc:
            want = type(exc)
        try:
            state = fock.gaussian_state_from_cm(v, n)
        except GentError as exc:
            assert type(exc) is want, (v, exc)
            refused += 1
            continue
        assert want is None, v
        spec, scale = cm_core.symplectic_spectrum(v), cm_core.entry_scale(v)
        kappas = (spec.kappa_minus, spec.kappa_plus)
        cores = [fock.thermal_state(cm_core.physical_kappa(k, scale), n) for k in kappas]
        assert any(
            np.array_equal(state.weights, np.kron(a.weights, b.weights)) for a, b in (cores, cores[::-1])
        ), v
    assert 0 < refused < 3000


def test_identity_gates_are_skipped():
    # a diagonal two-mode V whose mode-space rotations come out as exactly I:
    # its state is the product of the one-mode builds, or of the bare cores
    # when nothing is squeezed
    n = 8
    a = np.diag([0.7 * math.exp(0.4), 0.7 * math.exp(-0.4)])
    b = np.diag([1.2 * math.exp(-0.2), 1.2 * math.exp(0.2)])
    v = np.zeros((4, 4))
    v[:2, :2], v[2:, 2:] = a, b
    _, gates = _factors(v)
    assert len(gates) == 3 and _rotation_angles(gates) == [0, 0]
    assert all(fock._rotation_action(t, n, None) is None for t in _rotation_angles(gates))
    build = lambda v: fock.gaussian_state_from_cm(v, n)  # noqa: E731
    state, ref = build(v), fock.tensor(build(a), build(b))
    for block, block_ref in zip(state.blocks, ref.blocks):
        np.testing.assert_allclose(block, block_ref, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(state.weights, ref.weights)
    thermal = build(np.diag([0.7, 0.7, 1.2, 1.2]))
    for block, block_ref in zip(thermal.blocks, fock.tensor(build(0.7 * np.eye(2)), build(1.2 * np.eye(2))).blocks):
        assert np.array_equal(block, np.eye(len(block))) and np.array_equal(block, block_ref)
    # a gate is complex if and only if a phase acts: a beam splitter of theta = 0 acts as nothing
    # whatever its phi, one of phi = 0 stays real, and any other phi takes phases
    assert fock._phase_action((0.0, 0.0), n, None) is None
    assert fock.apply_gate(state, fock.BeamSplitter(0.0, 1.2)).blocks is state.blocks
    assert all(block.dtype == np.float64 for block in fock.apply_gate(state, fock.BeamSplitter(math.pi)).blocks)
    assert all(np.iscomplexobj(block) for block in fock.apply_gate(state, fock.BeamSplitter(math.pi, 0.5)).blocks)


def test_diagonal_state_is_the_product_of_its_modes():
    # an SVD that orders by singular value would swap the modes of this V through
    # two truncated 90 degree rotations; the factors take the rotations nearest I
    # instead, here I itself
    n = 8
    v = np.diag([0.6, 0.9, 2.0, 0.8])
    assert _rotation_angles(_factors(v)[1]) == [0, 0]
    build = lambda v: fock.gaussian_state_from_cm(v, n)  # noqa: E731
    product = fock.tensor(build(v[:2, :2]), build(v[2:, 2:]))
    assert np.max(np.abs(build(v).matrix - product.matrix)) < 1e-14


# moments from the square-root factor ------------------------------------------


def _dense_moments(state):
    """Tr(rho (O_i O_j + O_j O_i)/2) from dense operator products: the reference."""
    n = state.dim_per_mode
    q, p = fock.quadratures(n)
    eye = np.eye(n)
    ops = [q, p] if state.n_modes == 1 else [np.kron(q, eye), np.kron(p, eye), np.kron(eye, q), np.kron(eye, p)]
    rho = state.matrix
    return np.array([[np.real(np.trace(rho @ (0.5 * (a @ b + b @ a)))) for b in ops] for a in ops])


def test_moments_match_dense_products():
    states = [state for state, _ in _odd_cutoff_states(7)]
    states += [fock.gaussian_state_from_cm(v, 20) for v in (symmetric_sts(0.4).to_cm(), _squeezed_split_thermal(0.6))]
    for state in states:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            moments = fock.moments_from_fock(state)
        assert moments.shape == (2 * state.n_modes,) * 2
        assert np.array_equal(moments, moments.T)
        assert np.max(np.abs(moments - _dense_moments(state))) < 1e-12
