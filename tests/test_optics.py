import math

import numpy as np
import pytest

from gent import cm_core
from gent.errors import DomainError, NotSymplectic
from gent.optics import BeamSplitterParams, bs_symplectic, diagonalize_symmetric, transform_cm
from gent.standard_forms import form_II_symmetric, make_scaled_cm, ScaledState, SymmetricState

from conftest import random_entangled_symmetric


def test_bs_is_orthogonal_symplectic(rng):
    om = cm_core.omega(2)
    for _ in range(20):
        m = bs_symplectic(
            BeamSplitterParams(theta=rng.uniform(0, math.pi), phi=rng.uniform(-math.pi, math.pi))
        )
        assert np.max(np.abs(m.T @ m - np.eye(4))) < 1e-14
        assert np.max(np.abs(m.T @ om @ m - om)) < 1e-14


def test_theta_zero_is_identity():
    m = bs_symplectic(BeamSplitterParams(theta=0.0, phi=0.3))
    np.testing.assert_allclose(m, np.eye(4), atol=1e-15)


def test_parameter_validation():
    with pytest.raises(DomainError):
        BeamSplitterParams(theta=-0.1)
    with pytest.raises(DomainError):
        BeamSplitterParams(theta=1.0, phi=4.0)


def test_transform_rejects_non_symplectic():
    with pytest.raises(NotSymplectic):
        transform_cm(np.eye(4), 2 * np.eye(4))


def test_balanced_bs_diagonalizes_equally_scaled(rng):
    m = bs_symplectic(BeamSplitterParams(theta=math.pi / 2, phi=0.0))
    for s in random_entangled_symmetric(rng, 20):
        u = rng.uniform(0.5, 2.0)
        v = make_scaled_cm(ScaledState(s.to_form_I(), u, u))
        image = transform_cm(v, m)
        off = image - np.diag(np.diag(image))
        assert np.max(np.abs(off)) < 1e-11
        np.testing.assert_allclose(np.diag(image), diagonalize_symmetric(s, u), atol=1e-12)


def test_form_II_image_entries(rng):
    m = bs_symplectic(BeamSplitterParams(theta=math.pi / 2, phi=0.0))
    for s in random_entangled_symmetric(rng, 10):
        vsq, v_ii = form_II_symmetric(s)
        image = transform_cm(v_ii, m)
        kt = s.kappa_tilde_minus
        expected = [s.kappa_plus**2 / kt, kt, kt, s.kappa_minus**2 / kt]
        np.testing.assert_allclose(np.diag(image), expected, atol=1e-10)


@pytest.mark.parametrize("u", [0.0, -1.0])
def test_diagonalize_symmetric_refuses_non_positive_scale(u):
    with pytest.raises(DomainError):
        diagonalize_symmetric(SymmetricState(1.0, 0.8, 0.6), u)
