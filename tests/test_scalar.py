import re

import pytest

from gent import cm_core, relent, scalar, standard_forms
from gent.errors import UnphysicalState


def test_matrix_layers_reexport_the_scalar_core():
    # one definition per name: the matrix modules hand out the scalar core's own objects
    assert cm_core.above_vacuum is scalar.above_vacuum
    assert cm_core.rounding_tol is scalar.rounding_tol
    assert cm_core.physical_kappa is scalar.physical_kappa
    assert cm_core.OneModeCM is scalar.OneModeCM
    assert cm_core.SymplecticSpectrum is scalar.SymplecticSpectrum
    assert standard_forms.SymmetricState is scalar.SymmetricState
    assert standard_forms.StandardFormI is scalar.StandardFormI
    assert standard_forms.symmetric_sts is scalar.symmetric_sts


def test_rounding_per_scale_sq_is_unchanged():
    # 128 eps, as when it was written 128 * np.finfo(float).eps
    assert cm_core.ROUNDING_PER_SCALE_SQ == scalar.ROUNDING_PER_SCALE_SQ == 128 * 2.0**-52


def _gap_and_allowance(exc):
    match = re.search(r"= 1/2 - (\S+), beyond the rounding allowance (\S+) at scale", str(exc.value))
    return float(match[1]), float(match[2])


@pytest.mark.parametrize("scale", [0.5, 1.0, 15.2, 1e3, 1e5])
def test_refusal_gap_exceeds_its_allowance(scale):
    # just beyond the band each refusal prints the gap below 1/2 and the allowance at the scale,
    # and the gap exceeds it; the kappa itself, printed to 6 digits, would read 0.5
    tol = scalar.rounding_tol(scale)
    kappa = 0.5 - 1.05 * tol
    state = scalar.SymmetricState(scale, scale - kappa * kappa / scale, 0.0)  # kappa_- = kappa
    refusals = [
        lambda: scalar.physical_kappa(kappa, scale),
        state.is_separable,
        lambda: standard_forms.form_II_symmetric(state),
        lambda: cm_core.is_separable(state.to_cm()),
    ]
    if scale == scalar.VACUUM:  # a one-mode CM is read at the scale 1/2
        refusals.append(lambda: relent.von_neumann_entropy(scalar.OneModeCM(2.0, kappa * kappa / 2)))
    assert 0.5 - state.kappa_minus > tol
    assert 0.5 - cm_core.symplectic_spectrum(state.to_cm()).kappa_minus > tol
    for refuse in refusals:
        with pytest.raises(UnphysicalState) as exc:
            refuse()
        gap, allowance = _gap_and_allowance(exc)
        assert gap > allowance == float(f"{tol:.3g}"), str(exc.value)
