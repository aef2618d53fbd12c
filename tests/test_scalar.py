import math
import random
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
    assert cm_core.form_I_spectrum is scalar.form_I_spectrum
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


def test_form_I_spectrum_at_b1_eq_b2_is_the_symmetric_products():
    # b1 = b2: SymmetricState's own kappas, bit for bit; b2 one ulp above b1 takes the roots of
    # Simon's quadratic, whose squares agree with theirs to worst 9.4 eps b^2 here (the bump
    # itself moves a square by up to about 4 eps b^2)
    rng, eps, worst = random.Random(2727), 2.0**-52, 0.0
    for _ in range(2000):
        b = rng.uniform(0.5, 50.0)
        c = rng.uniform(0.0, b)
        d_abs = rng.uniform(0.0, c) if rng.random() < 0.8 else c
        state = scalar.SymmetricState(b, c, d_abs)
        spec = scalar.form_I_spectrum(state.to_form_I())
        want = (state.kappa_plus, state.kappa_minus, math.sqrt((b + d_abs) * (b + c)), state.kappa_tilde_minus)
        assert (spec.kappa_plus, spec.kappa_minus, spec.kappa_tilde_plus, spec.kappa_tilde_minus) == want
        seam = scalar.form_I_spectrum(scalar.StandardFormI(b, math.nextafter(b, math.inf), c, -d_abs))
        got = (seam.kappa_plus, seam.kappa_minus, seam.kappa_tilde_plus, seam.kappa_tilde_minus)
        worst = max(worst, *(abs(g * g - w * w) / (eps * b * b) for g, w in zip(got, want)))
    assert worst <= 16.0, worst


@pytest.mark.parametrize("k", [-600, -1, 1, 600])
def test_form_I_spectrum_scales_with_the_form(k):
    # kappa is homogeneous of degree 1: a power of two scales it exactly, also where b^2
    # or b^4 would overflow or underflow
    form = scalar.StandardFormI(1.25, 2.5, 1.5, -0.75)
    spec = scalar.form_I_spectrum(form)
    scaled = scalar.form_I_spectrum(scalar.StandardFormI(*(math.ldexp(x, k) for x in (1.25, 2.5, 1.5, -0.75))))
    for name in ("kappa_plus", "kappa_minus", "kappa_tilde_plus", "kappa_tilde_minus"):
        assert getattr(scaled, name) == math.ldexp(getattr(spec, name), k)
