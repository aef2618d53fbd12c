"""Covariance-matrix core: symplectic spectra, physicality and separability.

The matrix layer.  A CM's spectrum is that of its standard form I, in
closed form: no eigensolve decides physicality or PPT.  The Fock oracle
refuses a two-mode CM, and fills its thermal cores, on the spectrum read here
(``_spectrum_and_scale``) from ``standard_forms.form_I_record``, and factors it in closed form.
The threshold rule (``above_vacuum``, ``rounding_tol`` and their constants),
``OneModeCM``, the ``SymplecticSpectrum`` record and its closed form
``form_I_spectrum`` are defined in the numpy-free ``gent.scalar`` and
re-exported here, so both layers share one definition of each.  Importing
this module loads numpy.

Conventions used throughout the package: hbar = 1, vacuum covariance matrix
(1/2)*identity, quadrature ordering (q1, p1, q2, p2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .scalar import (  # noqa: F401  re-exported: one definition, in the scalar core
    KAPPA_TOL,
    MAX_ROUNDING_TOL,
    ROUNDING_PER_SCALE_SQ,
    VACUUM,
    OneModeCM,
    SymplecticSpectrum,
    above_vacuum,
    form_I_spectrum,
    physical_kappa,
    rounding_tol,
)
from .standard_forms import form_I_record

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

# momentum mirror on mode 2; realizes partial transposition as a congruence
LAMBDA_PT = np.diag([1.0, 1.0, 1.0, -1.0])


def omega(n_modes: int = 2) -> np.ndarray:
    """Fundamental symplectic form, block-diag(J, ..., J)."""
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = J2
    return out


@dataclass(frozen=True)
class Verdict:
    """Boolean test result carrying the raw symplectic eigenvalue."""

    ok: bool
    kappa: float

    def __bool__(self) -> bool:
        return self.ok


def partial_transpose(v: np.ndarray) -> np.ndarray:
    """Mirror the momentum of mode 2; flips the sign of det C."""
    return LAMBDA_PT @ np.asarray(v, dtype=float) @ LAMBDA_PT


def entry_scale(v: np.ndarray) -> float:
    """Largest entry of a CM: the ``scale`` of ``rounding_tol``."""
    return float(np.abs(v).max())


def _spectrum_and_scale(v: np.ndarray) -> tuple[SymplecticSpectrum, float]:
    """``symplectic_spectrum(v)`` and ``entry_scale(v)``, read from ``standard_forms.form_I_record``."""
    form, spec, scale, _ = form_I_record(v)
    return spec or form_I_spectrum(form), scale  # form_I_spectrum refuses a V the record has no spectrum of


def symplectic_spectrum(v: np.ndarray) -> SymplecticSpectrum:
    """Symplectic eigenvalues of V and of its partial transpose, with no eigensolve.

    Local symplectics keep the spectrum, so it is that of standard form I
    (``standard_forms.to_standard_form_I``, scalar 2x2 algebra on the entries) in
    closed form (``scalar.form_I_spectrum``).  Raises NonPositiveDefinite
    ("covariance matrix is not positive definite") where a diagonal block is not
    positive definite or b1 b2 <= c^2, and ValueError on a non-finite entry.

    It is read from the record of the last matrix (``standard_forms.form_I_record``), so that
    ``is_physical``, ``is_separable``, ``to_standard_form_I``, the Fock build and a caller asking
    about the same V share one reduction; a matrix changed in place is read again.
    """
    return _spectrum_and_scale(v)[0]


def is_physical(v: np.ndarray) -> Verdict:
    """True iff kappa_- >= 1/2 (Robertson-Schroedinger condition)."""
    spec, scale = _spectrum_and_scale(v)
    return Verdict(ok=above_vacuum(spec.kappa_minus, scale), kappa=spec.kappa_minus)


def is_separable(v: np.ndarray) -> Verdict:
    """True iff the partially transposed CM is physical (PPT criterion)."""
    spec, scale = _spectrum_and_scale(v)
    physical_kappa(spec.kappa_minus, scale, "kappa_-")  # raises UnphysicalState
    return Verdict(ok=above_vacuum(spec.kappa_tilde_minus, scale), kappa=spec.kappa_tilde_minus)


def load_cm_json(path) -> np.ndarray:
    """Read a 4x4 CM from a JSON file {"v": [[...], ...]} and symmetrize it."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object with field 'v', got {type(payload).__name__}")
    if "v" not in payload:
        raise ValueError("the JSON object has no field 'v'")
    try:
        v = np.asarray(payload["v"], dtype=float)
    except TypeError as exc:  # an object as 'v' or among its entries
        raise ValueError(f"field 'v' must be a 4x4 matrix of numbers ({exc})") from None
    if v.shape != (4, 4):
        raise ValueError(f"field 'v' must be a 4x4 matrix, got shape {v.shape}")
    if not np.all(np.isfinite(v)):  # json reads NaN and Infinity
        raise ValueError("field 'v' has a NaN or infinite entry")
    if np.max(np.abs(v - v.T)) > 1e-9:
        raise ValueError("field 'v' is not symmetric within 1e-9")
    return 0.5 * (v + v.T)
