"""Covariance-matrix core: symplectic spectra, physicality and separability.

The matrix layer.  The threshold rule it decides with (``above_vacuum``,
``rounding_tol`` and their constants), ``OneModeCM`` and the
``SymplecticSpectrum`` record are defined in the numpy-free ``gent.scalar``
and re-exported here, so both layers share one definition of each.
Importing this module loads numpy.

Conventions used throughout the package: hbar = 1, vacuum covariance matrix
(1/2)*identity, quadrature ordering (q1, p1, q2, p2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDefinite
from .scalar import (  # noqa: F401  re-exported: one definition, in the scalar core
    KAPPA_TOL,
    MAX_ROUNDING_TOL,
    ROUNDING_PER_SCALE_SQ,
    VACUUM,
    OneModeCM,
    SymplecticSpectrum,
    above_vacuum,
    physical_kappa,
    rounding_tol,
)

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

# momentum mirror on mode 2; realizes partial transposition as a congruence
LAMBDA_PT = np.diag([1.0, 1.0, 1.0, -1.0])


def omega(n_modes: int = 2) -> np.ndarray:
    """Fundamental symplectic form, block-diag(J, ..., J)."""
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = J2
    return out


# Omega and its partial transpose Lambda Omega Lambda, stacked for one eigvalsh
_FORMS = np.stack([omega(2), LAMBDA_PT @ omega(2) @ LAMBDA_PT])


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


def sqrt_cm(v: np.ndarray) -> np.ndarray:
    """R = V^{1/2} from one eigh(V); raises NonPositiveDefinite unless V > 0."""
    lam, q = np.linalg.eigh(np.asarray(v, dtype=float))
    if lam[0] <= 0:
        raise NonPositiveDefinite("covariance matrix is not positive definite")
    return (q * np.sqrt(lam)) @ q.T


# (key, spectrum) of the last matrix solved, keyed by its shape and bytes
_last_spectrum: tuple = (None, None)


def symplectic_spectrum(v: np.ndarray) -> SymplecticSpectrum:
    """Symplectic eigenvalues of V and of its partial transpose.

    With R = V^{1/2}, i R Omega R is Hermitian with eigenvalues -+kappa: i times
    a real antisymmetric matrix, so its spectrum is real and symmetric about 0
    by construction.  The partial transpose needs no second root, since
    (Lambda V Lambda)^{1/2} = Lambda R Lambda: its kappas are those of
    i R (Lambda Omega Lambda) R.  Both come from one stacked eigvalsh.

    The spectrum of the last matrix is kept, keyed by its content, so that
    ``is_physical``, ``is_separable`` and a caller asking about the same V
    share one solve; a matrix changed in place is solved again.
    """
    global _last_spectrum
    v = np.asarray(v, dtype=float)
    key = (v.shape, v.tobytes())
    last_key, last_spec = _last_spectrum  # one read: another thread may replace it
    if last_key == key:
        return last_spec
    if not np.isfinite(v).all():
        raise ValueError("covariance matrix has a non-finite entry")
    root = sqrt_cm(v)
    ev = np.linalg.eigvalsh(1j * (root @ _FORMS @ root))  # ascending: -k+, -k-, k-, k+
    spec = SymplecticSpectrum(float(ev[0, 3]), float(ev[0, 2]), float(ev[1, 3]), float(ev[1, 2]))
    _last_spectrum = (key, spec)
    return spec


def is_physical(v: np.ndarray) -> Verdict:
    """True iff kappa_- >= 1/2 (Robertson-Schroedinger condition)."""
    km = symplectic_spectrum(v).kappa_minus
    return Verdict(ok=above_vacuum(km, entry_scale(v)), kappa=km)


def is_separable(v: np.ndarray) -> Verdict:
    """True iff the partially transposed CM is physical (PPT criterion)."""
    spec, scale = symplectic_spectrum(v), entry_scale(v)
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
