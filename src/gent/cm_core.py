"""Covariance-matrix core: symplectic spectra, physicality and separability.

Conventions used throughout the package: hbar = 1, vacuum covariance matrix
(1/2)*identity, quadrature ordering (q1, p1, q2, p2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonPositiveDefinite,
    NumericalDegeneracy,
    UnphysicalState,
)

VACUUM = 0.5
KAPPA_TOL = 1e-12
ROUNDING_PER_SCALE_SQ = 128 * float(np.finfo(float).eps)
MAX_ROUNDING_TOL = 1e-3

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
class OneModeCM:
    """Diagonal 2x2 covariance matrix of a single mode."""

    sigma_qq: float
    sigma_pp: float

    @property
    def nu(self) -> float:
        """Symplectic eigenvalue sqrt(det V); physical states have nu >= 1/2, and det V < 0 gives NaN."""
        det = self.sigma_qq * self.sigma_pp
        return math.sqrt(det) if det >= 0 else math.nan

    def is_physical(self) -> bool:
        # sqrt(sqq*spp) does not cancel: its rounding is relative to nu, 1/2 at the threshold
        return self.sigma_qq > 0 and self.sigma_pp > 0 and above_vacuum(self.nu, VACUUM)

    def matrix(self) -> np.ndarray:
        return np.diag([self.sigma_qq, self.sigma_pp])


@dataclass(frozen=True)
class SymplecticSpectrum:
    kappa_plus: float
    kappa_minus: float
    kappa_tilde_plus: float
    kappa_tilde_minus: float


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
    return float(np.max(np.abs(v)))


def rounding_tol(scale: float) -> float:
    """Allowance for rounding in a symplectic eigenvalue from entries of size ``scale``.

    Entries rounded to eps*scale move kappa by a few eps*scale^2: under local
    symplectics, ``symplectic_spectrum`` puts a pure state's kappa = 1/2 up to
    ~23 eps*scale^2 low (10^5 seeded draws, r in [0, 5]), and
    ROUNDING_PER_SCALE_SQ = 128 eps leaves a margin of 5.
    The floor KAPPA_TOL covers entries of order 1.
    """
    return max(KAPPA_TOL, ROUNDING_PER_SCALE_SQ * scale * scale)


def above_vacuum(kappa: float, scale: float) -> bool:
    """kappa >= 1/2 up to ``rounding_tol(scale)``: the one physicality and PPT threshold.

    Raises NumericalDegeneracy when kappa lies within an allowance above
    MAX_ROUNDING_TOL of 1/2: entries of that size cannot decide the test.
    """
    tol = rounding_tol(scale)
    if tol > MAX_ROUNDING_TOL and abs(kappa - VACUUM) <= tol:
        raise NumericalDegeneracy(
            f"ill-conditioned: kappa = {kappa:.6g} is within {tol:.3g} of 1/2 at entry size {scale:.3g}"
        )
    return kappa >= VACUUM - tol


def sqrt_cm(v: np.ndarray) -> np.ndarray:
    """R = V^{1/2} from one eigh(V); raises NonPositiveDefinite unless V > 0."""
    lam, q = np.linalg.eigh(np.asarray(v, dtype=float))
    if lam[0] <= 0:
        raise NonPositiveDefinite("covariance matrix is not positive definite")
    return (q * np.sqrt(lam)) @ q.T


def symplectic_spectrum(v: np.ndarray) -> SymplecticSpectrum:
    """Symplectic eigenvalues of V and of its partial transpose.

    With R = V^{1/2}, i R Omega R is Hermitian with eigenvalues -+kappa: i times
    a real antisymmetric matrix, so its spectrum is real and symmetric about 0
    by construction.  The partial transpose needs no second root, since
    (Lambda V Lambda)^{1/2} = Lambda R Lambda: its kappas are those of
    i R (Lambda Omega Lambda) R.  Both come from one stacked eigvalsh.
    """
    root = sqrt_cm(v)
    ev = np.linalg.eigvalsh(1j * (root @ _FORMS @ root))  # ascending: -k+, -k-, k-, k+
    return SymplecticSpectrum(float(ev[0, 3]), float(ev[0, 2]), float(ev[1, 3]), float(ev[1, 2]))


def is_physical(v: np.ndarray) -> Verdict:
    """True iff kappa_- >= 1/2 (Robertson-Schroedinger condition)."""
    km = symplectic_spectrum(v).kappa_minus
    return Verdict(ok=above_vacuum(km, entry_scale(v)), kappa=km)


def is_separable(v: np.ndarray) -> Verdict:
    """True iff the partially transposed CM is physical (PPT criterion)."""
    spec, scale = symplectic_spectrum(v), entry_scale(v)
    if not above_vacuum(spec.kappa_minus, scale):
        raise UnphysicalState(f"kappa_- = {spec.kappa_minus:.6g} < 1/2")
    return Verdict(ok=above_vacuum(spec.kappa_tilde_minus, scale), kappa=spec.kappa_tilde_minus)


def load_cm_json(path) -> np.ndarray:
    """Read a 4x4 CM from a JSON file {"v": [[...], ...]} and symmetrize it."""
    with open(path) as fh:
        payload = json.load(fh)
    v = np.asarray(payload["v"], dtype=float)
    if v.shape != (4, 4):
        raise ValueError(f"field 'v' must be a 4x4 matrix, got shape {v.shape}")
    if not np.all(np.isfinite(v)):  # json reads NaN and Infinity
        raise ValueError("field 'v' has a NaN or infinite entry")
    if np.max(np.abs(v - v.T)) > 1e-9:
        raise ValueError("field 'v' is not symmetric within 1e-9")
    return 0.5 * (v + v.T)
