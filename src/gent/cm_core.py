"""Covariance-matrix core: symplectic spectra, physicality and separability.

Conventions used throughout the package: hbar = 1, vacuum covariance matrix
(1/2)*identity, quadrature ordering (q1, p1, q2, p2).
"""

from __future__ import annotations

import json
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


@dataclass(frozen=True)
class OneModeCM:
    """Diagonal 2x2 covariance matrix of a single mode."""

    sigma_qq: float
    sigma_pp: float

    @property
    def nu(self) -> float:
        """Symplectic eigenvalue sqrt(det V); physical states have nu >= 1/2."""
        return float(np.sqrt(self.sigma_qq * self.sigma_pp))

    def is_physical(self) -> bool:
        # sqrt(sqq*spp) does not cancel: its rounding is relative to nu, 1/2 at the threshold
        return self.sigma_qq > 0 and self.sigma_pp > 0 and above_vacuum(self.nu, VACUUM)

    def matrix(self) -> np.ndarray:
        return np.diag([self.sigma_qq, self.sigma_pp])


@dataclass(frozen=True)
class BlockDecomposition:
    """2x2 blocks of a two-mode covariance matrix."""

    v1: np.ndarray
    v2: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class SymplecticSpectrum:
    kappa_plus: float
    kappa_minus: float
    kappa_tilde_plus: float
    kappa_tilde_minus: float


@dataclass(frozen=True)
class Invariants4:
    """Sp(2,R) x Sp(2,R) invariant determinants."""

    det_v1: float
    det_v2: float
    det_c: float
    det_v: float


@dataclass(frozen=True)
class Verdict:
    """Boolean test result carrying the raw symplectic eigenvalue."""

    ok: bool
    kappa: float

    def __bool__(self) -> bool:
        return self.ok


def blocks(v: np.ndarray) -> BlockDecomposition:
    v = np.asarray(v, dtype=float)
    return BlockDecomposition(v1=v[:2, :2].copy(), v2=v[2:, 2:].copy(), c=v[:2, 2:].copy())


def invariants(v: np.ndarray) -> Invariants4:
    b = blocks(v)
    return Invariants4(
        det_v1=float(np.linalg.det(b.v1)),
        det_v2=float(np.linalg.det(b.v2)),
        det_c=float(np.linalg.det(b.c)),
        det_v=float(np.linalg.det(v)),
    )


def sp2_value(v: np.ndarray) -> float:
    """det(V + (i/2)Omega) written with the four invariant determinants."""
    inv = invariants(v)
    return inv.det_v - 0.25 * (inv.det_v1 + inv.det_v2 + 2 * inv.det_c) + 1.0 / 16.0


def partial_transpose(v: np.ndarray) -> np.ndarray:
    """Mirror the momentum of mode 2; flips the sign of det C."""
    return LAMBDA_PT @ np.asarray(v, dtype=float) @ LAMBDA_PT


def entry_scale(v: np.ndarray) -> float:
    """Largest entry of a CM: the ``scale`` of ``rounding_tol``."""
    return float(np.max(np.abs(v)))


def rounding_tol(scale: float) -> float:
    """Allowance for rounding in a symplectic eigenvalue from entries of size ``scale``.

    Entries rounded to eps*scale move kappa by a few eps*scale^2: a pure
    state's kappa = 1/2 comes out up to ~18 eps*scale^2 low under local
    symplectics, and ROUNDING_PER_SCALE_SQ = 128 eps leaves a margin of 7.
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


def _kappas(v: np.ndarray) -> tuple[float, float]:
    """Moduli (kappa_+, kappa_-) of the imaginary eigenvalue pairs of Omega@V."""
    ev = np.linalg.eigvals(omega(v.shape[0] // 2) @ v)
    tol = 1e-10 * max(1.0, np.max(np.abs(ev)))
    if np.max(np.abs(ev.real)) > tol:
        raise NumericalDegeneracy(
            f"eigenvalues of Omega@V are not purely imaginary (max |Re| = "
            f"{np.max(np.abs(ev.real)):.3e})"
        )
    kap = np.sort(np.abs(ev.imag))
    # each kappa appears twice (+i kappa, -i kappa)
    if np.max(np.abs(kap[::2] - kap[1::2])) > tol:
        raise NumericalDegeneracy("eigenvalues of Omega@V fail the +-i pairing")
    return float(kap[-1]), float(kap[0])


def symplectic_spectrum(v: np.ndarray) -> SymplecticSpectrum:
    """Symplectic eigenvalues of V and of its partial transpose."""
    v = np.asarray(v, dtype=float)
    if np.min(np.linalg.eigvalsh(v)) <= 0:
        raise NonPositiveDefinite("covariance matrix is not positive definite")
    kp, km = _kappas(v)
    ktp, ktm = _kappas(partial_transpose(v))
    return SymplecticSpectrum(kp, km, ktp, ktm)


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


def dump_cm_json(v: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        json.dump({"v": np.asarray(v, dtype=float).tolist()}, fh, indent=1)
