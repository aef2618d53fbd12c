"""Beam-splitter symplectic transformations of two-mode covariance matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cm_core import omega
from .errors import DomainError, NotSymplectic
from .standard_forms import SymmetricState

SYMPLECTIC_TOL = 1e-8  # largest entry of M^T Omega M - Omega that transform_cm accepts


@dataclass(frozen=True)
class BeamSplitterParams:
    """Mixing angle theta in [0, pi] and phase phi in (-pi, pi]."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise DomainError(f"theta = {self.theta} outside [0, pi]")
        if not -math.pi < self.phi <= math.pi:
            raise DomainError(f"phi = {self.phi} outside (-pi, pi]")


def bs_symplectic(p: BeamSplitterParams) -> np.ndarray:
    """Orthogonal symplectic matrix of the beam splitter.

    Sign convention: at theta = pi/2, phi = 0 the congruence M^T V M maps a
    symmetric equally scaled CM to diag[(b+c)u, (b-|d|)/u, (b-c)u, (b+|d|)/u],
    mode 1 carrying (b+c)u.
    """
    ct, st = math.cos(p.theta / 2), math.sin(p.theta / 2)
    cp, sp = math.cos(p.phi), math.sin(p.phi)
    i2 = np.eye(2)
    rot = np.array([[cp, -sp], [sp, cp]])
    return np.block([[ct * i2, -st * rot], [st * rot.T, ct * i2]])


def transform_cm(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Congruence M^T V M after checking that M is symplectic to SYMPLECTIC_TOL."""
    om = omega(2)
    if np.max(np.abs(m.T @ om @ m - om)) > SYMPLECTIC_TOL:
        raise NotSymplectic("M^T Omega M deviates from Omega beyond tolerance")
    return m.T @ np.asarray(v, dtype=float) @ m


def diagonalize_symmetric(s: SymmetricState, u: float) -> np.ndarray:
    """Diagonal entries of the 50:50 beam-splitter image of the scaled CM.

    Closed form, avoids cancellation in the matrix product near b ~ c.
    """
    if u <= 0:
        raise DomainError("scale u must be positive")
    b, c, da = s.b, s.c, s.d_abs
    return np.array([(b + c) * u, (b - da) / u, (b - c) * u, (b + da) / u])
