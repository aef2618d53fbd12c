"""Standard forms I and II of two-mode covariance matrices.

The matrix side of the standard forms: the CM of a (scaled) standard state
and the recovery of standard form I from a CM.  The parameter records
``StandardFormI`` and ``SymmetricState`` and ``symmetric_sts`` are defined in
the numpy-free ``gent.scalar`` and re-exported here, so each has one
definition.  Importing this module loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonPositiveDefinite, UnphysicalState
from .scalar import StandardFormI, SymmetricState, symmetric_sts  # noqa: F401  re-exported


@dataclass(frozen=True)
class ScaledState:
    """Standard form I locally squeezed by factors (u1, u2)."""

    base: StandardFormI
    u1: float
    u2: float

    def __post_init__(self):
        if self.u1 <= 0 or self.u2 <= 0:
            raise DomainError("scale factors must be positive")


def make_scaled_cm(sc: ScaledState) -> np.ndarray:
    """Covariance matrix of a scaled standard state."""
    b1, b2, c, d = sc.base.b1, sc.base.b2, sc.base.c, sc.base.d
    u1, u2 = sc.u1, sc.u2
    su = math.sqrt(u1 * u2)
    return np.array(
        [
            [b1 * u1, 0.0, c * su, 0.0],
            [0.0, b1 / u1, 0.0, d / su],
            [c * su, 0.0, b2 * u2, 0.0],
            [0.0, d / su, 0.0, b2 / u2],
        ]
    )


def _local_normalizer(vi: np.ndarray) -> tuple[float, np.ndarray]:
    """(b, N) with N symplectic and N V_i N^T = b I, b = sqrt(det V_i)."""
    det = float(np.linalg.det(vi))
    if det <= 0 or vi[0, 0] <= 0:
        raise NonPositiveDefinite("a diagonal block of V is not positive definite")
    b = math.sqrt(det)
    a = vi / b
    # for det A = 1, (A + I) / sqrt(tr A + 2) squares to A, and A^-1 = adj(A)
    adj = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])
    return b, (adj + np.eye(2)) / math.sqrt(a[0, 0] + a[1, 1] + 2)


def to_standard_form_I(v: np.ndarray) -> StandardFormI:
    """Bring V to standard form I by local symplectic operations.

    Normalizing both diagonal blocks to b_i I leaves the off-diagonal block
    C' = R1 diag(c, d) R2^T with rotations R1, R2: c and |d| are the singular
    values of C', and sign(d) = sign(det C).
    """
    v = np.asarray(v, dtype=float)
    (b1, n1), (b2, n2) = _local_normalizer(v[:2, :2]), _local_normalizer(v[2:, 2:])
    c, d_abs = np.linalg.svd(n1 @ v[:2, 2:] @ n2.T, compute_uv=False)
    return StandardFormI(b1, b2, float(c), float(np.sign(np.linalg.det(v[:2, 2:])) * d_abs))


def form_II_symmetric(s: SymmetricState) -> tuple[float, np.ndarray]:
    """Squeeze factor v and CM of the standard form II of a symmetric state."""
    if not s.is_physical():
        raise UnphysicalState(f"kappa_- = {s.kappa_minus:.6g} < 1/2")
    v = math.sqrt((s.b - s.d_abs) / (s.b - s.c))
    return v, s.to_cm(u=v)
