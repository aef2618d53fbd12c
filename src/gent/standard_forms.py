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

from .errors import DomainError, NonPositiveDefinite
from .scalar import StandardFormI, SymmetricState, symmetric_sts  # noqa: F401  re-exported
from .scalar import physical_kappa


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


def _local_normalizer(p: float, q: float, r: float, s: float) -> tuple[float, tuple[float, ...]]:
    """(b, N) for the block V_i = [[p, q], [r, s]]: N symplectic with N V_i N^T = b I,
    b = sqrt(det V_i), and N = (n00, n01, n10, n11) read row by row.  A block that is not
    positive definite leaves V not positive definite, and is refused with V's message."""
    det = p * s - q * r
    if det <= 0 or p <= 0:
        raise NonPositiveDefinite("covariance matrix is not positive definite")
    b = math.sqrt(det)
    p, q, r, s = p / b, q / b, r / b, s / b
    # for det A = 1, (A + I) / sqrt(tr A + 2) squares to A, and A^-1 = adj(A)
    k = math.sqrt(p + s + 2)
    return b, ((s + 1) / k, -q / k, -r / k, (p + 1) / k)


def to_standard_form_I(v: np.ndarray) -> StandardFormI:
    """Bring V to standard form I by local symplectic operations.

    Normalizing both diagonal blocks to b_i I leaves the off-diagonal block
    C' = N1 C N2^T = R1 diag(c, d) R2^T with rotations R1, R2, so c and |d| are
    the singular values of C'.  For a 2x2 matrix M they are the half sum and
    half difference of hypot(m00 + m11, m10 - m01) and hypot(m00 - m11,
    m10 + m01); |d| is taken as |det C'| / c, at most c, and sign(d) = sign(det C).
    All of it is scalar 2x2 algebra on the entries of V.
    """
    entries = np.asarray(v, dtype=float).ravel().tolist()
    if not all(map(math.isfinite, entries)):
        raise ValueError("covariance matrix has a non-finite entry")
    v00, v01, v02, v03, v10, v11, v12, v13, _, _, v22, v23, _, _, v32, v33 = entries
    b1, (p00, p01, p10, p11) = _local_normalizer(v00, v01, v10, v11)  # N1
    b2, (q00, q01, q10, q11) = _local_normalizer(v22, v23, v32, v33)  # N2
    # C' = (N1 C) N2^T with C = [[v02, v03], [v12, v13]]
    l00, l01 = p00 * v02 + p01 * v12, p00 * v03 + p01 * v13
    l10, l11 = p10 * v02 + p11 * v12, p10 * v03 + p11 * v13
    m00, m01 = l00 * q00 + l01 * q01, l00 * q10 + l01 * q11
    m10, m11 = l10 * q00 + l11 * q01, l10 * q10 + l11 * q11
    c = (math.hypot(m00 + m11, m10 - m01) + math.hypot(m00 - m11, m10 + m01)) / 2
    det_c = v02 * v13 - v03 * v12
    # |det C'| / c can round above c where c = |d| (a pure state): keep c >= |d|
    d = math.copysign(min(abs(m00 * m11 - m01 * m10) / c, c), det_c) if det_c else 0.0
    return StandardFormI(b1, b2, c, d)


def form_II_symmetric(s: SymmetricState) -> tuple[float, np.ndarray]:
    """Squeeze factor v and CM of the standard form II of a symmetric state."""
    physical_kappa(s.kappa_minus, s.b, "kappa_-")  # raises UnphysicalState
    v = math.sqrt((s.b - s.d_abs) / (s.b - s.c))
    return v, s.to_cm(u=v)
