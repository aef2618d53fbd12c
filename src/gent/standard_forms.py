"""Standard forms I and II of two-mode covariance matrices.

The matrix side of the standard forms: the CM of a (scaled) standard state and the
recovery of standard form I from a CM, once per matrix, into the record (``form_I_record``)
that the CM layer, the CLI and the Fock build read.  ``StandardFormI``, ``SymmetricState``
and ``symmetric_sts`` are defined in the numpy-free ``gent.scalar`` and re-exported here,
so each has one definition.  Importing this module loads numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonPositiveDefinite
from .scalar import StandardFormI, SymmetricState, symmetric_sts  # noqa: F401  re-exported
from .scalar import SymplecticSpectrum, form_I_spectrum, physical_kappa


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


def unit_root(p: float, q: float, r: float, s: float) -> tuple[float, tuple[float, ...]]:
    """(b, A), b = sqrt(det V_i) and A = (V_i / b)^{1/2} row by row, of V_i = [[p, q], [r, s]];
    a block that is not positive definite is refused with V's message."""
    det = p * s - q * r
    if det <= 0 or p <= 0:
        raise NonPositiveDefinite("covariance matrix is not positive definite")
    b = math.sqrt(det)
    p, q, r, s = p / b, q / b, r / b, s / b
    # for det V/b = 1, (V/b + I) / sqrt(tr V/b + 2) squares to V/b
    k = math.sqrt(p + s + 2)
    return b, ((p + 1) / k, q / k, r / k, (s + 1) / k)


def singular_values_2x2(m00: float, m01: float, m10: float, m11: float) -> tuple[float, float]:
    """(s1, s2) of ``svd_2x2``, with no angle."""
    s1 = (math.hypot(m00 + m11, m10 - m01) + math.hypot(m00 - m11, m10 + m01)) / 2
    return s1, (m00 * m11 - m01 * m10) / s1 if s1 else 0.0


def svd_2x2(m00: float, m01: float, m10: float, m11: float) -> tuple[float, float, float, float]:
    """(t1, s1, s2, t2) with M = [[m00, m01], [m10, m11]] = R(t1) diag(s1, s2) R(t2)^T, R(t) the rotation by t.

    M is p R(t1 - t2) plus q times the reflection of angle t1 + t2, p = hypot(m00 + m11, m10 - m01)/2
    and q = hypot(m00 - m11, m10 + m01)/2, so s1 = p + q >= |s2| and s2 = det M / s1 (0 for M = 0).
    """
    a, b = math.atan2(m10 - m01, m00 + m11), math.atan2(m10 + m01, m00 - m11)
    return (b + a) / 2, *singular_values_2x2(m00, m01, m10, m11), (b - a) / 2


@functools.lru_cache(maxsize=1)  # the record of the last matrix, keyed by content; a matrix that raises is not kept
def _reduce(data: bytes) -> tuple[StandardFormI, SymplecticSpectrum | None, float, tuple[float, float, float, float]]:
    """The one reduction of a matrix, given by the bytes of its 16 float entries (``form_I_record``)."""
    entries = np.frombuffer(data).tolist()
    if not all(map(math.isfinite, entries)):
        raise ValueError("covariance matrix has a non-finite entry")
    v00, v01, v02, v03, v10, v11, v12, v13, _, _, v22, v23, _, _, v32, v33 = entries
    b1, (p11, p01, p10, p00) = unit_root(v00, v01, v10, v11)
    b2, (q11, q01, q10, q00) = unit_root(v22, v23, v32, v33)
    # C' = (N1 C) N2^T, C = [[v02, v03], [v12, v13]], N1 = adj A1 = [[p00, -p01], [-p10, p11]], N2 alike
    l00, l01 = p00 * v02 - p01 * v12, p00 * v03 - p01 * v13
    l10, l11 = p11 * v12 - p10 * v02, p11 * v13 - p10 * v03
    m = l00 * q00 - l01 * q01, l01 * q11 - l00 * q10, l10 * q00 - l11 * q01, l11 * q11 - l10 * q10
    c, s2 = singular_values_2x2(*m)
    det_c = v02 * v13 - v03 * v12
    # |det C'| / c can round above c where c = |d| (a pure state): keep c >= |d|
    form = StandardFormI(b1, b2, c, math.copysign(min(abs(s2), c), det_c) if det_c else 0.0)
    try:
        return form, form_I_spectrum(form), max(map(abs, entries)), m
    except NonPositiveDefinite:  # b1 b2 <= c^2: a form I, and no spectrum
        return form, None, max(map(abs, entries)), m


def form_I_record(v: np.ndarray) -> tuple[StandardFormI, SymplecticSpectrum | None, float, tuple[float, ...]]:
    """(standard form I, its ``form_I_spectrum`` or None where b1 b2 <= c^2, largest |entry|, C') of V, one
    reduction per matrix (``_reduce``); ValueError on a non-finite entry, NonPositiveDefinite on a block."""
    return _reduce(np.asarray(v, dtype=float).tobytes())


def form_I_reduction(v: np.ndarray) -> tuple[StandardFormI, tuple[float, float]]:
    """Standard form I of V and the angles (a1, a2) of the local symplectic that reduces V to it.

    N_i = (V_i / b_i)^{-1/2} (``unit_root``) gives N_i V_i N_i^T = b_i I and leaves
    C' = N1 C N2^T = R(a1) diag(c, d) R(a2)^T (``svd_2x2``), so V = L V_I L^T with
    L = N1^{-1} R(a1) (+) N2^{-1} R(a2); |d| is taken as |det C'| / c, at most c, and
    sign(d) = sign(det C).  All but the angles is scalar 2x2 algebra on the entries of V, in ``form_I_record``.
    """
    form, _, _, m = form_I_record(v)
    a1, _, _, a2 = svd_2x2(*m)
    return form, (a1, a2)


def to_standard_form_I(v: np.ndarray) -> StandardFormI:
    """Bring V to standard form I by local symplectic operations (``form_I_record``)."""
    return form_I_record(v)[0]


def form_II_symmetric(s: SymmetricState) -> tuple[float, np.ndarray]:
    """Squeeze factor v and CM of the standard form II of a symmetric state."""
    physical_kappa(s.kappa_minus, s.b, "kappa_-")  # raises UnphysicalState
    v = math.sqrt((s.b - s.d_abs) / (s.b - s.c))
    return v, s.to_cm(u=v)
