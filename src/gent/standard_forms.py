"""Standard forms I and II of two-mode covariance matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cm_core
from .errors import DomainError, NonPositiveDefinite, UnphysicalState


@dataclass(frozen=True)
class StandardFormI:
    """Standard form I parameters: V1 = b1*I, V2 = b2*I, C = diag(c, d)."""

    b1: float
    b2: float
    c: float
    d: float

    def to_cm(self) -> np.ndarray:
        return make_scaled_cm(ScaledState(self, 1.0, 1.0))


@dataclass(frozen=True)
class SymmetricState:
    """Symmetric state in standard form: b1 = b2 = b, c >= |d|, d = -|d|."""

    b: float
    c: float
    d_abs: float

    def __post_init__(self):
        if not math.isfinite(self.b + self.c + self.d_abs):  # NaN fails every test below
            raise DomainError(f"non-finite symmetric parameters {self}")
        if self.b < 0.5 or self.c < 0 or self.d_abs < 0:
            raise DomainError(f"invalid symmetric parameters {self}")
        if self.c < self.d_abs - 1e-12:
            raise DomainError(f"requires c >= |d|, got c={self.c}, |d|={self.d_abs}")
        if self.b - self.c <= 0:
            raise DomainError(f"requires b > c, got b={self.b}, c={self.c}")

    @property
    def kappa_plus(self) -> float:
        return math.sqrt((self.b - self.d_abs) * (self.b + self.c))

    @property
    def kappa_minus(self) -> float:
        return math.sqrt((self.b + self.d_abs) * (self.b - self.c))

    @property
    def kappa_tilde_minus(self) -> float:
        return math.sqrt((self.b - self.d_abs) * (self.b - self.c))

    def is_physical(self) -> bool:
        return cm_core.above_vacuum(self.kappa_minus, self.b)

    def is_separable(self) -> bool:
        if not self.is_physical():
            raise UnphysicalState(f"kappa_- = {self.kappa_minus:.6g} < 1/2")
        return cm_core.above_vacuum(self.kappa_tilde_minus, self.b)

    def to_form_I(self) -> StandardFormI:
        return StandardFormI(self.b, self.b, self.c, -self.d_abs)

    def to_cm(self, u: float = 1.0) -> np.ndarray:
        return make_scaled_cm(ScaledState(self.to_form_I(), u, u))


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


def symmetric_sts(r: float, nbar: float = 0.0) -> SymmetricState:
    """Symmetric squeezed thermal state: two-mode squeezing r on thermal inputs."""
    if r < 0 or nbar < 0:
        raise DomainError("r and nbar must be nonnegative")
    nu = nbar + 0.5
    return SymmetricState(b=nu * math.cosh(2 * r), c=nu * math.sinh(2 * r), d_abs=nu * math.sinh(2 * r))
