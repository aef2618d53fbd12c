"""The scalar core: the one threshold rule and the states given by parameters.

A symmetric two-mode state is three numbers, and the measures depend on
nothing else, so this module needs no numpy: ``import gent`` and the CLI's
``--b/--c/--d`` and ``--r`` commands load none.  ``cm_core`` and
``standard_forms`` re-export every name here; the methods that return a
matrix (``OneModeCM.matrix``, ``to_cm``) import numpy when called.

Conventions used throughout the package: hbar = 1, vacuum covariance matrix
(1/2)*identity, quadrature ordering (q1, p1, q2, p2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, NonPositiveDefinite, NumericalDegeneracy, UnphysicalState

VACUUM = 0.5
KAPPA_TOL = 1e-12
ROUNDING_PER_SCALE_SQ = 128 * sys.float_info.epsilon
MAX_ROUNDING_TOL = 1e-3


def rounding_tol(scale: float) -> float:
    """Allowance for rounding in a symplectic eigenvalue from entries of size ``scale``.

    Entries rounded to eps*scale move kappa by a few eps*scale^2: under local
    symplectics, ``symplectic_spectrum`` leaves a pure state's kappa = 1/2 on
    either side, up to ~23 eps*scale^2 low (10^5 seeded draws, r in [0, 5]), and
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


def physical_kappa(kappa: float, scale: float, name: str = "kappa") -> float:
    """kappa as the threshold rule reads it: exactly VACUUM within ``rounding_tol(scale)`` of 1/2.

    Rounding leaves a pure state's kappa on either side of 1/2, and the side must not
    decide whether a Fock core, an entropy or an argmax is pure.  Above the band kappa is
    returned as it is; below it UnphysicalState, whose message gives the gap below 1/2
    and the allowance under ``name``, and NumericalDegeneracy wherever ``above_vacuum``
    raises it.
    """
    tol = rounding_tol(scale)
    if kappa > VACUUM + tol:
        return kappa
    if not above_vacuum(kappa, scale):
        gap = f"1/2 - {VACUUM - kappa:.3g}"
        raise UnphysicalState(f"{name} = {gap}, beyond the rounding allowance {tol:.3g} at scale {scale:.3g}")
    return VACUUM


@dataclass(frozen=True)
class SymplecticSpectrum:
    kappa_plus: float
    kappa_minus: float
    kappa_tilde_plus: float
    kappa_tilde_minus: float


def symmetric_spectrum(b: float, c: float, d: float) -> SymplecticSpectrum:
    """Symplectic spectrum of standard form I (b, b, c, d) with c >= |d|, without an eigensolve.

    The beam-splitter modes have variances (b + c, b + d) and (b - c, b - d), so the
    kappas are sqrt((b + c)(b + d)) and sqrt((b - c)(b - d)), and the partial transpose
    flips the sign of d.  For d = -|d| these are ``SymmetricState``'s own products.
    Raises NonPositiveDefinite unless b > c, as the eigensolver refuses such a matrix.
    """
    if not b > c:
        raise NonPositiveDefinite("covariance matrix is not positive definite")
    return SymplecticSpectrum(
        math.sqrt((b + d) * (b + c)),
        math.sqrt((b - d) * (b - c)),
        math.sqrt((b - d) * (b + c)),
        math.sqrt((b + d) * (b - c)),
    )


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

    def matrix(self):
        """The 2x2 numpy array."""
        import numpy as np

        return np.diag([self.sigma_qq, self.sigma_pp])


@dataclass(frozen=True)
class StandardFormI:
    """Standard form I parameters: V1 = b1*I, V2 = b2*I, C = diag(c, d)."""

    b1: float
    b2: float
    c: float
    d: float

    def to_cm(self):
        """The 4x4 numpy array."""
        from .standard_forms import ScaledState, make_scaled_cm

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
        return above_vacuum(self.kappa_minus, self.b)

    def is_separable(self) -> bool:
        physical_kappa(self.kappa_minus, self.b, "kappa_-")  # raises UnphysicalState
        return above_vacuum(self.kappa_tilde_minus, self.b)

    def to_form_I(self) -> StandardFormI:
        return StandardFormI(self.b, self.b, self.c, -self.d_abs)

    def to_cm(self, u: float = 1.0):
        """The 4x4 numpy array of the state, locally squeezed by u on both modes."""
        from .standard_forms import ScaledState, make_scaled_cm

        return make_scaled_cm(ScaledState(self.to_form_I(), u, u))


def symmetric_sts(r: float, nbar: float = 0.0) -> SymmetricState:
    """Symmetric squeezed thermal state: two-mode squeezing r on thermal inputs.

    Raises NumericalDegeneracy where b - c = nu e^{-2r} rounds to 0 or below
    (from r of about 9.4 at nbar = 0) or cosh 2r overflows: floats of that
    size cannot hold the state.
    """
    if r < 0 or nbar < 0:
        raise DomainError("r and nbar must be nonnegative")
    nu = nbar + 0.5
    try:
        b, c = nu * math.cosh(2 * r), nu * math.sinh(2 * r)
    except OverflowError:
        b = c = math.inf
    if not b - c > 0:  # inf - inf is NaN
        raise NumericalDegeneracy(
            f"ill-conditioned: b - c = nu e^(-2r) is lost to rounding at r = {r:.6g}, nbar = {nbar:.6g}"
        )
    return SymmetricState(b=b, c=c, d_abs=c)
