"""Exception types shared across the package."""


class GentError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveDefinite(GentError):
    """Covariance matrix has a non-positive eigenvalue."""


class NumericalDegeneracy(GentError):
    """kappa lies so near 1/2 that rounding in entries of this size cannot decide the test."""


class UnphysicalState(GentError):
    """Covariance matrix violates the uncertainty relation."""


class DomainError(GentError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class NotSymplectic(GentError):
    """Matrix fails the symplectic condition M^T Omega M = Omega."""


class OptimizerNoConverge(GentError):
    """An optimizer found no interior optimum: a search bound or its step limit stopped it."""


class BracketFailure(GentError):
    """No bracketing triple found for the scalar minimizer."""


class SupportViolation(GentError):
    """Relative entropy diverges: support(rho) not contained in support(rho')."""


class DimensionMismatch(GentError):
    """Fock operators have incompatible dimensions."""


class DecompositionFailure(GentError):
    """``fock.williamson`` or ``fock.euler_decompose`` failed its check; nothing else raises it."""


class TruncationWarning(UserWarning):
    """Fock truncation left a trace deficit above tolerance."""
