"""Exception types shared across the package."""


class UwlocError(Exception):
    """Base class for computational failures raised by this package."""


class SingularMatrixError(UwlocError, ValueError):
    """A matrix required to be positive definite is singular within tolerance.

    ``pivot_index`` is the zero-based index of the offending Cholesky pivot,
    or of the offending eigenvalue for eigendecomposition-based routines.
    """

    def __init__(self, message, pivot_index=None):
        super().__init__(message)
        self.pivot_index = pivot_index


class GeometryError(UwlocError, ValueError):
    """Anchor/target geometry cannot support the requested estimate."""


class ConvergenceError(UwlocError, RuntimeError):
    """Iteration budget exhausted before reaching the requested tolerance."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class InfeasibleProblemError(UwlocError, RuntimeError):
    """No longer raised: a negative multiplier root is always bracketed.

    Kept for its exported name.
    """


class NumericalError(UwlocError, RuntimeError):
    """A value overflowed while building a system, or a linear solve failed
    during the multiplier search.

    ``multiplier`` carries the value at which a solve failed.
    """

    def __init__(self, message, multiplier=None):
        super().__init__(message)
        self.multiplier = multiplier


class ConfigError(UwlocError, ValueError):
    """A scenario/configuration file is missing fields or violates invariants."""
