"""Exception hierarchy for phase boundaries and solver failures."""

__all__ = ["ActiveSetError", "CovarianceError", "CriticalPhaseError", "NoConvergenceError",
           "PhaseBoundaryError"]


class PhaseBoundaryError(ValueError):
    """The requested sample-size ratio sits at or beyond a phase boundary.

    Raised instead of extrapolating: outside its phase a branch of the
    theory has no solution, so returning numbers would be fabrication.
    """


class CriticalPhaseError(PhaseBoundaryError):
    """Ratio at or beyond the critical point r = 2 of the no-short / penalized branch."""


class NoConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget.

    Carries the last iterate and residuals so the failure is diagnosable.
    """

    def __init__(self, message, iterate=None, residual=None):
        super().__init__(message)
        self.iterate = iterate
        self.residual = residual


class CovarianceError(ValueError):
    """Input matrix is not a usable covariance (asymmetric or indefinite)."""


class ActiveSetError(NoConvergenceError):
    """The active-set loop hit its iteration cap; carries the working set."""
