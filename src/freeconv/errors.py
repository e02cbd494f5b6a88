"""Exception hierarchy shared across the package, and the integer test of
its input checks."""

from numbers import Integral


class FreeconvError(Exception):
    """Base class for all library errors."""


class DomainError(FreeconvError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class BranchCutError(DomainError):
    """Evaluation requested on (or within 1e-14 of) the [0, inf) branch cut."""


class DegenerateMeasureError(DomainError):
    """A measure with zero variance was passed where positive variance is required."""


class IterationError(FreeconvError, RuntimeError):
    """The subordination fixed-point iteration did not converge."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class InversionError(FreeconvError, RuntimeError):
    """Stieltjes-Perron inversion produced an invalid density."""


class OutOfDiscError(DomainError):
    """Series evaluation requested outside its disc of convergence."""


def is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool or a float."""
    return isinstance(value, Integral) and not isinstance(value, bool)
