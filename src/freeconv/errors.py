"""Exception hierarchy shared across the package, and the two rules of its
input checks: check_integer for every count, size and order, and
check_between for every real bounded on both sides.  Each raises
DomainError naming the argument."""

from numbers import Integral, Real


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


def is_real(value) -> bool:
    """True for a Python or numpy real number; False for a bool or a string."""
    return isinstance(value, Real) and not isinstance(value, bool)


def check_integer(name: str, value, least: int) -> None:
    """Raise DomainError, naming the argument, unless value is an integer
    (not a bool) >= least.  A plain int is tested first: Measure.moment
    runs this check thousands of times per weighted sum."""
    if not ((type(value) is int or is_integer(value)) and value >= least):
        raise DomainError(f"{name} must be an integer >= {least}, got {name}={value!r}")


def check_between(name: str, value, lo: float, hi: float) -> None:
    """Raise DomainError, naming the argument, unless value is a real
    number (not a bool) with lo < value < hi; NaN fails."""
    if not (is_real(value) and lo < value < hi):
        raise DomainError(f"{name} must be in ({lo:g}, {hi:g}), got {name}={value!r}")
