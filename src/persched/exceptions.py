"""Exception hierarchy.

Everything raised on purpose by this package derives from
:class:`PerschedError`, so callers can catch one type at the boundary.
Subclasses also inherit from the closest builtin (``ValueError`` for bad
arguments, ``RuntimeError`` for numerical failures) to stay friendly to
generic handlers.
"""

__all__ = [
    "PerschedError",
    "DimensionError",
    "InputError",
    "InstabilityError",
    "ConvergenceError",
    "InitializationError",
    "BudgetError",
    "ConfigError",
]


class PerschedError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(PerschedError, ValueError):
    """Operands have missing, inconsistent, or non-square shapes."""


class InputError(PerschedError, ValueError):
    """An argument violates a structural requirement (symmetry,
    definiteness, range, or finiteness)."""


class InstabilityError(PerschedError, RuntimeError):
    """A spectral-radius condition required for a unique fixed point fails."""


class ConvergenceError(PerschedError, RuntimeError):
    """An iterative solver hit its cap or missed its residual contract."""


class InitializationError(PerschedError, RuntimeError):
    """A schedule does not admit a stabilizing periodic Riccati solution."""


class BudgetError(PerschedError, RuntimeError):
    """An enumeration would exceed its candidate budget."""


class ConfigError(PerschedError, ValueError):
    """An experiment configuration is missing, malformed, or inconsistent."""
