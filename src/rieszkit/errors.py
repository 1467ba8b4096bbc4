"""Exception types shared across the toolkit.

Invalid arguments raise the builtin ``ValueError``; the classes here cover
failures that carry numerical context worth surfacing to the caller.
"""

from __future__ import annotations

__all__ = [
    "RieszkitError",
    "NumericError",
    "IntegrabilityError",
    "ConvergenceError",
    "ContractViolationError",
    "BudgetError",
]


class RieszkitError(Exception):
    """Base class for toolkit-specific failures."""


class NumericError(RieszkitError):
    """A callable produced a non-finite value during evaluation.

    ``point`` records the offending abscissa (or path, for Monte Carlo
    integrands) so the caller can inspect the integrand there.
    """

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class IntegrabilityError(RieszkitError):
    """An expectation or norm integral failed to be finite."""


class ConvergenceError(RieszkitError):
    """An iterative refinement did not stabilize within its budget.

    ``estimates`` holds the last two iterates so the caller can judge how
    far the process was from settling.
    """

    def __init__(self, message: str, estimates=None):
        super().__init__(message)
        self.estimates = estimates


class ContractViolationError(RieszkitError):
    """An oracle or sequence broke a contract it was required to satisfy.

    ``index`` names the first offending position when the violation occurs
    inside a monotone ladder.
    """

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


class BudgetError(RieszkitError):
    """Requested quadrature work exceeds the configured budget.

    Two guards raise it: N*n**N kernel evaluations for the tensor grid over
    N times with n nodes each, and B*n**2 for the sweep of
    ``cylinder_probability`` over its B boxed times.
    """
