"""Exception hierarchy shared across the package.

Plain ``ZeroDivisionError`` is raised for inversion of a value with no
visible terms, matching the builtin semantics.
"""

import builtins


class LCError(Exception):
    """Base class for all library-specific errors."""


class ZeroOperandError(LCError):
    """An operand indistinguishable from zero where a nonzero one is required."""


class DomainError(LCError):
    """Argument outside the domain of an elementary function."""


class NotPositiveError(DomainError):
    """Root extraction of a value that is not strictly positive."""


class OrderTooHighError(LCError):
    """Requested derivative/series order exceeds what is available."""


class EmptySeriesError(LCError):
    """Series has too few coefficients for the requested operation."""


class NotConvergentError(LCError):
    """Summation requested at a point outside the convergence region."""


class NotInRadiusError(LCError):
    """Recentering target lies outside the estimated convergence radius."""


class LCSyntaxError(LCError):
    """Parse failure; carries the byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected {', '.join(expected)})"
        super().__init__(detail)


class UnboundVariableError(LCError):
    """Expression references a variable missing from the environment."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable {name!r}")


class NotDifferentiableError(LCError):
    """Symbolic differentiation hit a node with no derivative (abs)."""


class RecursionError(LCError, builtins.RecursionError):
    """Expression tree too deep to evaluate within the interpreter's
    recursion limit (evaluation recurses once per operator).

    It also subclasses the builtin, so handlers of the builtin still match.
    """


class NonJetResultError(LCError):
    """Evaluation has no polynomial jet at the expansion point."""


class NotIndeterminateError(LCError):
    """L'Hopital precondition f(a) = g(a) = 0 does not hold."""


class ZeroDenominatorError(LCError):
    """Denominator vanishes identically near the limit point."""


class InfiniteLimitError(LCError):
    """Quotient is infinitely large at the limit point."""
