"""Exception types raised by the library.

Plain ``OverflowError`` (builtin) is used for representable-range
exhaustion; everything else derives from :class:`BsfracError` so callers
can catch library failures in one clause.
"""


class BsfracError(Exception):
    """Base class for all library-specific errors."""


class PoleError(BsfracError, ValueError):
    """Gamma function evaluated at (or within tolerance of) a nonpositive integer."""


class DomainError(BsfracError, ValueError):
    """Argument outside the domain a series evaluator supports."""


class DomainUnsupportedError(BsfracError):
    """No evaluation route exists (e.g. MSM quadrature where the kernel does
    not collapse to one 2F1, or where that 2F1's gap c-a-b is an integer)."""


class ConvergenceError(BsfracError):
    """Series parameters violate the convergence condition."""


class TermCapError(BsfracError):
    """Term cap reached before the requested tolerance."""


class PreconditionError(BsfracError, ValueError):
    """Operator parameter condition (existence of the integral) violated."""


class QuadratureError(BsfracError):
    """Quadrature refinement stalled above the requested tolerance."""


class UnknownSuiteError(BsfracError, KeyError):
    """Verification suite selector not recognised."""
