"""Generalized Wright hypergeometric function pPsi_q and its convergence
diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._backend import kernels
from .errors import ConvergenceError, DomainError, PoleError, TermCapError
from .series import DEFAULT_TOL, TERM_CAP, SeriesEval, check_tol

Pair = tuple[float, float]


@dataclass(frozen=True)
class WrightSpec:
    """Numerator/denominator (coefficient, slope) pairs of a pPsi_q series.

    Slopes must be nonnegative reals (every spec generated by the
    operator theorems uses 1/2 or 1).
    """

    upper: tuple[Pair, ...]
    lower: tuple[Pair, ...]

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple((float(a), float(A)) for a, A in self.upper))
        object.__setattr__(self, "lower", tuple((float(b), float(B)) for b, B in self.lower))
        for coeff, slope in self.upper + self.lower:
            if slope < 0.0 or not math.isfinite(slope):
                raise DomainError(f"slopes must be finite and >= 0, got {slope!r}")
            if not math.isfinite(coeff):
                raise DomainError(f"coefficients must be finite, got {coeff!r}")


def wright_delta(spec: WrightSpec) -> float:
    """Sum of lower slopes minus sum of upper slopes.

    The series defines an entire function whenever the result exceeds -1.
    """
    return math.fsum(B for _, B in spec.lower) - math.fsum(A for _, A in spec.upper)


def wright_eval(spec: WrightSpec, z: float, tol: float = DEFAULT_TOL,
                term_cap: int = TERM_CAP) -> SeriesEval:
    """Evaluate the Wright series sum_k prod Gamma(a_i + A_i k) /
    prod Gamma(b_j + B_j k) * z^k / k!.

    Terms are assembled in log space through the signed log-gamma kernel;
    a lower-parameter pole zeroes its term, an upper-parameter pole is an
    error.  Raises ConvergenceError when the slope condition fails,
    OverflowError when the value is not finite in double precision, and
    TermCapError when the cap is reached before the tolerance.
    """
    delta = wright_delta(spec)
    if delta <= -1.0:
        raise ConvergenceError(
            f"wright series diverges: delta={delta!r} must exceed -1")
    if not math.isfinite(z):
        raise DomainError(f"wright argument must be finite, got {z!r}")
    check_tol(tol)
    ua = tuple(a for a, _ in spec.upper)
    uA = tuple(A for _, A in spec.upper)
    lb = tuple(b for b, _ in spec.lower)
    lB = tuple(B for _, B in spec.lower)
    try:
        value, err, terms, status = kernels.wright_series(ua, uA, lb, lB, z, tol, term_cap)
    except OverflowError:  # the pure kernels overflow in math.exp
        value, status = math.inf, 0
    if status == 2:
        raise PoleError(
            f"upper parameter hits a gamma pole at term k={int(value)}")
    if not math.isfinite(value):
        raise OverflowError(f"wright series at z={z!r} exceeds double range")
    if status == 1:
        raise TermCapError(
            f"wright series did not reach tol={tol!r} within {term_cap} terms")
    return SeriesEval(value, err, terms, True)
