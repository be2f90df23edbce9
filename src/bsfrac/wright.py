"""Generalized Wright hypergeometric function pPsi_q and its convergence
diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._backend import kernels
from .errors import ConvergenceError, DomainError, PoleError, TermCapError
from .series import DEFAULT_TOL, TERM_CAP, SeriesEval, check_tol

Pair = tuple[float, float]


@dataclass(frozen=True)
class WrightSpec:
    """Numerator/denominator (coefficient, slope) pairs of a pPsi_q series.

    Slopes must be nonnegative reals (every spec generated by the
    operator theorems uses 1/2 or 1).  The slope sum ``delta`` and the
    kernel's four columns ``(a_i), (A_i), (b_j), (B_j)`` are derived once,
    here, for every evaluation of the spec.
    """

    upper: tuple[Pair, ...]
    lower: tuple[Pair, ...]
    delta: float = field(init=False, repr=False, compare=False)
    columns: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        upper = tuple((float(a), float(A)) for a, A in self.upper)
        lower = tuple((float(b), float(B)) for b, B in self.lower)
        for coeff, slope in upper + lower:
            if slope < 0.0 or not math.isfinite(slope):
                raise DomainError(f"slopes must be finite and >= 0, got {slope!r}")
            if not math.isfinite(coeff):
                raise DomainError(f"coefficients must be finite, got {coeff!r}")
        ua, uA = tuple(zip(*upper)) or ((), ())
        lb, lB = tuple(zip(*lower)) or ((), ())
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "delta", math.fsum(lB) - math.fsum(uA))
        object.__setattr__(self, "columns", (ua, uA, lb, lB))


def wright_delta(spec: WrightSpec) -> float:
    """Sum of lower slopes minus sum of upper slopes, as stored on the
    spec when it was built.

    The series defines an entire function whenever the result exceeds -1.
    """
    return spec.delta


def _check(spec: WrightSpec, z: float, tol: float):
    """Refuse a divergent series, a non-finite argument or a bad tolerance."""
    if spec.delta <= -1.0:
        raise ConvergenceError(
            f"wright series diverges: delta={spec.delta!r} must exceed -1")
    if not math.isfinite(z):
        raise DomainError(f"wright argument must be finite, got {z!r}")
    check_tol(tol)


def _result(z: float, tol: float, term_cap: int, value: float, err: float, terms: int,
            status: int) -> SeriesEval:
    """The SeriesEval of the kernel's ``(value, abs_error_est, terms_used,
    status)``, or the library error its status or value calls for."""
    if status == 2:
        raise PoleError(
            f"upper parameter hits a gamma pole at term k={int(value)}")
    if not math.isfinite(value):
        raise OverflowError(f"wright series at z={z!r} exceeds double range")
    if status == 1:
        raise TermCapError(
            f"wright series did not reach tol={tol!r} within {term_cap} terms")
    return SeriesEval(value, err, terms, True)


def wright_eval(spec: WrightSpec, z: float, tol: float = DEFAULT_TOL,
                term_cap: int = TERM_CAP) -> SeriesEval:
    """Evaluate the Wright series sum_k prod Gamma(a_i + A_i k) /
    prod Gamma(b_j + B_j k) * z^k / k!.

    Terms are assembled in log space through the signed log-gamma kernel;
    a lower-parameter pole zeroes its term, an upper-parameter pole is an
    error.  Raises ConvergenceError when the slope condition fails,
    OverflowError when the value is not finite in double precision, and
    TermCapError when the cap is reached before the tolerance.

    One kernel call per point, which computes every term's log-gammas
    afresh: the path for a single point (``ClosedFormImage.value_at`` and
    the verification harness).  A sweep of one spec over many points uses
    ``wright_evaluator``.
    """
    _check(spec, z, tol)
    return _result(z, tol, term_cap,
                   *kernels.wright_series(*spec.columns, z, tol, term_cap))


def wright_evaluator(spec: WrightSpec, tol: float = DEFAULT_TOL, term_cap: int = TERM_CAP):
    """``z -> wright_eval(spec, z, tol, term_cap)``, bit for bit, for a
    sweep of one spec over many points.

    Of term k only the exp argument depends on z.  The evaluator owns a
    table, one row per term (the signed sum of the term's log-gammas, its
    signs and log k!, or a mark that a lower parameter kills the term),
    and passes it to every ``kernels.wright_series`` call: the kernel reads
    the rows, appends those a point needs next, and sums in its own loop,
    in C on the compiled backend.  A shared evaluator is safe across
    threads.

    Building a row costs what the one-shot kernel spends on that term, so
    from the second point of a spec on the table wins on both backends.
    The CLI's ``table`` takes this path, and ``eval`` too, through the same
    dispatch; callers of one point per spec, such as the verification
    harness, call ``wright_eval``.
    """
    columns, rows = spec.columns, []

    def evaluate(z: float) -> SeriesEval:
        _check(spec, z, tol)
        return _result(z, tol, term_cap,
                       *kernels.wright_series(*columns, z, tol, term_cap, rows))

    return evaluate
