"""Generalized Wright hypergeometric function pPsi_q and its convergence
diagnostic.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._backend import kernels
from .errors import ConvergenceError, DomainError, PoleError, TermCapError
from .series import DEFAULT_TOL, TERM_CAP, SeriesEval, _Checked, _series_eval, check_limits

Pair = tuple[float, float]
MAX_PAIRS = kernels.MAX_PAIRS  # the most upper pairs, and lower ones, a kernel takes


class WrightSpec(_Checked, namedtuple("WrightSpec", "upper lower")):
    """Numerator/denominator (coefficient, slope) pairs of a pPsi_q series.

    Slopes must be nonnegative reals (every spec generated by the
    operator theorems uses 1/2 or 1), and each side holds at most
    ``MAX_PAIRS`` pairs.  The slope sum ``delta`` and the kernel's four
    columns ``(a_i), (A_i), (b_j), (B_j)`` are derived once, here, and kept
    with ``_rows`` in one tuple, which ``wright_eval`` reads once a call.

    ``_rows`` caches the kernel's term table of the spec, one row per
    term k (its log-gamma sum, signs and log k!).  A row does not depend
    on z, the tolerance or the term cap, so every ``wright_eval`` of the
    spec shares it, across threads too.  Like ``delta`` and ``columns`` it
    lies outside the tuple (equality, hashing and repr ignore it) and
    cannot be assigned.  Private: the pure kernel trusts the rows it finds.
    """

    def __new__(cls, upper: tuple[Pair, ...], lower: tuple[Pair, ...]):
        # one pass over the pairs: each side's pairs are made floats, and
        # the first bad value is kept, to be raised after the size check
        sides, bad, inf = [], None, math.inf
        for pairs in (upper, lower):
            side = []
            for a, A in pairs:
                a, A = float(a), float(A)
                if bad is None and not (0.0 <= A < inf and -inf < a < inf):
                    bad = (f"slopes must be finite and >= 0, got {A!r}" if not 0.0 <= A < inf
                           else f"coefficients must be finite, got {a!r}")
                side.append((a, A))
            sides.append(tuple(side))
        upper, lower = sides
        if max(len(upper), len(lower)) > MAX_PAIRS:
            raise DomainError(f"at most {MAX_PAIRS} upper and {MAX_PAIRS} lower pairs are "
                              f"supported, got {len(upper)} and {len(lower)}")
        if bad is not None:
            raise DomainError(bad)
        self = super().__new__(cls, upper, lower)
        ua, uA = tuple(zip(*upper)) or ((), ())
        lb, lB = tuple(zip(*lower)) or ((), ())
        object.__setattr__(self, "_derived",
                           (math.fsum(lB) - math.fsum(uA), (ua, uA, lb, lB), []))
        return self

    delta, columns, _rows = (property(lambda self, i=i: self._derived[i]) for i in range(3))

    def __setattr__(self, name, value):  # wright_eval trusts delta and columns
        raise AttributeError(f"cannot assign to field {name!r} of a WrightSpec")


def wright_delta(spec: WrightSpec) -> float:
    """Sum of lower slopes minus sum of upper slopes, as stored on the
    spec when it was built.

    The series defines an entire function whenever the result exceeds -1.
    """
    return spec.delta


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
    return _series_eval(wright_row(spec, (z,), [], tol, term_cap)[0])


def wright_row(spec: WrightSpec, zs, out: list, tol: float = DEFAULT_TOL,
               term_cap: int = TERM_CAP) -> list:
    """The row of ``wright_eval`` (the contract is in ``series``).  A point
    is one kernel call, fed the spec's cached term table: it reads the rows,
    appends those this z needs next and sums in its own loop (in C on the
    compiled backend), with the bits of a table-free call."""
    series, (a, A, b, B), rows = _wright_kernel(spec, tol, term_cap)
    append, inf = out.append, math.inf
    for z in zs:
        if not -inf < z < inf:
            _wright_failure(z)
        value, err, terms, status = series(a, A, b, B, z, tol, term_cap, rows)
        if status or not -inf < value < inf:
            _wright_failure(z, value, status, tol, term_cap)
        append((value, err, terms, True))
    return out


def _wright_kernel(spec: WrightSpec, tol: float, term_cap: int) -> tuple:
    """The x-free part of a Wright row, and of an image's: the checks, then
    the kernel, the spec's four columns and its term table."""
    delta, columns, rows = spec._derived
    if delta <= -1.0:
        raise ConvergenceError(f"wright series diverges: delta={delta!r} must exceed -1")
    check_limits(tol, term_cap)
    return kernels.wright_series, columns, rows


def _wright_failure(z: float, value: float = 0.0, status: int = 0, tol: float = DEFAULT_TOL,
                    term_cap: int = TERM_CAP):
    """Raise the error of a Wright point with no value: z is not finite, or
    the kernel's result at z is a pole (status 2), overflows or is capped."""
    if not -math.inf < z < math.inf:
        raise DomainError(f"wright argument must be finite, got {z!r}")
    if status == 2:
        raise PoleError(f"upper parameter hits a gamma pole at term k={int(value)}")
    if not math.isfinite(value):
        raise OverflowError(f"wright series at z={z!r} exceeds double range")
    raise TermCapError(f"wright series did not reach tol={tol!r} within {term_cap} terms")
