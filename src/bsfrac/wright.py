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

    Slopes must be nonnegative reals (the operator theorems use 1/2 or 1),
    and each side holds at most ``MAX_PAIRS`` pairs.  The slope sum
    ``delta``, the kernel's four columns ``(a_i), (A_i), (b_j), (B_j)`` and
    ``_rows``, the kernel's term table of the spec (one row per term k: its
    log-gamma sum, signs and log k!, free of z, tol and the term cap), are
    kept in one tuple, read once a row, shared by every row of the spec and
    across threads.  They lie outside the tuple (equality, hashing and repr
    ignore them) and cannot be assigned: the pure kernel trusts its rows.
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
    """Sum of lower slopes minus sum of upper slopes, as stored on the spec:
    the series defines an entire function whenever it exceeds -1."""
    return spec.delta


def wright_eval(spec: WrightSpec, z: float, tol: float = DEFAULT_TOL,
                term_cap: int = TERM_CAP) -> SeriesEval:
    """The Wright series sum_k prod Gamma(a_i + A_i k) / prod Gamma(b_j +
    B_j k) * z^k / k!, its terms taken in logs: a lower-parameter pole
    zeroes its term, an upper one raises PoleError.  Raises
    ConvergenceError when the slope condition fails, OverflowError when the
    value is not finite, and TermCapError at the cap before the tolerance.
    """
    return _series_eval(wright_row(spec, (z,), [], tol, term_cap)[0])


def wright_row(spec: WrightSpec, zs, out: list, tol: float = DEFAULT_TOL,
               term_cap: int = TERM_CAP) -> list:
    """The row of ``wright_eval`` (the contract is in ``series``), fed the
    spec's cached term table: a point reads its rows and appends those it
    needs next, with the bits of a table-free call."""
    row, columns, rows = _wright_kernel(spec, tol, term_cap)
    i = row(*columns, zs, out, tol, term_cap, rows, None)
    if i < len(zs):
        _wright_failure(columns, rows, zs[i], tol, term_cap)
    return out


def _wright_kernel(spec: WrightSpec, tol: float, term_cap: int) -> tuple:
    """Check a Wright or image row; return its kernel, the spec's columns and term table."""
    delta, columns, rows = spec._derived
    if delta <= -1.0:
        raise ConvergenceError(f"wright series diverges: delta={delta!r} must exceed -1")
    check_limits(tol, term_cap)
    return kernels.wright_row, columns, rows


def _wright_failure(columns: tuple, rows: list, z: float, tol: float, term_cap: int):
    """Raise the error of the Wright point at z where a row stopped (z not
    finite, a pole, an overflow or the cap); return where z has a value."""
    if not -math.inf < z < math.inf:
        raise DomainError(f"wright argument must be finite, got {z!r}")
    value, _, _, status = kernels.wright_series(*columns, z, tol, term_cap, rows)
    if status == 2:
        raise PoleError(f"upper parameter hits a gamma pole at term k={int(value)}")
    if not math.isfinite(value):
        raise OverflowError(f"wright series at z={z!r} exceeds double range")
    if status:
        raise TermCapError(f"wright series did not reach tol={tol!r} within {term_cap} terms")
