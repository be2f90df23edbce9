"""Series evaluation of the Bessel-Struve kernel and of the Bessel and
Struve functions, with error bounds that include the rounding.

The hypergeometric functions of the operators have no wrapper here: the
quadrature route calls ``kernels.hyp2f1_kernel`` directly (``msm``), and
the Wright series live in ``wright``.

Each function of a point x has a row form, as ``wright.wright_row`` and
``msm.ClosedFormImage.value_row`` do: ``f_row(..., xs, out)`` appends each
x's (value, abs_error_est, terms_used, converged) to ``out`` in turn and
returns ``out``.  Its x-free checks and set-up run once a row, and a
failing point raises with ``out`` holding the points before it.  The
one-point function is the row of one point, so the two give the same bits.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from ._backend import kernels
from .errors import DomainError
from .gammacore import _LGAMMA_ULPS, _TINY, _U, ln_gamma_signed

DEFAULT_TOL = 1e-14
TERM_CAP = 10_000
MAX_TERM_CAP = 2**31 - 1  # the largest C int
# integrand families that pin the kernel order, named by what S_nu(t)
# becomes there; ``msm.FunctionKind`` and the CLI's ``--kind`` read them
_SPECIAL_NU = {
    "exp": -0.5,
    "expm1_over_t": 0.5,
    "i0_plus_l0": 0.0,
    "two_i1_plus_two_l1_over_t": 1.0,
}


def linspace(start: float, stop: float, count: int) -> list[float]:
    """count evenly spaced evaluation points from start to stop; the
    table sweeps and the verification grids both use it."""
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def check_limits(tol: float = DEFAULT_TOL, term_cap: int = TERM_CAP):
    """Reject a tolerance no series can meet (zero, negative or NaN)
    before it burns the whole term cap, and a term cap that is not an int
    in [1, 2**31 - 1]: the compiled kernels take it as a C int."""
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    if type(term_cap) is not int or not 1 <= term_cap <= MAX_TERM_CAP:
        raise DomainError(f"term cap must be an integer in [1, {MAX_TERM_CAP}], got {term_cap!r}")


class SeriesEval(NamedTuple):
    """A series value with an error bound.

    ``abs_error_est`` bounds the discarded tail and the rounding.  When
    ``converged`` is true the tail bound (for J, I, H, L and S at u > 0) or
    the whole bound (for S at u < 0) does not exceed ``tol * |value|`` for
    the requested relative tolerance, and for J and H the whole bound is
    below |value|.  For the Wright series the bound is the tail estimate
    alone.  Identical inputs always produce bit-identical results, whatever
    was evaluated before.

    A NamedTuple, because it is built once per evaluation and a tuple is
    the cheapest immutable record (built by ``_make``, ``_series_eval``,
    faster than ``__new__``).  Read its fields by name and do not unpack
    it: a field with a default may be appended.
    """

    value: float
    abs_error_est: float
    terms_used: int
    converged: bool


class _Checked:
    """First base of a named tuple whose ``__new__`` checks its fields
    (the parameter classes and ``wright.WrightSpec``): ``_make``, and so
    ``_replace``, would otherwise build the tuple past those checks."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


_series_eval = SeriesEval._make


def bessel_struve_kernel(nu: float, u: float, tol: float = DEFAULT_TOL,
                         term_cap: int = TERM_CAP) -> SeriesEval:
    """Bessel-Struve kernel S_nu(u), entire in u, for nu > -1.

    u = 0 returns exactly 1.  Positive u sums the power series with
    coefficients ``Gamma(nu+1) Gamma((n+1)/2) / (sqrt(pi) n! Gamma(n/2+nu+1))``,
    all positive; it raises OverflowError when the series is not finite in
    double precision, which the kernel finds at its first non-finite
    partial sum, not at its term cap.  Negative u, where that
    series alternates, is summed as a series of positive terms built from
    the integral representation (DLMF 10.32.2 with 11.5.2), with a running
    bound on its rounding error: S_nu(-x) is finite and decays like
    2 Gamma(nu+1) / (sqrt(pi) Gamma(nu+1/2) x), so it never overflows.  Its
    bound includes the rounding; it is unconverged where that bound exceeds
    ``tol * |value|``, as near a zero of S for -1 < nu < -1/2, or where the
    sum would need more than ``term_cap`` terms.

    At u > 0 the bound adds the rounding of the positive sum (Higham 2002,
    ch. 4): the odd chain's first term errs by ``_bs_prefactor_units`` u, a
    chain step by 7u (3.5u a term) and an addition by u of the sum.
    ``converged`` tests the tail estimate alone, as for I and L.  A point
    is one kernel call: a sweep of one order reuses the pure kernel's
    table of that order.
    """
    return _series_eval(bessel_struve_row(nu, (u,), [], tol, term_cap)[0])


def bessel_struve_row(nu: float, us, out: list, tol: float = DEFAULT_TOL,
                      term_cap: int = TERM_CAP) -> list:
    """The row of ``bessel_struve_kernel``; the prefactor's rounding units
    are found at the first u > 0."""
    if not nu > -1.0:
        raise DomainError(f"kernel order must satisfy nu > -1, got {nu!r}")
    check_limits(tol, term_cap)
    series, append, units, inf = kernels.bs_series, out.append, None, math.inf
    for u in us:
        if not -inf < u < inf:
            raise DomainError("kernel argument must be finite")
        value, err, terms, ok = series(nu, u, tol, term_cap)
        if not -inf < value < inf:
            raise OverflowError(f"Bessel-Struve series at u={u!r} exceeds double range")
        # never report convergence the estimate does not support
        converged = bool(ok) and err <= tol * max(abs(value), _ULP0)
        if u > 0.0:
            if units is None:
                units = _bs_prefactor_units(nu)
            err += value * _U * (units + 5.0 * terms)
        append((value, err, terms, converged))
    return out


def _gamma_units(a: float) -> float:
    """The relative error, in units of u, of a term that takes Gamma(a), a > 0,
    through the log-gamma kernel, with room for the operations around it."""
    return (2.0 * _LGAMMA_ULPS + 2.0) * max(1.0, abs(math.lgamma(a))) + a * abs(math.log(a)) + 1.0


@lru_cache(maxsize=1)
def _bs_prefactor_units(nu: float) -> float:
    """The relative error, in units of u, of the odd chain's first term
    u * Gamma(nu+1)/(sqrt(pi) Gamma(nu+3/2)), kept for the last nu.

    Where 2 nu is an integer and |nu| < 90, the kernel's exact branch of
    ``_bs_odd_prefactor`` forms the prefactor by rational recurrences in
    double-double, whose high word is within 1u; the product with u adds
    1u.  Elsewhere the prefactor goes through two log-gammas."""
    if abs(nu) < 90.0 and (2.0 * nu).is_integer():
        return 2.0
    return _gamma_units(nu + 1.0) + _gamma_units(nu + 1.5) + 2.0


# below this z, 0.5 * z can round (to zero at the smallest subnormal) and
# (z/2)**2 underflows, so the J/I and H/L series are their leading term
_HALF_ROUNDS = 2.0 ** -1021
_LN2 = math.log(2.0)
_ULP0 = math.ulp(0.0)


def _positive_series_rounding(value: float, terms: int, power: float, units) -> float:
    """A bound on the rounding error of a sum of ``terms`` positive terms
    of the I or L series, which sum to ``value`` (Higham 2002, ch. 4).  The
    first term, exp(power - sum of log Gamma(a)), power = order log(z/2),
    errs by a few u per operation and by ``units`` (each a's _gamma_units);
    each recurrence step adds at most 6u to a term's relative error (the
    two sums in k + v + c, three products and a quotient), and each
    addition u of the partial sum.  Below the smallest normal double each
    term also errs by up to ulp(0)."""
    if not value < math.inf:
        return math.inf  # a term overflowed: nothing finite to bound
    if not value > 0.0:
        return terms * _ULP0  # every term underflowed
    first = 5.0 * abs(power) + 1.0
    for g in units:
        first += g
    units = first + 8.0 * terms
    if value < _TINY:  # value * _U would underflow
        return value * (_U * units) + terms * _ULP0
    return value * _U * units


@lru_cache(maxsize=8)
def _order_terms(struve_type: bool, v: float) -> tuple:
    """(order, gamma_args, units) of the J/I series of order v (H/L when
    ``struve_type``), computed once per order: its leading term is
    (z/2)**order / prod Gamma(gamma_args), ``units`` their ``_gamma_units``."""
    gamma_args = (1.5, v + 1.5) if struve_type else (v + 1.0,)
    return v + 1.0 if struve_type else v, gamma_args, tuple(map(_gamma_units, gamma_args))


def _bessel_type(kernel, v: float, zs, out: list, modified: bool, tol: float, term_cap: int,
                 struve_type: bool, at_zero: tuple) -> list:
    """The J/I (``bessel_series``) or H/L (``struve_series``) row, with the
    order's leading-term data found at the first z > 0; z = 0 gives
    ``at_zero``.  A point at z > 0 is one kernel call: a rounding bound on
    the sum of |terms| of its pass (its fifth field) is added to its tail
    bound.  Where 0.5 * z can round the series is its leading term, taken
    here in logs on both backends.  A J or H value whose whole bound
    reaches |value| has no correct digit, so it is not converged.

    Where the terms leave the double range the kernel ends at its first
    non-finite partial sum: the I or L value is then inf and the J or H
    value NaN, unconverged with bound inf."""
    check_limits(tol, term_cap)
    append, order_terms, inf, flag = out.append, None, math.inf, int(modified)
    for z in zs:
        if not 0.0 <= z < inf:
            raise DomainError("argument must be finite and nonnegative")
        if z == 0.0:
            append(at_zero)
            continue
        if order_terms is None:
            order, gamma_args, units = order_terms = _order_terms(struve_type, v)
        if z < _HALF_ROUNDS:
            power = ln_t = order * (math.log(z) - _LN2)  # log(z/2) without rounding z/2
            for a in gamma_args:
                ln_t -= ln_gamma_signed(a).log_abs
            try:
                value = math.exp(ln_t)
            except OverflowError:
                append(_NO_VALUE)
                continue
            append((value, _positive_series_rounding(value, 1, power, units), 1, True))
            continue
        value, err, terms, ok, total = kernel(v, z, flag, tol, term_cap)
        if not -inf < value < inf:
            append((inf if modified else math.nan, inf, terms, False))
            continue
        err += _positive_series_rounding(total, terms, order * math.log(0.5 * z), units)
        append((value, err, terms, bool(ok) and (modified or err < abs(value))))
    return out


_NO_VALUE = (math.inf, math.inf, 1, False)  # a point where the series is infinite


def bessel_first_kind(v: float, z: float, modified: bool = False,
                      tol: float = DEFAULT_TOL, term_cap: int = TERM_CAP) -> SeriesEval:
    """J_v(z) (or I_v(z) when modified) by direct series; v > -1, z >= 0."""
    return _series_eval(bessel_first_kind_row(v, (z,), [], modified, tol, term_cap)[0])


def bessel_first_kind_row(v: float, zs, out: list, modified: bool = False,
                          tol: float = DEFAULT_TOL, term_cap: int = TERM_CAP) -> list:
    """The row of ``bessel_first_kind``."""
    if not v > -1.0:
        raise DomainError(f"order must satisfy v > -1, got {v!r}")
    at_zero = (1.0 if v == 0.0 else 0.0, 0.0, 1, True) if v >= 0.0 else _NO_VALUE
    return _bessel_type(kernels.bessel_series, v, zs, out, modified, tol, term_cap, False,
                        at_zero)


def struve(v: float, z: float, modified: bool = False,
           tol: float = DEFAULT_TOL, term_cap: int = TERM_CAP) -> SeriesEval:
    """H_v(z) (or L_v(z) when modified) by direct series; v > -3/2, z >= 0."""
    return _series_eval(struve_row(v, (z,), [], modified, tol, term_cap)[0])


def struve_row(v: float, zs, out: list, modified: bool = False,
               tol: float = DEFAULT_TOL, term_cap: int = TERM_CAP) -> list:
    """The row of ``struve``."""
    if not v > -1.5:
        raise DomainError(f"order must satisfy v > -3/2, got {v!r}")
    if v > -1.0:
        at_zero = (0.0, 0.0, 1, True)
    elif v == -1.0:
        # prefactor power hits zero: only the k=0 term survives
        value = 1.0 / (math.gamma(1.5) * math.gamma(0.5))
        at_zero = (value, _positive_series_rounding(value, 1, 0.0, _order_terms(True, v)[2]),
                   1, True)
    else:
        at_zero = _NO_VALUE
    return _bessel_type(kernels.struve_series, v, zs, out, modified, tol, term_cap, True,
                        at_zero)
