"""Series evaluation of the Bessel-Struve kernel and of the Bessel and
Struve functions, with error bounds that include the rounding.

Each function of a point x has a row form, as ``wright.wright_row`` and
``msm.ClosedFormImage.value_row`` do: ``f_row(..., xs, out)`` appends each
x's (value, abs_error_est, terms_used, converged) to ``out`` and returns
``out``.  It runs the x-free checks and set-up, makes one call of its row
kernel (the contract is in ``_pykernels``) and raises the error of the
point the kernel did not finish, ``out`` holding the points before it.
The set-up refuses an order whose rounding units are not finite
(``_bounded``).  The one-point function is the row of one point: the two
give the same bits.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from ._backend import kernels
from .errors import DomainError
from .gammacore import _LGAMMA_ULPS, _U

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

    ``abs_error_est`` bounds the discarded tail and the rounding (for the
    Wright series, the tail alone).  When ``converged`` is true the tail
    bound (J, I, H, L and S at u > 0) or the whole bound (S at u < 0) is at
    most ``tol * |value|``, and the whole bound is finite, for J and H
    below |value|.  Identical inputs give bit-identical results, whatever was
    evaluated before.  A NamedTuple, the cheapest immutable record (built
    by ``_series_eval``); read its fields by name, as one may be appended.
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
    """Bessel-Struve kernel S_nu(u), entire in u, for -1 < nu < about 6.77e303.

    u = 0 returns exactly 1.  Positive u sums the power series with
    coefficients ``Gamma(nu+1) Gamma((n+1)/2) / (sqrt(pi) n! Gamma(n/2+nu+1))``,
    all positive, and raises OverflowError where it is not finite in double
    precision.  Negative u, where that series alternates, sums a series of
    positive terms from the integral representation (``_pykernels``):
    S_nu(-x) decays like 2 Gamma(nu+1) / (sqrt(pi) Gamma(nu+1/2) x).  Its
    bound includes the rounding; it is unconverged where that bound exceeds
    ``tol * |value|``, as near a zero of S for -1 < nu < -1/2, or where the
    sum would need more than ``term_cap`` terms.

    At u > 0 the bound adds the rounding of the positive sum (Higham 2002,
    ch. 4): the odd chain's first term errs by ``_bs_prefactor_units`` u, a
    chain step by 7u (3.5u a term) and an addition by u of the sum;
    ``converged`` tests the tail estimate alone, as for I and L.
    """
    return _series_eval(bessel_struve_row(nu, (u,), [], tol, term_cap)[0])


def bessel_struve_row(nu: float, us, out: list, tol: float = DEFAULT_TOL,
                      term_cap: int = TERM_CAP) -> list:
    """The row of ``bessel_struve_kernel``."""
    if not nu > -1.0:
        raise DomainError(f"kernel order must satisfy nu > -1, got {nu!r}")
    check_limits(tol, term_cap)
    i = kernels.bs_row(nu, us, out, tol, term_cap, _bs_prefactor_units(nu))
    if i < len(us):
        if not -math.inf < us[i] < math.inf:
            raise DomainError("kernel argument must be finite")
        raise OverflowError(f"Bessel-Struve series at u={us[i]!r} exceeds double range")
    return out


def _gamma_units(a: float) -> float:
    """The relative error, in units of u, of a term that takes Gamma(a), a > 0,
    through the log-gamma kernel, with room for the operations around it (or inf)."""
    try:
        lg = math.lgamma(a)
    except OverflowError:  # a past about 2.6e305
        return math.inf
    return (2.0 * _LGAMMA_ULPS + 2.0) * max(1.0, abs(lg)) + a * abs(math.log(a)) + 1.0


def _bounded(v: float, units: float) -> None:
    """Refuse order v where its leading term's rounding ``units`` are not finite, as no
    bound holds there: S from about 6.77e303, J, I, H and L from about 1.35e304."""
    if not units < math.inf:
        raise DomainError(f"order {v!r} is too large: its series' rounding exceeds double range")


@lru_cache(maxsize=1)
def _bs_prefactor_units(nu: float) -> float:
    """The relative error, in units of u, of the odd chain's first term
    u * Gamma(nu+1)/(sqrt(pi) Gamma(nu+3/2)), kept for the last nu: where 2
    nu is an integer and |nu| < 90, the kernel's double-double prefactor
    (within 1u) times u; elsewhere the prefactor takes two log-gammas."""
    if abs(nu) < 90.0 and (2.0 * nu).is_integer():
        return 2.0
    units = _gamma_units(nu + 1.0) + _gamma_units(nu + 1.5) + 2.0
    _bounded(nu, units)
    return units


@lru_cache(maxsize=8)
def _order_units(struve_type: bool, v: float) -> tuple:
    """The ``_gamma_units`` of the leading term's gamma arguments, v + 1 of
    the J/I series or 3/2 and v + 3/2 of the H/L series, once per order."""
    units = tuple(map(_gamma_units, (1.5, v + 1.5) if struve_type else (v + 1.0,)))
    _bounded(v, sum(units))
    return units


def _bessel_type(v: float, zs, out: list, modified: bool, tol: float, term_cap: int,
                 struve_type: bool, at_zero: tuple) -> list:
    """The J/I or H/L row (``_pykernels.bessel_type_row``); z = 0 gives
    ``at_zero``."""
    check_limits(tol, term_cap)
    if kernels.bessel_type_row(v, zs, out, struve_type, bool(modified), tol, term_cap,
                               _order_units(struve_type, v), at_zero) < len(zs):
        raise DomainError("argument must be finite and nonnegative")
    return out


_NO_VALUE = (math.inf, math.inf, 1, False)  # a point where the series is infinite


def bessel_first_kind(v: float, z: float, modified: bool = False,
                      tol: float = DEFAULT_TOL, term_cap: int = TERM_CAP) -> SeriesEval:
    """J_v(z) (or I_v(z) when modified) by direct series; -1 < v < about 1.35e304, z >= 0."""
    return _series_eval(bessel_first_kind_row(v, (z,), [], modified, tol, term_cap)[0])


def bessel_first_kind_row(v: float, zs, out: list, modified: bool = False,
                          tol: float = DEFAULT_TOL, term_cap: int = TERM_CAP) -> list:
    """The row of ``bessel_first_kind``."""
    if not v > -1.0:
        raise DomainError(f"order must satisfy v > -1, got {v!r}")
    at_zero = (1.0 if v == 0.0 else 0.0, 0.0, 1, True) if v >= 0.0 else _NO_VALUE
    return _bessel_type(v, zs, out, modified, tol, term_cap, False, at_zero)


def struve(v: float, z: float, modified: bool = False,
           tol: float = DEFAULT_TOL, term_cap: int = TERM_CAP) -> SeriesEval:
    """H_v(z) (or L_v(z) when modified) by direct series; -3/2 < v < about 1.35e304, z >= 0."""
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
        g1, g2 = _order_units(True, v)  # the sum's rounding (_pykernels._positive_rounding)
        at_zero = (value, value * _U * (1.0 + g1 + g2 + 8.0), 1, True)
    else:
        at_zero = _NO_VALUE
    return _bessel_type(v, zs, out, modified, tol, term_cap, True, at_zero)
