"""Marichev-Saigo-Maeda left/right fractional integral operators.

Three independent routes are provided for every image:

* closed-form power images (``msm_power_image``),
* closed-form Wright-series images of the Bessel-Struve kernel and its
  special cases (``msm_bs_closed_form``), assembled termwise from the
  power images,
* direct double-exponential quadrature of the defining integrals in the
  F3-collapse regimes (``msm_quadrature``).

Each side's gamma arguments are written once, in the table
``_gamma_args``: the validity precondition shared by all three routes
and both closed forms (``_power_image``, ``_kernel_image``, which build
the pathway images too) are derived from it.

The right-hand kernel carries the Appell arguments in the order
``(1 - x/t, 1 - t/x)``: of the two conventions in circulation this is
the one consistent with the right-hand power-image gamma ratio and its
validity conditions, which the quadrature route confirms numerically.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from itertools import repeat
from typing import NamedTuple

from ._backend import kernels
from .errors import DomainError, DomainUnsupportedError, PreconditionError
from .gammacore import _HALF_LN_PI, POLE_TOL, gamma_ratio, ln_gamma_signed
from .series import (_SPECIAL_NU, DEFAULT_TOL, TERM_CAP, SeriesEval, _Checked, _series_eval,
                     bessel_struve_kernel)
from .wright import WrightSpec, wright_eval


class Side(enum.Enum):
    """Operator orientation: LEFT integrates over (0, x), RIGHT over (x, inf)."""

    LEFT = "left"
    RIGHT = "right"


def _check_finite(params, names=None):
    """Refuse a NaN or infinite field of a parameter tuple: each of
    ``names``, or every field."""
    for name in names or params._fields:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise PreconditionError(f"{name} must be finite, got {value!r}")


class MsmParams(_Checked, namedtuple("MsmParams", "alpha alpha_prime beta beta_prime gamma")):
    """The five operator parameters: finite, and gamma positive."""

    __slots__ = ()

    def __new__(cls, alpha: float, alpha_prime: float, beta: float, beta_prime: float,
                gamma: float):
        self = super().__new__(cls, alpha, alpha_prime, beta, beta_prime, gamma)
        _check_finite(self)
        if not gamma > 0.0:
            raise PreconditionError(f"gamma must be positive, got {gamma!r}")
        return self


class FunctionKind(_Checked, namedtuple("FunctionKind", "family rho nu lam")):
    """Integrand family t^(rho-1) * f(t) fed to an operator.

    ``monomial`` has no kernel factor; ``bs`` is the Bessel-Struve kernel
    of order nu with argument scale lam; the named special cases pin nu
    to -1/2, 1/2, 0, 1 with lam = 1 (exponential and Bessel/Struve
    combinations respectively).  rho, nu and lam must be finite.
    """

    __slots__ = ()

    def __new__(cls, family: str, rho: float, nu: float = 0.0, lam: float = 1.0):
        if family not in ("monomial", "bs") and family not in _SPECIAL_NU:
            raise DomainError(f"unknown integrand family {family!r}")
        self = super().__new__(cls, family, rho, nu, lam)
        _check_finite(self, ("rho", "nu", "lam"))
        if family == "bs" and not nu > -1.0:
            raise DomainError(f"kernel order must exceed -1, got {nu!r}")
        if family in _SPECIAL_NU:
            return super().__new__(cls, family, rho, _SPECIAL_NU[family], 1.0)
        return self

    @classmethod
    def monomial(cls, rho: float) -> "FunctionKind":
        return cls("monomial", rho)

    @classmethod
    def bs_kernel(cls, rho: float, nu: float, lam: float = 1.0) -> "FunctionKind":
        return cls("bs", rho, nu, lam)

    @classmethod
    def exp_kernel(cls, rho: float) -> "FunctionKind":
        return cls("exp", rho)

    @classmethod
    def expm1_over_t(cls, rho: float) -> "FunctionKind":
        return cls("expm1_over_t", rho)

    @classmethod
    def i0_plus_l0(cls, rho: float) -> "FunctionKind":
        return cls("i0_plus_l0", rho)

    @classmethod
    def two_i1_plus_two_l1_over_t(cls, rho: float) -> "FunctionKind":
        return cls("two_i1_plus_two_l1_over_t", rho)


class ClosedFormImage(NamedTuple):
    """prefactor * x**power_of_x * Psi(argument_scale * x**(+-1)).

    The Wright argument uses x for left images and 1/x for right ones
    (``inverse_argument``).  An empty spec with zero scale reduces to the
    plain power term.
    """

    prefactor: float
    power_of_x: float
    spec: WrightSpec
    argument_scale: float
    inverse_argument: bool = False

    def value_at(self, x: float, tol: float = DEFAULT_TOL,
                 term_cap: int = TERM_CAP) -> SeriesEval:
        """The image at x, through ``wright_eval``: a sweep over many x
        reuses the spec's cached term table.  x must be finite and positive."""
        if not 0.0 < x < math.inf:
            raise DomainError(f"images are defined for x > 0, got x={x!r}")
        prefactor, power, spec, arg_scale, inverse = self  # faster than 5 field reads
        z = arg_scale * (1.0 / x if inverse else x)
        w = wright_eval(spec, z, tol, term_cap)
        scale = prefactor * x ** power
        return _series_eval((scale * w.value, abs(scale) * w.abs_error_est, w.terms_used,
                             w.converged))


class _GammaTable(NamedTuple):
    """A power image at one exponent: prod Gamma(nums + fixed) / prod
    Gamma(dens) / divisor * x**power.  Per kernel-series term, nums and
    dens move by +1 and fixed does not; the kernel argument is scaled by
    1/cut and is lam/x instead of lam*x when ``inverse``."""

    nums: tuple
    dens: tuple
    power: float
    inverse: bool
    fixed: tuple = ()
    cut: float = 1.0
    divisor: float = 1.0


def _gamma_args(side: Side, p: MsmParams, rho: float) -> _GammaTable:
    """The side's table: numerator and denominator gamma arguments of the
    power image of t^(rho-1) (Saigo & Maeda 1998).

    Every argument moves by +1 per kernel-series term (rho -> rho+n on
    the left, rho -> rho-n on the right), so the Wright-series image
    carries each with slope 1.  The image exists exactly when every
    numerator argument is positive; that check runs here, for every
    route, and the series shift only strengthens its margin.
    """
    if side is Side.LEFT:
        nums = (rho, rho + p.gamma - p.alpha - p.alpha_prime - p.beta,
                rho + p.beta_prime - p.alpha_prime)
        dens = (rho + p.beta_prime, rho + p.gamma - p.alpha - p.alpha_prime,
                rho + p.gamma - p.alpha_prime - p.beta)
    else:
        nums = (1.0 - rho - p.beta, 1.0 - rho + p.alpha + p.alpha_prime - p.gamma,
                1.0 - rho + p.alpha + p.beta_prime - p.gamma)
        dens = (1.0 - rho, 1.0 - rho + p.alpha + p.alpha_prime + p.beta_prime - p.gamma,
                1.0 - rho + p.alpha - p.beta)
    if not (nums[0] > 0.0 and nums[1] > 0.0 and nums[2] > 0.0):  # min() would let a NaN through
        raise PreconditionError(
            f"{side.value} image of t^(rho-1) needs positive gamma arguments "
            f"{nums!r}, got rho={rho!r}")
    return _GammaTable(nums, dens, rho + p.gamma - p.alpha - p.alpha_prime - 1.0,
                       side is Side.RIGHT)


_EMPTY_SPEC = WrightSpec((), ())  # the Psi of every power image: the series 1


def _power_image(t: _GammaTable) -> ClosedFormImage:
    """The table's power image: its gamma ratio times x**power.  Every
    power image shares the one empty spec, and so its term table."""
    return ClosedFormImage(gamma_ratio(t.nums + t.fixed, t.dens) / t.divisor, t.power,
                           _EMPTY_SPEC, 0.0, t.inverse)


def _kernel_at(t: _GammaTable, prefactor: float, spec: WrightSpec,
               lam: float) -> ClosedFormImage:
    """The table's image of t^(rho-1) S_nu(lam t^(+-1)) with its front
    factor and spec, neither of which depends on lam: lam enters the image
    only as the Wright argument's scale lam/cut, so the prefactor and
    spec of one image serve every lam."""
    return ClosedFormImage(prefactor, t.power, spec, lam / t.cut, t.inverse)


def _kernel_image(t: _GammaTable, kind: FunctionKind) -> ClosedFormImage:
    """Wright-series image of t^(rho-1) S_nu(lam t^(+-1)), termwise from
    the table: the kernel pairs (1/2, 1/2) over (nu+1, 1/2) join its
    arguments with slope 1.  Special kinds delegate with nu fixed at -1/2,
    1/2, 0 or 1; they are never separate formulas."""
    if kind.family == "monomial":
        raise ValueError("monomial images come from the power image")
    acc, sign = 0.0, 1  # 0.0 + a and a / 1.0 are exact: MSM defaults cost no rounding
    for a in (kind.nu + 1.0,) + t.fixed:
        lg = ln_gamma_signed(a)
        acc += lg.log_abs
        sign *= lg.sign
    spec = WrightSpec(((0.5, 0.5), *zip(t.nums, repeat(1.0))),
                      ((kind.nu + 1.0, 0.5), *zip(t.dens, repeat(1.0))))
    return _kernel_at(t, sign * math.exp(acc - _HALF_LN_PI) / t.divisor, spec, kind.lam)


def msm_power_image(side: Side, params: MsmParams, rho: float) -> ClosedFormImage:
    """Closed-form image of t^(rho-1) under the chosen operator."""
    return _power_image(_gamma_args(side, params, rho))


def msm_bs_closed_form(side: Side, params: MsmParams, kind: FunctionKind) -> ClosedFormImage:
    """Image of t^(rho-1) S_nu(lam*t) (left) or t^(rho-1) S_nu(lam/t) (right)."""
    return _kernel_image(_gamma_args(side, params, kind.rho), kind)


def _collapsed_gap(side: Side, p: MsmParams) -> float | None:
    """c - a - b of the 2F1 left by an F3 collapse, after the Pfaff
    transform on the right; None when the 2F1 is identically one."""
    if side is Side.LEFT:
        return p.gamma - p.alpha - p.beta if p.alpha != 0.0 and p.beta != 0.0 else None
    return p.beta_prime - p.alpha_prime if p.alpha_prime != 0.0 and p.beta_prime != 0.0 else None


class _Collapsed(NamedTuple):
    """What a collapsed integral of t^(rho-1) depends on, so two equal
    ones are the same integral at every x: the side, the surviving 2F1's
    (a, b, c), or None when it is identically one, the power p0 of t
    (left: of t's distance to 0), gamma (the power gamma-1 of the other
    distance, and 1/Gamma(gamma) in front) and the power of 1/x in front.
    With alpha' = 0 the left integral never involves beta', and with
    alpha = 0 the right one never involves beta."""

    side: Side
    hyp: tuple | None
    p0: float
    gamma: float
    x_exp: float


def _collapsed(side: Side, p: MsmParams, rho: float) -> _Collapsed:
    """The collapsed integral of t^(rho-1) under the operator; raises as
    ``msm_quadrature`` does for parameters off the collapse."""
    _gamma_args(side, p, rho)  # the integral converges where the image exists
    if side is Side.LEFT and not (p.alpha_prime == 0.0 or p.beta_prime == 0.0):
        raise DomainUnsupportedError(
            "left quadrature needs alpha'=0 or beta'=0 to collapse the kernel")
    if side is Side.RIGHT and not (p.alpha == 0.0 or p.beta == 0.0):
        raise DomainUnsupportedError(
            "right quadrature needs alpha=0 or beta=0 to collapse the kernel")
    gap = _collapsed_gap(side, p)
    if gap is not None and abs(gap - round(gap)) <= POLE_TOL:
        name = "gamma-alpha-beta" if side is Side.LEFT else "beta'-alpha'"
        raise DomainUnsupportedError(
            f"{side.value} quadrature needs a non-integer 2F1 gap {name}, got {gap!r}")
    if side is Side.LEFT:
        a, b, p0, x_exp = p.alpha, p.beta, rho - p.alpha_prime - 1.0, p.alpha
    else:
        a, b, p0, x_exp = p.alpha_prime, p.beta_prime, rho - p.alpha - 1.0, p.alpha_prime
    return _Collapsed(side, None if gap is None else (a, b, p.gamma), p0, p.gamma, x_exp)


def _kernel_in_range(nu: float, u: float) -> None:
    """Raise the OverflowError of ``bessel_struve_kernel`` where S_nu(u),
    at a quadrature's largest kernel argument u, exceeds the double range,
    an infinite u included, before the integrand is summed at any node.
    At u <= 0, S_nu decays."""
    if math.isinf(u):
        raise OverflowError(f"Bessel-Struve series at u={u!r} exceeds double range")
    if u > 0.0:
        bessel_struve_kernel(nu, u)


def msm_quadrature(side: Side, params: MsmParams, kind: FunctionKind,
                   x: float, tol: float = 1e-10) -> SeriesEval:
    """Direct double-exponential quadrature of the defining integral at
    finite x > 0.

    Requires an F3 collapse along the whole path: alpha' = 0 or beta' = 0
    for LEFT, alpha = 0 or beta = 0 for RIGHT (the surviving 2F1 factor
    is then evaluable at every node), and a 2F1 gap (``_collapsed_gap``)
    away from the integers, where its connection formula has no value.
    Endpoint singularities are driven through the exact node-to-endpoint
    distances.  Raises OverflowError, as ``bessel_struve_kernel`` does,
    where the kernel at its largest argument, lam*x (LEFT) or lam/x
    (RIGHT), exceeds the double range.

    The integrand is built once per integral from ``_collapsed`` and the
    kernel order: the 2F1 factor is left out when the collapse makes it
    identically one.
    """
    from .quadrature import exp_sinh, tanh_sinh  # only here: a cold eval never needs it
    if not 0.0 < x < math.inf:
        raise DomainError(f"operators are defined for x > 0, got x={x!r}")
    collapsed = _collapsed(side, params, kind.rho)
    p0, gm1 = collapsed.p0, collapsed.gamma - 1.0
    hyp2f1 = None if collapsed.hyp is None else kernels.hyp2f1_kernel
    a_, b_, c_ = collapsed.hyp or (None, None, None)
    lam, nu = kind.lam, kind.nu
    bs_series = kernels.bs_series if kind.family != "monomial" else None
    if bs_series is not None:
        _kernel_in_range(nu, lam * x if side is Side.LEFT else lam / x)

    if side is Side.LEFT:
        def left_integrand(t, da, db):
            val = da ** p0 if p0 != 0.0 else 1.0
            if gm1 != 0.0:
                val *= db ** gm1
            if hyp2f1 is not None:
                val *= hyp2f1(a_, b_, c_, db / x, da / x)
            if bs_series is not None:
                val *= bs_series(nu, lam * da, 1e-15, TERM_CAP)[0]
            return val

        quad = tanh_sinh(left_integrand, 0.0, x, tol=tol)
    else:
        def right_integrand(t, d):
            val = t ** p0
            if gm1 != 0.0:
                val *= d ** gm1
            if hyp2f1 is not None:
                val *= hyp2f1(a_, b_, c_, -d / x, 0.0)
            if bs_series is not None:
                val *= bs_series(nu, lam / t, 1e-15, TERM_CAP)[0]
            return val

        quad = exp_sinh(right_integrand, x, x, tol=tol)
    pref = x ** (-collapsed.x_exp) / math.gamma(collapsed.gamma)
    return SeriesEval(pref * quad.value, abs(pref) * quad.abs_error_est,
                      quad.terms_used, quad.converged)
