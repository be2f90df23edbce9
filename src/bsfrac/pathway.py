"""Pathway fractional integral operator and the pathway probability
density family.

The operator kernel is ``[1 - a(1-alpha) t / x]**(eta/(1-alpha))`` on
(0, x/(a(1-alpha))): bracketing the whole binomial (rather than only the
ratio) is the reading under which the power image below is an exact Beta
integral, and the quadrature route verifies it.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from ._backend import kernels
from .errors import DomainError, PreconditionError
from .gammacore import _LGAMMA_ULPS, _TINY, _U, gamma_ratio, ln_gamma_signed
from .msm import (ClosedFormImage, FunctionKind, _check_finite, _GammaTable, _kernel_image,
                  _kernel_in_range, _power_image)
from .series import TERM_CAP, SeriesEval, _Checked


class PathwayParams(_Checked, namedtuple("PathwayParams", "eta a pathway_alpha")):
    """Operator parameters, all finite: scale a > 0, pathway_alpha < 1, and
    eta/(1-pathway_alpha) > -1 so the kernel stays integrable."""

    __slots__ = ()

    def __new__(cls, eta: float, a: float, pathway_alpha: float):
        self = super().__new__(cls, eta, a, pathway_alpha)
        _check_finite(self)
        if not a > 0.0:
            raise PreconditionError(f"scale a must be positive, got {a!r}")
        if not pathway_alpha < 1.0:
            raise PreconditionError(f"operator needs pathway_alpha < 1, got {pathway_alpha!r}")
        if not self.kernel_exponent > -1.0:
            raise PreconditionError(
                f"eta/(1-alpha) must exceed -1, got {self.kernel_exponent!r}")
        return self

    @property
    def kernel_exponent(self) -> float:
        return self.eta / (1.0 - self.pathway_alpha)

    @property
    def cut(self) -> float:
        """a*(1-alpha): the argument scale of the finite support."""
        return self.a * (1.0 - self.pathway_alpha)


def _table(params: PathwayParams, sigma: float) -> _GammaTable:
    """The power image of t^(sigma-1), a Beta integral, as a gamma table:
    Gamma(sigma) Gamma(1+c) / Gamma(1+c+sigma) / cut**sigma * x**(eta+sigma)
    with c the kernel exponent; Gamma(1+c) does not shift with the series."""
    if not sigma > 0.0:
        raise PreconditionError(f"exponent must be positive, got {sigma!r}")
    c = params.kernel_exponent
    return _GammaTable((sigma,), (1.0 + c + sigma,), params.eta + sigma, False,
                       fixed=(1.0 + c,), cut=params.cut, divisor=params.cut ** sigma)


def pathway_power_image(params: PathwayParams, beta_exp: float) -> ClosedFormImage:
    """Image of t^(beta_exp - 1): a Beta integral in closed form."""
    return _power_image(_table(params, beta_exp))


def pathway_bs_closed_form(params: PathwayParams, kind: FunctionKind) -> ClosedFormImage:
    """Wright-series image of t^(sigma-1) S_nu(lam*t), termwise from the
    power image; exponential special cases delegate via nu = -1/2, 1/2."""
    return _kernel_image(_table(params, kind.rho), kind)


def pathway_quadrature(params: PathwayParams, kind: FunctionKind, x: float,
                       tol: float = 1e-11) -> SeriesEval:
    """Direct tanh-sinh quadrature of the pathway integral at finite x > 0.
    Raises OverflowError, as ``bessel_struve_kernel`` does, where the
    kernel at its largest argument lam*x/cut exceeds the double range."""
    from .quadrature import tanh_sinh  # only here: a cold eval never needs it
    if not 0.0 < x < math.inf:
        raise DomainError(f"the operator is defined for x > 0, got x={x!r}")
    sigma = kind.rho
    _table(params, sigma)  # the integral converges where the image exists
    upper = x / params.cut
    c = params.kernel_exponent
    p0 = sigma - 1.0
    lam, nu = kind.lam, kind.nu
    bs_series = kernels.bs_series if kind.family != "monomial" else None
    if bs_series is not None:
        _kernel_in_range(nu, lam * upper)

    def integrand(t, da, db):
        val = da ** p0 if p0 != 0.0 else 1.0
        if c != 0.0:
            val *= (db / upper) ** c
        if bs_series is not None:
            val *= bs_series(nu, lam * da, 1e-15, TERM_CAP)[0]
        return val

    quad = tanh_sinh(integrand, 0.0, upper, tol=tol)
    pref = x ** params.eta
    return SeriesEval(pref * quad.value, abs(pref) * quad.abs_error_est,
                      quad.terms_used, quad.converged)


class Regime(enum.Enum):
    """Density family branch selected by the pathway parameter."""

    SUB = "sub"        # alpha < 1: finite support, extended type-1 beta
    SUPER = "super"    # alpha > 1: heavy tail, extended type-2 beta
    LIMIT = "limit"    # alpha = 1: exponential-tail limit


class PathwayDensityParams(_Checked, namedtuple(
        "PathwayDensityParams", "gamma_shape delta beta_shape a pathway_alpha")):
    """Parameters of the symmetric pathway density in one dimension."""

    __slots__ = ()

    def __new__(cls, gamma_shape: float, delta: float, beta_shape: float, a: float,
                pathway_alpha: float):
        self = super().__new__(cls, gamma_shape, delta, beta_shape, a, pathway_alpha)
        _check_finite(self)
        if not gamma_shape > 0.0:
            raise PreconditionError("gamma_shape must be positive")
        if not delta > 0.0:
            raise PreconditionError("delta must be positive")
        if not beta_shape >= 0.0:
            raise PreconditionError("beta_shape must be nonnegative")
        if not a > 0.0:
            raise PreconditionError("a must be positive")
        return self

    @property
    def regime(self) -> Regime:
        if self.pathway_alpha < 1.0:
            return Regime.SUB
        if self.pathway_alpha > 1.0:
            return Regime.SUPER
        return Regime.LIMIT

    @property
    def support_radius(self) -> float:
        """Finite-support edge in the SUB regime, +inf otherwise."""
        if self.regime is Regime.SUB:
            try:
                return (self.a * (1.0 - self.pathway_alpha)) ** (-1.0 / self.delta)
            except OverflowError:  # beyond the double range: every finite x is inside
                pass
        return math.inf


def _shape(dp: PathwayDensityParams):
    """(k, expo, nums, dens) of the regime: the density's base is
    1 - k|x|^delta (SUB) or 1 + k|x|^delta (SUPER), raised to expo or
    -expo, and the LIMIT tail is exp(-k|x|^delta) (expo 0); the
    normalizing constant is delta/2 k^(gamma/delta) times the gamma ratio
    prod Gamma(nums) / prod Gamma(dens)."""
    gd = dp.gamma_shape / dp.delta
    if dp.regime is Regime.LIMIT:
        return dp.a * dp.beta_shape, 0.0, (), (gd,)
    s = 1.0 - dp.pathway_alpha if dp.regime is Regime.SUB else dp.pathway_alpha - 1.0
    be = dp.beta_shape / s
    if dp.regime is Regime.SUB:
        return dp.a * s, be, (gd + be + 1.0,), (gd, be + 1.0)
    return dp.a * s, be, (be,), (gd, be - gd)


def pathway_norm_const(dp: PathwayDensityParams) -> float:
    """Normalizing constant of the pathway density (three branches), from
    its logs where k**(gamma/delta), a gamma or their product overflows."""
    gd = dp.gamma_shape / dp.delta
    k, be, nums, dens = _shape(dp)
    if dp.regime is Regime.SUPER and not be - gd > 0.0:
        raise PreconditionError(
            f"type-2 branch needs beta/(alpha-1) - gamma/delta > 0, "
            f"got {be - gd!r}")
    if dp.regime is Regime.LIMIT and not dp.beta_shape > 0.0:
        raise PreconditionError("the limit branch needs beta_shape > 0")
    try:
        c = 0.5 * dp.delta * k ** gd
        c = c / math.gamma(gd) if dp.regime is Regime.LIMIT else c * gamma_ratio(nums, dens)
    except OverflowError:
        c = math.inf
    return c if c < math.inf else math.exp(_ln_norm_const(dp)[0])


def _ln_norm_const(dp: PathwayDensityParams) -> tuple:
    """(log c, its half-width) of the normalizing constant c, summed from
    its log-gammas: every gamma argument is a sum of at most three of gd,
    expo and 1, each within 2u, and moves log Gamma by at most
    (|log a| + 1/a) per unit (the digamma bound for a > 0)."""
    gd = dp.gamma_shape / dp.delta
    k, expo, nums, dens = _shape(dp)
    lk = math.log(k) if k > 0.0 else -math.inf
    ln_cg = math.log(0.5 * dp.delta) + gd * lk
    rel_c = (2.0 * gd + abs(gd * lk) + 6.0) * _U
    moved = 4.0 * _U * (gd + expo + 1.0)
    args = nums + dens
    for i, a in enumerate(args):
        la = ln_gamma_signed(a).log_abs
        ln_cg += la if i < len(nums) else -la
        rel_c += ((2.0 * _LGAMMA_ULPS + len(args)) * _U * max(1.0, abs(la))
                  + (abs(math.log(a)) + 1.0 / a) * moved)
    return ln_cg, rel_c


_LN_TINY = math.log(math.ulp(0.0))  # a rounding in the subnormal range errs by ulp(0)


def _exp_up(v: float) -> float:
    return math.exp(v) if v < 709.0 else math.inf


def _expm1_up(v: float) -> float:
    return math.expm1(v) if v < 709.0 else math.inf


def _density(dp: PathwayDensityParams):
    """``density(x)``: the density at x, and ``density(x, True)``: (that
    value, a bound on its distance to the exact density of the double
    parameters in ``dp``).  The normalizing constant, the regime and its
    coefficients are computed once; the value alone is the harness's
    quadrature integrand, and the bound reads the route and intermediates
    the value took at x.

    The bound is a running rounding bound (Higham 2002, chs. 3-4).  Each
    factor of c |x|^(gamma-1) tail carries a log-space half-width: the norm
    constant's (the errors of its log-gammas, of their arguments and of
    k^(gamma/delta)), the powers' (one rounding plus the rounding of
    gamma-1 and of expo times the log of the base), and the base's, whose
    error 5u k|x|^delta is relative to 1 - k|x|^delta, so it grows without
    bound at the SUB support edge, amplified by expo.  A value that
    underflowed to zero, or that the SUB branch put outside the support
    while the true base may be positive, is bounded by the largest value
    the half-widths allow."""
    c = pathway_norm_const(dp)
    at_zero = c if dp.gamma_shape == 1.0 else (0.0 if dp.gamma_shape > 1.0 else math.inf)
    sub, limit = dp.regime is Regime.SUB, dp.regime is Regime.LIMIT
    delta, g1 = dp.delta, dp.gamma_shape - 1.0
    k, expo, _, _ = _shape(dp)
    power = expo if sub else -expo  # the base's exponent
    ln_c, lk = (math.log(v) if v > 0.0 else -math.inf for v in (c, k))
    # beyond log|x| = far_la, 200 or less where |x|**delta would overflow,
    # the SUPER and LIMIT densities are taken in logs; beyond |x| = pow_max,
    # |x|**delta would overflow, and the SUB density decides its support in logs
    la_max = 709.0 / delta  # |x|**delta is below exp(709) up to log|x| = la_max
    far_la, pow_max = min(200.0, la_max), math.exp(la_max) if la_max < 709.0 else math.inf
    ln_cg, rel_c = _ln_norm_const(dp)  # the bound's log c and its half-width
    zero_bound = at_zero * _expm1_up(rel_c) if rel_c < math.inf else math.inf  # not 0 * inf

    def density(x, bound=False):
        ax = abs(x)
        if ax == 0.0:
            return (at_zero, zero_bound) if bound else at_zero
        if sub:
            if ax > pow_max and lk + delta * math.log(ax) > 0.0:
                # k|x|^delta > 1, found in logs where |x|**delta overflows
                return (0.0, 0.0) if bound else 0.0
            t = k * ax ** delta
            base = 1.0 - t
            value = 0.0 if base <= 0.0 else c * ax ** g1 * base ** power
            if not bound:
                return value
            la, far, in_logs = math.log(ax), False, False
        else:
            # in the far tail, and wherever the tail is below the smallest
            # normal double, the value is taken in logs: the power prefactor and
            # the tail must not overflow, or round to zero, apart
            la = math.log(ax)
            in_logs = far = la > far_la
            if far:  # the +1 in the SUPER base is negligible
                lt = lk + delta * la  # log of k|x|^delta
                log_tail = -math.exp(min(lt, 709.0)) if limit else power * lt
            else:
                t = k * ax ** delta
                if limit:
                    tail = math.exp(-t)
                else:
                    base = 1.0 + t
                    tail = base ** power
                if not tail >= _TINY:
                    in_logs, log_tail = True, -t if limit else power * math.log(base)
            if in_logs:
                log_f = ln_c + g1 * la + log_tail
                value = math.exp(log_f) if log_f > -745.0 else 0.0
            else:
                value = c * ax ** g1 * tail
            if not bound:
                return value
        ln_v = ln_cg + g1 * la
        # the two products, and one rounding each of |x|^(gamma-1) and the tail
        up = down = rel_c + 6.0 * _U + _U * abs(g1 * la)
        if limit:
            t = math.exp(min(lk + delta * la, 700.0))  # k|x|^delta, capped to stay finite
            ln_v -= t
            # in the far tail the value takes t from an exp whose argument
            # errs by about u(|log k| + 2 delta log|x|)
            e_t = 4.0 * _U * t * (abs(lk) + delta * la + 2.0 if far else 1.0)
            up += e_t
            down += e_t
            ln_tail = t
        elif far:  # SUPER: the +1 dropped costs expo/(k|x|^delta)
            ln_v += power * lt
            up = down = rel_c + expo * _exp_up(-lt)
            ln_tail = expo * (abs(lk) + delta * la + 1.0)
        else:
            e_base = 5.0 * _U * t + _U * abs(base)  # bounds |base - exact base|
            if base + e_base <= 0.0:
                return value, 0.0  # outside the support for certain
            if base <= 0.0:
                return value, _exp_up(max(ln_v + expo * math.log(base + e_base) + up + 1.0,
                                          _LN_TINY))
            r, lb = e_base / base, math.log(base)  # at r >= 1 the exact SUB point may be outside
            rnd = 2.0 * _U * expo * abs(lb)
            grow, shrink = expo * math.log1p(r), (-expo * math.log1p(-r) if r < 1.0 else math.inf)
            ln_v += power * lb
            up += (grow if sub else shrink) + rnd
            down += (shrink if sub else grow) + rnd
            ln_tail = expo * lb
        if in_logs:
            # only the final exp rounds, but each term of the log sum errs by a
            # few u of its size; ln_tail bounds the tail's |log|
            w = 2.0 * _U + 6.0 * _U * (abs(ln_cg) + abs(g1 * la) + ln_tail)
            up += w
            down += w
        if value == 0.0:
            # underflow: bound the exact value itself; the factor e covers
            # the rounding of ln_v
            return value, _exp_up(max(ln_v + up + 1.0, _LN_TINY))
        # a factor f rounded in the subnormal range errs by ulp(0)/f relative;
        # the far SUPER tail rounds only its value
        ln_p = g1 * la
        lowest = ln_v if in_logs else min(ln_p, ln_cg + ln_p, ln_v - ln_cg - ln_p, ln_v)
        tiny = 4.0 * _exp_up(_LN_TINY - lowest)
        up += tiny
        down += -math.log1p(-tiny) if tiny < 1.0 else math.inf
        return value, abs(value) * max(_expm1_up(up), -math.expm1(-down))

    return density


def pathway_density(dp: PathwayDensityParams, x: float) -> float:
    """Density value at finite x; zero outside the SUB-regime support.

    The normalizing constant and the regime's coefficients are computed
    once per call here; code that evaluates one density at many points
    (``checks._density_norm``, and the CLI's ``eval`` and ``table``, which
    also take each value's bound from the same call) builds ``_density(dp)``
    once instead."""
    _check_density_x(x)
    return _density(dp)(x)


def _check_density_x(x: float):
    """Refuse a NaN or infinite x, which the ``_density`` closure, also the
    harness's quadrature integrand, does not check."""
    if not -math.inf < x < math.inf:
        raise DomainError(f"the density is defined for finite x, got x={x!r}")
