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
from functools import partial

from ._backend import kernels
from .errors import DomainError, PreconditionError
from .gammacore import _LGAMMA_ULPS, _U, gamma_ratio, ln_gamma_signed
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
    Raises DomainError, as ``bessel_struve_kernel`` does, for an order
    past its rounding limit, and OverflowError where the kernel at its
    largest argument lam*x/cut exceeds the double range."""
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


def _density_consts(dp: PathwayDensityParams) -> tuple:
    """The x-free constants of the density, in the order the kernels'
    ``density_point`` and ``density_row`` read them: the regime flags, the
    normalizing constant c, the value and bound at x = 0, the base's k,
    exponent and signed exponent, delta, gamma - 1, log c and log k, the
    log|x| beyond which the SUPER and LIMIT densities are taken in logs,
    the |x| beyond which |x|**delta would overflow, and the bound's log c
    and its half-width.

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
    delta = dp.delta
    k, expo, _, _ = _shape(dp)
    ln_c, lk = (math.log(v) if v > 0.0 else -math.inf for v in (c, k))
    # beyond log|x| = far_la, 200 or less where |x|**delta would overflow,
    # the SUPER and LIMIT densities are taken in logs; beyond |x| = pow_max,
    # |x|**delta would overflow, and the SUB density decides its support in logs
    la_max = 709.0 / delta  # |x|**delta is below exp(709) up to log|x| = la_max
    far_la, pow_max = min(200.0, la_max), math.exp(la_max) if la_max < 709.0 else math.inf
    ln_cg, rel_c = _ln_norm_const(dp)
    zero_bound = (at_zero * (math.expm1(rel_c) if rel_c < 709.0 else math.inf)
                  if rel_c < math.inf else math.inf)  # not 0 * inf
    sub = dp.regime is Regime.SUB
    return (sub, dp.regime is Regime.LIMIT, c, at_zero, zero_bound, k, expo,
            expo if sub else -expo, delta, dp.gamma_shape - 1.0, ln_c, lk, far_la, pow_max,
            ln_cg, rel_c)


def _density(dp: PathwayDensityParams):
    """``density(x)``: the density at x, and ``density(x, True)``: (that
    value, a bound on its distance to the exact density of the double
    parameters in ``dp``), the kernels' ``density_point`` at the constants
    of ``_density_consts``; the value alone is the harness's quadrature
    integrand.  x must be finite."""
    return partial(kernels.density_point, _density_consts(dp))


def _density_row(consts: tuple, xs, out: list) -> list:
    """The row of the density at ``consts`` (``_density_consts``), as the
    row forms of ``series`` are: one ``density_row`` kernel call, then the
    error of the point it did not finish, DomainError for a non-finite x
    and otherwise the OverflowError of its value."""
    i = kernels.density_row(consts, xs, out)
    if i < len(xs):
        _check_density_x(xs[i])
        kernels.density_point(consts, xs[i])  # raises its OverflowError
    return out


def pathway_density(dp: PathwayDensityParams, x: float) -> float:
    """Density value at finite x; zero outside the SUB-regime support.

    The x-free constants are computed once per call here; code that
    evaluates one density at many points (``checks._density_norm``, and
    the CLI's ``eval`` and ``table``, which also take each value's bound)
    computes ``_density_consts(dp)`` once instead."""
    _check_density_x(x)
    return kernels.density_point(_density_consts(dp), x)


def _check_density_x(x: float):
    """Refuse a NaN or infinite x, which ``density_point``, also the
    harness's quadrature integrand, does not check."""
    if not -math.inf < x < math.inf:
        raise DomainError(f"the density is defined for finite x, got x={x!r}")
