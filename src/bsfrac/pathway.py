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
from dataclasses import dataclass

from ._backend import kernels
from .errors import PreconditionError
from .gammacore import gamma_ratio
from .msm import ClosedFormImage, FunctionKind, _GammaTable, _kernel_image, _power_image
from .quadrature import tanh_sinh
from .series import TERM_CAP, SeriesEval


@dataclass(frozen=True)
class PathwayParams:
    """Operator parameters: scale a > 0, pathway_alpha < 1, and
    eta/(1-pathway_alpha) > -1 so the kernel stays integrable."""

    eta: float
    a: float
    pathway_alpha: float

    def __post_init__(self):
        if not self.a > 0.0:
            raise PreconditionError(f"scale a must be positive, got {self.a!r}")
        if not self.pathway_alpha < 1.0:
            raise PreconditionError(
                f"operator needs pathway_alpha < 1, got {self.pathway_alpha!r}")
        if not self.kernel_exponent > -1.0:
            raise PreconditionError(
                f"eta/(1-alpha) must exceed -1, got {self.kernel_exponent!r}")

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
    """Direct tanh-sinh quadrature of the pathway integral at x > 0."""
    if not x > 0.0:
        raise ValueError("the operator is defined for x > 0")
    sigma = kind.rho
    _table(params, sigma)  # the integral converges where the image exists
    upper = x / params.cut
    c = params.kernel_exponent
    p0 = sigma - 1.0
    lam, nu = kind.lam, kind.nu
    bs_series = kernels.bs_series if kind.family != "monomial" else None

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


@dataclass(frozen=True)
class PathwayDensityParams:
    """Parameters of the symmetric pathway density in one dimension."""

    gamma_shape: float
    delta: float
    beta_shape: float
    a: float
    pathway_alpha: float

    def __post_init__(self):
        if not self.gamma_shape > 0.0:
            raise PreconditionError("gamma_shape must be positive")
        if not self.delta > 0.0:
            raise PreconditionError("delta must be positive")
        if self.beta_shape < 0.0:
            raise PreconditionError("beta_shape must be nonnegative")
        if not self.a > 0.0:
            raise PreconditionError("a must be positive")

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
            return (self.a * (1.0 - self.pathway_alpha)) ** (-1.0 / self.delta)
        return math.inf


def pathway_norm_const(dp: PathwayDensityParams) -> float:
    """Normalizing constant of the pathway density (three branches)."""
    gd = dp.gamma_shape / dp.delta
    if dp.regime is Regime.SUB:
        be = dp.beta_shape / (1.0 - dp.pathway_alpha)
        coef = (dp.a * (1.0 - dp.pathway_alpha)) ** gd
        return 0.5 * dp.delta * coef * gamma_ratio((gd + be + 1.0,), (gd, be + 1.0))
    if dp.regime is Regime.SUPER:
        be = dp.beta_shape / (dp.pathway_alpha - 1.0)
        if not be - gd > 0.0:
            raise PreconditionError(
                f"type-2 branch needs beta/(alpha-1) - gamma/delta > 0, "
                f"got {be - gd!r}")
        coef = (dp.a * (dp.pathway_alpha - 1.0)) ** gd
        return 0.5 * dp.delta * coef * gamma_ratio((be,), (gd, be - gd))
    if not dp.beta_shape > 0.0:
        raise PreconditionError("the limit branch needs beta_shape > 0")
    return 0.5 * dp.delta * (dp.a * dp.beta_shape) ** gd / math.gamma(gd)


def _density(dp: PathwayDensityParams):
    """x -> the density at x, with the normalizing constant, the regime
    and its coefficients computed once."""
    c = pathway_norm_const(dp)
    at_zero = c if dp.gamma_shape == 1.0 else (0.0 if dp.gamma_shape > 1.0 else math.inf)
    regime, delta, g1 = dp.regime, dp.delta, dp.gamma_shape - 1.0
    if regime is Regime.SUB:
        k, expo = dp.a * (1.0 - dp.pathway_alpha), dp.beta_shape / (1.0 - dp.pathway_alpha)
    elif regime is Regime.SUPER:
        k, expo = dp.a * (dp.pathway_alpha - 1.0), dp.beta_shape / (dp.pathway_alpha - 1.0)
    else:
        rate = -dp.a * dp.beta_shape

    def density(x):
        ax = abs(x)
        if ax == 0.0:
            return at_zero
        if regime is Regime.SUB:
            base = 1.0 - k * ax ** delta
            if base <= 0.0:
                return 0.0
            return c * ax ** g1 * base ** expo
        la = math.log(ax)
        if regime is Regime.SUPER:
            if la > 200.0:
                # far tail: the +1 in the base is negligible; work in logs so
                # the power prefactor and the tail cannot overflow separately
                log_f = math.log(c) + g1 * la - expo * (math.log(k) + delta * la)
                return math.exp(log_f) if log_f > -745.0 else 0.0
            tail = (1.0 + k * ax ** delta) ** -expo
        else:
            if la > 200.0:
                return 0.0  # exponential tail underflows beyond any power prefactor
            tail = math.exp(rate * ax ** delta)
        if tail == 0.0:
            return 0.0
        return c * ax ** g1 * tail

    return density


def pathway_density(dp: PathwayDensityParams, x: float) -> float:
    """Density value at x; zero outside the SUB-regime support.

    The normalizing constant and the regime's coefficients are computed
    once per call here; code that evaluates one density at many points
    (``checks._density_norm``) builds ``_density(dp)`` once instead."""
    return _density(dp)(x)
