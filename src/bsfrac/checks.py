"""Verification harness: identity suites over parameter grids.

Each check compares an evaluation route against an independent oracle
(termwise power-image sums, direct quadrature, or elementary closed
forms) over a deterministic grid and reports the worst relative
deviation.  Checks flagged DOCUMENTED_MISMATCH additionally evaluate a
known variant (uncorrected) form of the same identity and pass only when
that variant demonstrably disagrees while the corrected route passes.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from typing import Callable

from . import __version__ as _version
from .errors import DomainError, UnknownSuiteError
from .gammacore import _HALF_LN_PI, POLE_TOL, gamma_ratio
from .msm import (
    FunctionKind,
    MsmParams,
    Side,
    _collapsed_gap,
    _gamma_args,
    _GammaTable,
    msm_bs_closed_form,
    msm_power_image,
    msm_quadrature,
)
from .pathway import (
    PathwayDensityParams,
    PathwayParams,
    Regime,
    _density,
    _table as _pathway_table,
    pathway_bs_closed_form,
    pathway_power_image,
    pathway_quadrature,
)
from .quadrature import exp_sinh, tanh_sinh
from .series import (
    TERM_CAP,
    bessel_first_kind,
    bessel_struve_kernel,
    check_limits,
    linspace,
    struve,
)
from .wright import WrightSpec, wright_delta, wright_eval

DEFAULT_TOLERANCES = {
    "kernel_exp": 1e-12,
    "kernel_relation": 1e-10,
    "lemma_quadrature": 1e-8,
    "degenerate": 1e-14,
    "theorem_series": 1e-10,
    "theorem_quadrature": 1e-7,
    "pathway_lemma": 1e-9,
    "pathway_series": 1e-10,
    "pathway_quadrature": 1e-8,
    "wright": 1e-12,
    "density_norm": 1e-6,
}

DEFAULT_GRIDS = {
    "kernel_grid": [-10.0, 10.0, 41],
    "relation_grid": [0.5, 20.0, 40],
    "msm_alpha": [0.0, 0.4],
    "msm_alpha_prime": [0.0, 0.2],
    "msm_beta": [0.0, 0.3],
    "msm_beta_prime": [0.2, 0.45],
    "msm_gamma": [0.9, 1.1, 1.5],
    "rho_left": [1.1, 1.5, 2.0],
    "rho_right": [-2.0, -1.5, -1.1],
    "nu": [-0.5, 0.0, 0.25, 0.5, 1.0],
    "lam": [0.5, 1.0],
    "x_left": [0.7, 1.3],
    "x_right": [1.0, 2.0],
    "theorem_params": [
        [0.3, 0.2, 0.1, 0.4, 1.1],
        [0.0, 0.0, 0.0, 0.0, 1.0],
        [0.4, 0.0, 0.3, 0.2, 0.9],
        [0.2, 0.1, 0.25, 0.05, 1.5],
        [0.5, 0.3, 0.2, 0.45, 1.3],
    ],
    "pathway_eta": [0.5, 1.3],
    "pathway_a": [0.6, 1.3],
    "pathway_alpha": [-0.5, 0.4, 0.8],
    "pathway_beta": [0.8, 1.6, 2.2],
    "pathway_sigma": [1.1, 1.6],
    "density_samples": 12,
    "density_seed": 2718,
}


@dataclass
class Config:
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    grids: dict = field(default_factory=lambda: dict(DEFAULT_GRIDS))
    term_cap: int = TERM_CAP

    @classmethod
    def load(cls, path: str | None = None, seed_grid: str | None = None) -> "Config":
        """The defaults, updated from JSON files; ValueError on a file that
        is not JSON, DomainError on one of the wrong shape, term cap or
        tolerance."""
        cfg = cls()
        if path is not None:
            with open(path) as fh:
                raw = _json_object(json.load(fh), "a config file")
            cfg.tolerances.update(_json_object(raw.get("tolerances", {}), "tolerances"))
            for key, tol in cfg.tolerances.items():
                # not a bool, which is an int, nor NaN or Infinity, which json reads
                if type(tol) not in (int, float) or not 0.0 < tol < math.inf:
                    raise DomainError(f"tolerance {key!r} must be a finite positive "
                                      f"number, got {tol!r}")
            cfg.grids.update(_json_object(raw.get("grids", {}), "grids"))
            cfg.term_cap = raw.get("term_cap", cfg.term_cap)
            check_limits(term_cap=cfg.term_cap)
        if seed_grid is not None:
            with open(seed_grid) as fh:
                cfg.grids.update(_json_object(json.load(fh), "a seed-grid file"))
        return cfg

    def echo(self) -> dict:
        return {"tolerances": dict(self.tolerances),
                "grids": dict(self.grids),
                "term_cap": self.term_cap}


def _json_object(value, what: str) -> dict:
    if isinstance(value, dict):
        return value
    raise DomainError(f"{what} must hold a JSON object, not {type(value).__name__}")


@dataclass(frozen=True)
class CheckSpec:
    """One verifiable identity: an evaluation route against an oracle."""

    id: str
    description: str
    tolerance_key: str
    runner: Callable[[Config, float], dict]
    expected: str = "PASS"


@dataclass(frozen=True)
class Report:
    suite: str
    version: str
    config: dict
    checks: tuple
    wall_ms: float

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "version": self.version,
            "config": self.config,
            "checks": [dict(c) for c in self.checks],
            "wall_ms": self.wall_ms,
        }

    def all_expected(self) -> bool:
        return all(c["status"] in ("PASS", "DOCUMENTED_MISMATCH")
                   for c in self.checks)


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def _dist_to_int(x: float) -> float:
    return abs(x - round(x))


def _track(state: dict, dev: float, point: dict):
    state["n_points"] += 1
    if dev > state["max_rel_dev"]:
        state["max_rel_dev"] = dev
        state["worst_point"] = point


def _new_state() -> dict:
    """Runner result: the record fields, tracked over a grid.

    Runners may add ``secondary`` (deviations of secondary routes keyed by
    their tolerance key) and ``printed_dev``/``printed_floor`` (the
    documented variant's deviation and the floor it must exceed).
    """
    return {"max_rel_dev": 0.0, "worst_point": {}, "n_points": 0}


# --- kernel identity checks -------------------------------------------------

def _kernel_check(grid_key: str, nu: float, want: Callable[[float], float]):
    """Runner comparing S_nu(u) with ``want(u)`` over a linspace grid."""
    def run(cfg: Config, tol: float) -> dict:
        lo, hi, n = cfg.grids[grid_key]
        st = _new_state()
        for u in linspace(lo, hi, int(n)):
            got = bessel_struve_kernel(nu, u).value
            _track(st, _rel(got, want(u)), {"u": u})
        return st

    return run


def _i_plus_l(nu: float, u: float) -> float:
    return (bessel_first_kind(nu, u, modified=True).value
            + struve(nu, u, modified=True).value)


def _run_r2(cfg: Config, tol: float) -> dict:
    run = _kernel_check("relation_grid", 1.0, lambda u: 2.0 * _i_plus_l(1.0, u) / u)
    st = run(cfg, tol)
    # the variant with the factor 2 only on the Bessel term
    u = 1.0
    s1 = bessel_struve_kernel(1.0, u).value
    variant = (2.0 * bessel_first_kind(1.0, u, modified=True).value
               + struve(1.0, u, modified=True).value) / u
    return {**st, "printed_dev": _rel(variant, s1), "printed_floor": 0.01}


# --- operator power-image checks --------------------------------------------

def _collapse_grid(cfg: Config, side: Side):
    """Operator parameters whose F3 kernel collapses to a 2F1 on ``side``:
    the first collapse parameter zero, then the second zero with the first
    nonzero.  Sets whose 2F1 gap lies within 0.1 of an integer are left
    out: the quadrature's connection formula has no value at an integer
    and loses accuracy next to one."""
    g = cfg.grids
    unprimed, primed = ("alpha", "beta"), ("alpha_prime", "beta_prime")
    free, (first, second) = (unprimed, primed) if side is Side.LEFT else (primed, unprimed)
    pts = []
    for zero, vary in ((first, second), (second, first)):
        for gamma, v, a, b in product(g["msm_gamma"], g["msm_" + vary],
                                      g["msm_" + free[0]], g["msm_" + free[1]]):
            if vary == first and v == 0.0:
                continue  # both zero: already in the first part
            params = MsmParams(**{"gamma": gamma, zero: 0.0, vary: v,
                                  free[0]: a, free[1]: b})
            gap = _collapsed_gap(side, params)
            if gap is None or _dist_to_int(gap) >= 0.1:
                pts.append(params)
    return pts


def _run_lemma(side: Side, cfg: Config, tol: float) -> dict:
    """Power image against quadrature over the collapse grid, plus the
    exact case: the integral of t over (0, 3) on the left, of t^(-2) over
    (2, infinity) on the right."""
    st = _new_state()
    rhos, xs = ((cfg.grids["rho_left"], cfg.grids["x_left"]) if side is Side.LEFT
                else (cfg.grids["rho_right"], cfg.grids["x_right"]))
    for params in _collapse_grid(cfg, side):
        for rho in rhos:
            img = msm_power_image(side, params, rho)
            for x in xs:
                got = img.value_at(x).value
                want = msm_quadrature(side, params, FunctionKind.monomial(rho),
                                      x, tol=tol / 20.0).value
                _track(st, _rel(got, want), {**vars(params), "rho": rho, "x": x})
    rho, x, exact = (2.0, 3.0, 4.5) if side is Side.LEFT else (-1.0, 2.0, 0.5)
    plain = MsmParams(0, 0, 0, 0, 1.0)
    img = msm_power_image(side, plain, rho)
    deg = _rel(img.value_at(x).value, exact)
    deg = max(deg, _rel(
        msm_quadrature(side, plain, FunctionKind.monomial(rho), x).value, exact))
    return {**st, "secondary": {"degenerate": deg}}


def _printed_right_ratio(p: MsmParams, rho: float) -> float:
    """The uncorrected right-side gamma ratio (second numerator lacks the
    order parameter; the second denominator carries a stray beta)."""
    return gamma_ratio(
        (1.0 - rho - p.gamma + p.alpha + p.alpha_prime,
         1.0 - rho + p.alpha + p.beta_prime,
         1.0 - rho - p.beta),
        (1.0 - rho,
         1.0 - rho + p.alpha + p.alpha_prime + p.beta + p.beta_prime - p.gamma,
         1.0 - rho + p.alpha - p.beta))


def _run_l2(cfg: Config, tol: float) -> dict:
    out = _run_lemma(Side.RIGHT, cfg, tol)
    # variant ratio against quadrature at a probe point where it differs
    probe = MsmParams(0.0, 0.2, 0.1, 0.4, 1.1)
    rho = -1.5
    x = 1.3
    want = msm_quadrature(Side.RIGHT, probe, FunctionKind.monomial(rho), x).value
    variant = (_printed_right_ratio(probe, rho)
               * x ** msm_power_image(Side.RIGHT, probe, rho).power_of_x)
    return {**out, "printed_dev": _rel(variant, want), "printed_floor": 1e-3}


# --- operator kernel-image theorems ------------------------------------------

def _kernel_coeff(nu: float, n: int) -> float:
    """n-th coefficient of S_nu(u) = sum c_n u**n, evaluated directly."""
    return gamma_ratio((nu + 1.0, 0.5 * (n + 1.0)), (0.5 * n + nu + 1.0,)) \
        / (math.sqrt(math.pi) * math.factorial(n))


def _kernel_coeffs(nu: float, n_terms: int = 60) -> list:
    """c_n for n < n_terms by the Pochhammer recurrence
    c_{n+2} = c_n / ((n+2)(n+2nu+2)) from c_0 and c_1; a coefficient whose
    predecessor has Gamma(n/2 + nu) within a pole's reach (<= POLE_TOL)
    is evaluated directly (``_kernel_coeff``)."""
    coeffs = []
    for n in range(n_terms):
        if n < 2 or 0.5 * n + nu <= POLE_TOL:  # Gamma(n/2 + nu) in c_{n-2}
            coeffs.append(_kernel_coeff(nu, n))
        else:
            coeffs.append(coeffs[n - 2] / (n * (n + 2.0 * nu)))
    return coeffs


def _term_products(nums, dens, coeffs: list) -> list:
    """The termwise oracle's terms without their powers: c_n * R_n.

    c_n are the kernel-series coefficients (``_kernel_coeffs``) and
    R_n = prod Gamma(a+n) / prod Gamma(b+n) over a in nums, b in dens is
    the gamma ratio of the power image of the n-th kernel term, run as
    the Pochhammer recurrence R_{n+1} = R_n prod(a+n) / prod(b+n) from
    R_0 evaluated directly.  A term whose predecessor has a gamma argument
    within a pole's reach (<= POLE_TOL) is evaluated directly as well, so
    numerator poles raise PoleError and reciprocal-gamma zeros stay
    confined to their own term, exactly as in a term-by-term evaluation.
    """
    lowest = min(nums + dens)
    ratio = gamma_ratio(nums, dens)
    products = [coeffs[0] * ratio]
    for n in range(1, len(coeffs)):
        k = n - 1
        if lowest + k <= POLE_TOL:
            ratio = gamma_ratio([a + n for a in nums], [b + n for b in dens])
        else:
            for a in nums:
                ratio *= a + k
            for b in dens:
                ratio /= b + k
        products.append(coeffs[n] * ratio)
    return products


def _termwise_sum(products: list, w: float) -> float:
    total = products[0]
    for n in range(1, len(products)):
        total += products[n] * w ** n
    return total


def _image_oracle():
    """A termwise image oracle for one check runner: the coefficients c_n
    of each nu, and the products c_n R_n and the constant factor of each
    (gamma table, nu), are built on first use and reused at every
    (lam, x) the runner asks for."""
    coeffs, built = {}, {}

    def image(t: _GammaTable, nu: float, lam: float, x: float) -> float:
        """Oracle for the image of the table's power times S_nu(lam t^(+-1)):
        the shifting arguments carry the kernel term n, the fixed ones and
        the divisor are a constant factor."""
        key = (t, nu)
        if key not in built:
            # no gamma_ratio call for an empty product
            fixed = gamma_ratio(t.fixed, ()) / t.divisor if t.fixed else None
            if nu not in coeffs:
                coeffs[nu] = _kernel_coeffs(nu)
            built[key] = fixed, _term_products(t.nums, t.dens, coeffs[nu])
        fixed, products = built[key]
        front = x ** t.power
        if fixed is not None:
            front = fixed * front
        return front * _termwise_sum(products, (lam / x if t.inverse else lam * x) / t.cut)

    return image


def _spec_store():
    """A check runner's own store of Wright specs: ``share(spec)`` is the
    first equal spec the runner shared, and ``share(img)`` is img with that
    spec, so that every image and spec of one series reads and fills one
    term table.  The store lives as long as the runner's call."""
    specs = {}

    def share(item):
        if isinstance(item, WrightSpec):
            return specs.setdefault(item, item)
        return replace(item, spec=specs.setdefault(item.spec, item.spec))

    return share


def _termwise_image(t: _GammaTable, nu: float, lam: float, x: float) -> float:
    """One call of a fresh ``_image_oracle``: nothing is kept."""
    return _image_oracle()(t, nu, lam, x)


def _theorem_grid(cfg: Config, side: Side):
    g = cfg.grids
    rhos = [1.2, 1.5] if side is Side.LEFT else [-2.0, -1.3]
    xs = g["x_left"] if side is Side.LEFT else g["x_right"]
    for raw in g["theorem_params"]:
        params = MsmParams(*raw)
        for nu in g["nu"]:
            for lam in g["lam"]:
                # the points whose kernel argument lam*x (lam/x) is within 2
                near = [x for x in xs if abs(lam * x if side is Side.LEFT else lam / x) <= 2.0]
                for rho in rhos if near else ():
                    yield params, nu, lam, rho, near


def _quad_dev(image, quadrature, probe, kinds, x: float, tol: float, share) -> float:
    """Worst deviation of the closed-form images of ``kinds`` at x, their
    specs shared through ``share``, from direct quadrature (run at tol/20)."""
    return max(0.0, *(_rel(share(image(probe, kind)).value_at(x).value,
                           quadrature(probe, kind, x, tol=tol / 20.0).value)
                      for kind in kinds))


def _run_theorem(side: Side, cfg: Config, tol: float) -> dict:
    st = _new_state()
    # each (params, nu, rho) serves every (lam, x), in the oracle and the
    # spec, and each image every x
    oracle, share = _image_oracle(), _spec_store()
    for params, nu, lam, rho, xs in _theorem_grid(cfg, side):
        img = share(msm_bs_closed_form(side, params, FunctionKind.bs_kernel(rho, nu, lam)))
        table = _gamma_args(side, params, rho)
        for x in xs:
            got = img.value_at(x, term_cap=cfg.term_cap).value
            want = oracle(table, nu, lam, x)
            _track(st, _rel(got, want),
                   {**vars(params), "nu": nu, "lam": lam, "rho": rho, "x": x})
    # quadrature cross-check in a collapse regime
    if side is Side.LEFT:
        probe = MsmParams(0.4, 0.0, 0.3, 0.2, 0.9)
        rho = 1.5
        x = 1.0
    else:
        probe = MsmParams(0.0, 0.2, 0.1, 0.4, 1.1)
        rho = -2.0
        x = 2.0
    kinds = [FunctionKind.bs_kernel(rho, nu, 0.5) for nu in (-0.5, 0.25, 1.0)]
    quad_dev = _quad_dev(partial(msm_bs_closed_form, side), partial(msm_quadrature, side),
                         probe, kinds, x, cfg.tolerances["theorem_quadrature"], share)
    return {**st, "secondary": {"theorem_quadrature": quad_dev}}


def _run_t2(cfg: Config, tol: float) -> dict:
    out = _run_theorem(Side.RIGHT, cfg, tol)
    # variant statement: order parameter missing from one numerator, stray
    # beta terms in the denominators, and the series argument lam*x
    p = MsmParams(0.3, 0.2, 0.1, 0.4, 1.1)
    rho, nu, lam, x = -2.0, 0.25, 0.5, 2.0
    spec = WrightSpec(
        upper=((0.5, 0.5), (1.0 - rho - p.gamma + p.alpha + p.alpha_prime, 1.0),
               (1.0 - rho + p.alpha + p.beta_prime, 1.0), (1.0 - rho - p.beta_prime, 1.0)),
        lower=((nu + 1.0, 0.5), (1.0 - rho, 1.0),
               (1.0 - rho + p.alpha + p.alpha_prime + p.beta + p.beta_prime - p.gamma, 1.0),
               (1.0 - rho + p.alpha + p.beta, 1.0)))
    pref = math.exp(math.lgamma(nu + 1.0) - _HALF_LN_PI)
    variant = (pref * x ** msm_power_image(Side.RIGHT, p, rho).power_of_x
               * wright_eval(spec, lam * x).value)
    want = _termwise_image(_gamma_args(Side.RIGHT, p, rho), nu, lam, x)
    out["printed_dev"] = _rel(variant, want)
    out["printed_floor"] = 1e-3
    return out


def _special_theorem_runner(family: str, nu: float, printed):
    def run(cfg: Config, tol: float) -> dict:
        st = _new_state()
        rho = 1.3
        delegation = 0.0
        oracle = _image_oracle()  # one nu: the coefficients c_n serve every set
        share = _spec_store()  # the special and the general image share a spec
        for raw in cfg.grids["theorem_params"]:
            params = MsmParams(*raw)
            img = share(msm_bs_closed_form(Side.LEFT, params, FunctionKind(family, rho)))
            got = img.value_at(1.0).value
            want = oracle(_gamma_args(Side.LEFT, params, rho), nu, 1.0, 1.0)
            _track(st, _rel(got, want), {**vars(params), "rho": rho})
            # the special kind must reproduce the general order-nu route exactly
            general = share(msm_bs_closed_form(Side.LEFT, params,
                                               FunctionKind.bs_kernel(rho, nu, 1.0)))
            if img != general:
                delegation = max(delegation, 1.0)
            a, b = img.value_at(1.4), general.value_at(1.4)
            delegation = max(delegation, 0.0 if a == b else _rel(a.value, b.value))
        out = {**st, "secondary": {"degenerate": delegation}}
        if printed is not None:
            # the variant at the last grid point, against that point's oracle
            out["printed_dev"] = _rel(printed(params, rho, 1.0), want)
            out["printed_floor"] = 1e-3
        return out

    return run


# The printed variants below differ from the corrected image only in the
# kernel's lower pair (nu+1, 1/2) and the front factor, so the operator's
# gamma arguments come from the corrected image (nu is replaced anyway).

def _printed_t4(p: MsmParams, rho: float, x: float) -> float:
    # lower first pair transposed to (1/2, 3/2); no 1/2 front factor
    img = msm_bs_closed_form(Side.LEFT, p, FunctionKind.bs_kernel(rho, 0.0))
    spec = WrightSpec(img.spec.upper, ((0.5, 1.5),) + img.spec.lower[1:])
    return x ** img.power_of_x * wright_eval(spec, x).value


def _printed_t5_t6(p: MsmParams, rho: float, x: float) -> float:
    # lower first pair printed as (1/2, 1) instead of (nu+1, 1/2)
    img = msm_bs_closed_form(Side.LEFT, p, FunctionKind.bs_kernel(rho, 0.0))
    spec = WrightSpec(img.spec.upper, ((0.5, 1.0),) + img.spec.lower[1:])
    return x ** img.power_of_x / math.sqrt(math.pi) * wright_eval(spec, x).value


# --- pathway checks -----------------------------------------------------------

def _pathway_grid(cfg: Config):
    g = cfg.grids
    for eta in g["pathway_eta"]:
        for a in g["pathway_a"]:
            for alpha in g["pathway_alpha"]:
                params = PathwayParams(eta, a, alpha)
                if _dist_to_int(params.kernel_exponent) < 0.05:
                    continue
                yield params


def _run_l3(cfg: Config, tol: float) -> dict:
    st = _new_state()
    for params in _pathway_grid(cfg):
        for beta in cfg.grids["pathway_beta"]:
            img = pathway_power_image(params, beta)
            for x in (1.0,):
                got = img.value_at(x).value
                want = pathway_quadrature(params, FunctionKind.monomial(beta), x,
                                          tol=tol / 20.0).value
                _track(st, _rel(got, want),
                       {"eta": params.eta, "a": params.a,
                        "alpha": params.pathway_alpha, "beta": beta, "x": x})
    # exact elementary case
    img = pathway_power_image(PathwayParams(1.0, 1.0, 0.0), 1.0)
    deg = 0.0 if img.prefactor == 0.5 and img.power_of_x == 2.0 else 1.0
    x = 1.7
    deg = max(deg, _rel(img.value_at(x).value, 0.5 * x * x))
    return {**st, "secondary": {"degenerate": deg}}


def _run_t7(cfg: Config, tol: float) -> dict:
    st = _new_state()
    oracle = _image_oracle()  # each (params, sigma, nu) serves every lam
    share = _spec_store()  # each (sigma, nu, kernel exponent) serves every set
    for params in _pathway_grid(cfg):
        for sigma in cfg.grids["pathway_sigma"]:
            for nu in (-0.5, 0.0, 0.25, 1.0):
                for lam in cfg.grids["lam"]:
                    x = 1.0
                    if abs(lam * x / params.cut) > 2.0:
                        continue
                    kind = FunctionKind.bs_kernel(sigma, nu, lam)
                    got = share(pathway_bs_closed_form(params, kind)).value_at(x).value
                    want = oracle(_pathway_table(params, sigma), nu, lam, x)
                    _track(st, _rel(got, want),
                           {"eta": params.eta, "a": params.a,
                            "alpha": params.pathway_alpha, "sigma": sigma,
                            "nu": nu, "lam": lam})
    probe = PathwayParams(0.7, 1.3, 0.4)
    quad_dev = _quad_dev(pathway_bs_closed_form, pathway_quadrature, probe,
                         [FunctionKind.bs_kernel(1.1, nu, 0.5) for nu in (-0.5, 0.25, 1.0)],
                         1.0, cfg.tolerances["pathway_quadrature"], share)
    # scale zero must reduce to the power image with a single series term
    kind = FunctionKind.bs_kernel(1.1, 0.25, 0.0)
    r = share(pathway_bs_closed_form(probe, kind)).value_at(1.4)
    reduction = _rel(r.value, pathway_power_image(probe, 1.1).value_at(1.4).value)
    reduction = max(reduction, 0.0 if r.terms_used == 1 else 1.0)
    return {**st, "secondary": {"pathway_quadrature": quad_dev, "degenerate": reduction}}


def _run_t8(cfg: Config, tol: float) -> dict:
    st = _new_state()
    oracle = _image_oracle()  # the coefficients c_n of nu = -1/2, 1/2 serve every set
    share = _spec_store()
    for params in _pathway_grid(cfg):
        for sigma in cfg.grids["pathway_sigma"]:
            x = 1.0
            kinds = (FunctionKind.exp_kernel(sigma), FunctionKind.expm1_over_t(sigma))
            got, got2 = (share(pathway_bs_closed_form(params, k)).value_at(x).value for k in kinds)
            # first exponential case: published form agrees with delegation
            c = params.kernel_exponent
            spec = share(WrightSpec(((sigma, 1.0),), ((1.0 + c + sigma, 1.0),)))
            pub = (x ** (params.eta + sigma) * math.exp(math.lgamma(1.0 + c))
                   / params.cut ** sigma * wright_eval(spec, x / params.cut).value)
            point = {"eta": params.eta, "a": params.a,
                     "alpha": params.pathway_alpha, "sigma": sigma}
            _track(st, _rel(got, pub), {**point, "case": 0.0})
            want = oracle(_pathway_table(params, sigma), -0.5, 1.0, x)
            _track(st, _rel(got, want), {**point, "case": 1.0})
            want2 = oracle(_pathway_table(params, sigma), 0.5, 1.0, x)
            _track(st, _rel(got2, want2), {**point, "case": 2.0})
    probe = PathwayParams(0.7, 1.3, 0.4)
    quad_dev = _quad_dev(pathway_bs_closed_form, pathway_quadrature, probe,
                         (FunctionKind.exp_kernel(1.2), FunctionKind.expm1_over_t(1.2)),
                         0.8, cfg.tolerances["pathway_quadrature"], share)
    # variant second case: lower pair printed as (1/2, 1/2) instead of (3/2, 1/2)
    sigma, x = 1.1, 1.0
    c = probe.kernel_exponent
    spec = WrightSpec(((0.5, 0.5), (sigma, 1.0)),
                      ((0.5, 0.5), (1.0 + c + sigma, 1.0)))
    variant = (x ** (probe.eta + sigma) * math.exp(math.lgamma(1.0 + c))
               / (2.0 * probe.cut ** sigma) * wright_eval(spec, x / probe.cut).value)
    want = oracle(_pathway_table(probe, sigma), 0.5, 1.0, x)
    return {**st, "secondary": {"pathway_quadrature": quad_dev},
            "printed_dev": _rel(variant, want), "printed_floor": 1e-3}


# --- wright engine check ------------------------------------------------------

def _run_w_delta(cfg: Config, tol: float) -> dict:
    st = _new_state()
    for raw in cfg.grids["theorem_params"]:
        params = MsmParams(*raw)
        for side, rho in ((Side.LEFT, 1.3), (Side.RIGHT, -2.0)):
            img = msm_bs_closed_form(side, params, FunctionKind.bs_kernel(rho, 0.25, 1.0))
            _track(st, abs(wright_delta(img.spec)),
                   {"side": 0.0 if side is Side.LEFT else 1.0, "rho": rho})
    for params in _pathway_grid(cfg):
        img = pathway_bs_closed_form(params, FunctionKind.bs_kernel(1.1, 0.25, 1.0))
        _track(st, abs(wright_delta(img.spec)), {"eta": params.eta})
    e_spec = WrightSpec(((1.0, 1.0),), ((1.0, 1.0),))
    _track(st, _rel(wright_eval(e_spec, 1.0).value, math.e), {"identity": 1.0})
    base_spec = WrightSpec(((0.5, 0.5), (1.2, 1.0)), ((1.25, 0.5), (1.9, 1.0)))
    base = wright_eval(base_spec, 1.4).value
    for c, slope in ((0.7, 0.5), (1.3, 1.0), (2.2, 2.0)):
        padded = WrightSpec(((c, slope),) + base_spec.upper,
                            ((c, slope),) + base_spec.lower)
        _track(st, _rel(wright_eval(padded, 1.4).value, base),
               {"pair_c": c, "pair_slope": slope})
    return st


# --- density normalization ------------------------------------------------------

def _density_norm(dp: PathwayDensityParams) -> float:
    density = _density(dp)
    if dp.regime is Regime.SUB:
        half = tanh_sinh(lambda t, da, db: density(t), 0.0, dp.support_radius, tol=1e-9)
    else:
        half = exp_sinh(lambda t, d: density(t), 0.0, 1.0, tol=1e-9)
    return 2.0 * half.value


def _run_density(cfg: Config, tol: float) -> dict:
    st = _new_state()
    named = [
        ("triangular", PathwayDensityParams(1.0, 1.0, 1.0, 1.0, 0.0)),
        ("cauchy", PathwayDensityParams(1.0, 2.0, 1.0, 1.0, 2.0)),
        ("normal", PathwayDensityParams(1.0, 2.0, 0.5, 1.0, 1.0)),
    ]
    for label, dp in named:
        total = _density_norm(dp)
        _track(st, abs(total - 1.0), {"case": label})
    rng = random.Random(int(cfg.grids["density_seed"]))
    n_rand = int(cfg.grids["density_samples"])
    for regime in ("sub", "super", "limit"):
        made = 0
        while made < n_rand:
            gamma_shape = rng.uniform(0.6, 2.4)
            delta = rng.uniform(0.6, 2.4)
            a = rng.uniform(0.5, 2.0)
            if regime == "sub":
                beta = rng.uniform(0.2, 2.0)
                alpha = rng.uniform(-1.0, 0.8)
            elif regime == "limit":
                beta = rng.uniform(0.5, 2.0)
                alpha = 1.0
            else:
                alpha = rng.uniform(1.2, 2.5)
                beta = rng.uniform(0.5, 3.0)
                if delta * beta / (alpha - 1.0) <= gamma_shape + 0.3:
                    continue  # demand tail decay margin
            dp = PathwayDensityParams(gamma_shape, delta, beta, a, alpha)
            total = _density_norm(dp)
            _track(st, abs(total - 1.0),
                   {"regime": regime, "gamma": gamma_shape, "delta": delta,
                    "beta": beta, "a": a, "alpha": alpha})
            made += 1
    return st


# --- suite assembly ------------------------------------------------------------

CHECKS = {
    "L1": CheckSpec(
        "L1", "left power image versus direct tanh-sinh quadrature "
        "(collapsed kernel), plus the exact plain-integration case",
        "lemma_quadrature", partial(_run_lemma, Side.LEFT)),
    "L2": CheckSpec(
        "L2", "right power image versus direct exp-sinh quadrature; the "
        "variant ratio with a misplaced order parameter is documented",
        "lemma_quadrature", _run_l2,
        expected="DOCUMENTED_MISMATCH"),
    "L3": CheckSpec(
        "L3", "pathway power image versus quadrature of the corrected "
        "kernel; the eta=1,a=1,alpha=0,beta=1 case is exactly x^2/2",
        "pathway_lemma", _run_l3),
    "T1": CheckSpec(
        "T1", "left kernel image (4Psi4) versus the 60-term termwise "
        "power-image oracle and collapse-regime quadrature",
        "theorem_series", partial(_run_theorem, Side.LEFT)),
    "T2": CheckSpec(
        "T2", "right kernel image versus termwise oracle and quadrature; "
        "the variant statement (stray order shifts, argument lam*x) "
        "is documented",
        "theorem_series", _run_t2,
        expected="DOCUMENTED_MISMATCH"),
    "T3": CheckSpec(
        "T3", "exponential integrand image reproduced by delegation at "
        "order -1/2 (the 3Psi3 reduction)",
        "theorem_series", _special_theorem_runner("exp", -0.5, None)),
    "T4": CheckSpec(
        "T4", "expm1-over-t integrand image by delegation at order 1/2; "
        "variant with transposed lower pair and dropped 1/2 factor "
        "is documented",
        "theorem_series", _special_theorem_runner("expm1_over_t", 0.5, _printed_t4),
        expected="DOCUMENTED_MISMATCH"),
    "T5": CheckSpec(
        "T5", "I0+L0 integrand image by delegation at order 0; variant "
        "lower pair (1/2,1) is documented",
        "theorem_series", _special_theorem_runner("i0_plus_l0", 0.0, _printed_t5_t6),
        expected="DOCUMENTED_MISMATCH"),
    "T6": CheckSpec(
        "T6", "2(I1+L1)/t integrand image by delegation at order 1; "
        "variant lower pair (1/2,1) is documented",
        "theorem_series",
        _special_theorem_runner("two_i1_plus_two_l1_over_t", 1.0, _printed_t5_t6),
        expected="DOCUMENTED_MISMATCH"),
    "T7": CheckSpec(
        "T7", "pathway kernel image (2Psi2) versus termwise oracle and "
        "quadrature; zero scale reduces exactly to the power image",
        "pathway_series", _run_t7),
    "T8": CheckSpec(
        "T8", "exponential pathway images versus termwise oracles; the "
        "variant lower pair (1/2,1/2) in the expm1 case is documented",
        "pathway_series", _run_t8,
        expected="DOCUMENTED_MISMATCH"),
    "e1": CheckSpec(
        "e1", "kernel at order -1/2 equals exp on [-10, 10]",
        "kernel_exp", _kernel_check("kernel_grid", -0.5, math.exp)),
    "e2": CheckSpec(
        "e2", "kernel at order 1/2 equals (exp(u)-1)/u on [-10, 10]",
        "kernel_exp",
        _kernel_check("kernel_grid", 0.5,
                      lambda u: 1.0 if u == 0.0 else math.expm1(u) / u)),
    "r1": CheckSpec(
        "r1", "kernel at order 0 equals I0 + L0 on (0, 20]",
        "kernel_relation", _kernel_check("relation_grid", 0.0, partial(_i_plus_l, 0.0))),
    "r2": CheckSpec(
        "r2", "kernel at order 1 equals 2(I1+L1)/u on (0, 20]; the "
        "variant (2I1+L1)/u misses by more than 1% at u=1",
        "kernel_relation", _run_r2,
        expected="DOCUMENTED_MISMATCH"),
    "W-delta": CheckSpec(
        "W-delta", "every generated series spec is balanced (delta 0), the "
        "unit 1Psi1 equals e, and matched pair insertion is neutral",
        "wright", _run_w_delta),
    "density-norm": CheckSpec(
        "density-norm", "pathway densities integrate to one in all three "
        "regimes (named cases plus random admissible draws)",
        "density_norm", _run_density),
}

SUITES = {
    "kernel-identities": ("e1", "e2", "r1", "r2"),
    "msm-lemmas": ("L1", "L2"),
    "msm-theorems": ("T1", "T2", "T3", "T4", "T5", "T6"),
    "pathway": ("L3", "T7", "T8"),
    "wright": ("W-delta",),
    "density": ("density-norm",),
    "all": tuple(CHECKS),
}


def _execute_check(spec: CheckSpec, cfg: Config, tol: float) -> dict:
    record = {"id": spec.id, "status": "ERROR", "max_rel_dev": math.inf,
              "worst_point": {}, "n_points": 0}
    try:
        out = spec.runner(cfg, tol)
    except Exception as exc:  # captured per record, never aborts the suite
        record["worst_point"] = {"error": f"{type(exc).__name__}: {exc}"}
        return record
    # secondary routes carry their own tolerances; any violation fails the check
    ok = out["max_rel_dev"] <= tol and not any(
        dev > cfg.tolerances[key] for key, dev in out.get("secondary", {}).items())
    record["max_rel_dev"] = out["max_rel_dev"]
    record["worst_point"] = out["worst_point"]
    record["n_points"] = out["n_points"]
    if spec.expected == "DOCUMENTED_MISMATCH":
        printed_ok = out.get("printed_dev", 0.0) > out.get("printed_floor", 0.0)
        record["status"] = "DOCUMENTED_MISMATCH" if (ok and printed_ok) else "FAIL"
        record["worst_point"] = dict(record["worst_point"])
        record["worst_point"]["printed_rel_dev"] = out.get("printed_dev", 0.0)
    else:
        record["status"] = "PASS" if ok else "FAIL"
    return record


def run_suite(suite: str, tolerance_override: float | None = None,
              config: Config | None = None) -> Report:
    """Execute a verification suite and build its report.

    Check errors are captured per record; the report is deterministic up
    to the wall-time field.
    """
    if suite not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    cfg = config if config is not None else Config()
    t0 = time.perf_counter()
    records = []
    for check_id in SUITES[suite]:
        spec = CHECKS[check_id]
        tol = tolerance_override if tolerance_override is not None \
            else cfg.tolerances[spec.tolerance_key]
        records.append(_execute_check(spec, cfg, tol))
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return Report(suite, _version, cfg.echo(), tuple(records), wall_ms)
