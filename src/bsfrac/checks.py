"""Verification harness: identity suites over parameter grids.

Each check is a row (``CheckSpec``) run by one loop (``_run_row``): over
a deterministic grid, an evaluation route (a kernel or an image) against
an independent reference (termwise power-image sums, direct quadrature,
or elementary or published closed forms), reporting the worst relative
deviation.  Checks flagged DOCUMENTED_MISMATCH additionally evaluate a
known variant (uncorrected) form of the same identity and pass only when
that variant demonstrably disagrees while the corrected route passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import product
from typing import Callable, Iterable

from . import __version__ as _version
from .errors import DomainError, TermCapError, UnknownSuiteError
from .gammacore import _HALF_LN_PI, POLE_TOL, gamma_ratio
from .msm import (
    FunctionKind,
    MsmParams,
    Side,
    _collapsed,
    _collapsed_gap,
    _gamma_args,
    _GammaTable,
    _kernel_at,
    _kernel_image,
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

    def __post_init__(self):
        """Refuse an unknown tolerance or grid key (a misspelled key would
        be ignored), a bad tolerance or term cap, a density sample count
        that is not an int >= 0 and a density seed that is not an int (a
        bool is neither), however the config is built."""
        _check_keys(self.tolerances, DEFAULT_TOLERANCES, "tolerance")
        for key, tol in self.tolerances.items():
            _check_tolerance(f"tolerance {key!r}", tol)
        _check_keys(self.grids, DEFAULT_GRIDS, "grid")
        check_limits(term_cap=self.term_cap)
        samples, seed = self.grids["density_samples"], self.grids["density_seed"]
        if isinstance(samples, bool) or not isinstance(samples, int) or samples < 0:
            raise DomainError(f"grid 'density_samples' must be an int >= 0, got {samples!r}")
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise DomainError(f"grid 'density_seed' must be an int, got {seed!r}")

    @classmethod
    def load(cls, path: str | None = None, seed_grid: str | None = None) -> "Config":
        """The defaults, updated from JSON files; ValueError on a file that
        is not JSON, DomainError on one of the wrong shape or with an
        unknown top-level key, and whatever ``__post_init__`` refuses."""
        tolerances, grids, term_cap = dict(DEFAULT_TOLERANCES), dict(DEFAULT_GRIDS), TERM_CAP
        if path is not None:
            with open(path) as fh:
                raw = _json_object(json.load(fh), "a config file")
            _check_keys(raw, ("tolerances", "grids", "term_cap"), "config")
            tolerances.update(_json_object(raw.get("tolerances", {}), "tolerances"))
            grids.update(_json_object(raw.get("grids", {}), "grids"))
            term_cap = raw.get("term_cap", term_cap)
        if seed_grid is not None:
            with open(seed_grid) as fh:
                grids.update(_json_object(json.load(fh), "a seed-grid file"))
        return cls(tolerances, grids, term_cap)

    def echo(self) -> dict:
        return {"tolerances": dict(self.tolerances),
                "grids": dict(self.grids),
                "term_cap": self.term_cap}


def _check_tolerance(what: str, tol):
    """Refuse a tolerance that is not a finite positive number: not a bool,
    which is an int, nor NaN or Infinity, which json reads."""
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0.0 < tol < math.inf:
        raise DomainError(f"{what} must be a finite positive number, got {tol!r}")


def _json_object(value, what: str) -> dict:
    if isinstance(value, dict):
        return value
    raise DomainError(f"{what} must hold a JSON object, not {type(value).__name__}")


def _check_keys(given: dict, known, what: str):
    for key in given:
        if key not in known:
            raise DomainError(f"unknown {what} key {key!r}; known keys: {', '.join(known)}")


@dataclass(frozen=True)
class CheckSpec:
    """One verifiable identity, as a row of the harness.

    ``points(run)`` yields, for each point, a candidate value (a kernel or
    an image), a reference value (the oracle, quadrature or a published
    form) and the point's coordinates: a dict, or a pair of tuples (names,
    values) that ``_worst`` makes a dict of only where the point is the
    row's worst so far.  ``secondary`` maps a tolerance key
    to the points of a secondary route.  A row with a documented variant
    expects DOCUMENTED_MISMATCH: ``printed(run)`` is the variant's value
    and its reference, which must differ by more than ``printed_floor``.
    ``runner`` runs the row through the harness's one loop, ``_run_row``.
    """

    id: str
    description: str
    tolerance_key: str
    points: Callable[["_Run"], Iterable[tuple]]
    secondary: dict = field(default_factory=dict)
    printed: Callable[["_Run"], tuple] | None = None
    printed_floor: float = 1e-3
    runner: Callable[[Config, float], dict] | None = None

    def __post_init__(self):
        if self.runner is None:
            object.__setattr__(self, "runner", partial(_run_row, self))


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

    def to_csv(self) -> str:
        """One row per check, the worst point as ``key=value`` cells joined
        by "|"; every float as "%.17g".  Cells may need quoting, so rows go
        through ``csv.writer``."""
        def fmt(v):
            return "%.17g" % v if isinstance(v, float) else str(v)

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "status", "max_rel_dev", "n_points", "worst_point"])
        for c in self.checks:
            worst = "|".join(f"{k}={fmt(v)}" for k, v in c["worst_point"].items())
            writer.writerow([fmt(v) for v in (c["id"], c["status"], c["max_rel_dev"],
                                              c["n_points"], worst)])
        return buf.getvalue().rstrip("\n")


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


class _Run:
    """One run of a row: its config and tolerance, the termwise oracle its
    points share, made at first use, and its store of Wright specs."""

    def __init__(self, cfg: Config, tol: float):
        self.cfg, self.tol, self._specs = cfg, tol, {}

    @cached_property
    def oracle(self):
        return _image_oracle()

    def share(self, item):
        """``share(spec)`` is the first equal spec the run shared, and
        ``share(img)`` is img with that spec, so that every image and spec
        of one series reads and fills one term table.  The series rows
        build one image per series and take each lam from it, so the store
        joins what only the parameters share: the probe images, the special
        and general kinds, and the specs of several parameter sets."""
        if isinstance(item, WrightSpec):
            return self._specs.setdefault(item, item)
        spec = self._specs.setdefault(item.spec, item.spec)
        return item if spec is item.spec else item._replace(spec=spec)


def _coords(point):
    """A point's coordinates as ``_worst`` reports them: the dict of a
    (names, values) pair; a dict, or None, as it is."""
    if isinstance(point, tuple):
        names, values = point
        return dict(zip(names, values))
    return point


def _worst(points) -> tuple:
    """The worst deviation over (candidate, reference, coordinates)
    points, the coordinates of its point and the number of points.  A
    point without a reference (None) is a deviation from zero already, and
    a NaN deviation counts as inf, as in an ERROR record.  A coordinate
    dict is made only for a point that becomes the worst so far."""
    worst, where, n = 0.0, {}, 0
    for got, want, point in points:
        dev = abs(got) if want is None else _rel(got, want)
        if math.isnan(dev):
            dev = math.inf
        n += 1
        if dev > worst:
            worst, where = dev, _coords(point)
    return worst, where, n


def _run_row(spec: CheckSpec, cfg: Config, tol: float) -> dict:
    """The row's record.  It holds when its points are within ``tol``,
    each secondary route is within its own tolerance and a documented
    variant misses by more than ``printed_floor``; a grid that leaves no
    point fails.  Every route runs, so that a later one can still raise."""
    run = _Run(cfg, tol)
    dev, where, n = _worst(spec.points(run))
    ok, status = n > 0 and dev <= tol, "PASS"
    for key, points in spec.secondary.items():
        ok = _worst(points(run))[0] <= cfg.tolerances[key] and ok
    if spec.printed is not None:
        printed = _rel(*spec.printed(run))
        ok, status = ok and printed > spec.printed_floor, "DOCUMENTED_MISMATCH"
        where = {**where, "printed_rel_dev": printed}
    return {"id": spec.id, "status": status if ok else "FAIL", "max_rel_dev": dev,
            "worst_point": where, "n_points": n}


# --- kernel identity checks -------------------------------------------------

def _kernel_points(grid_key: str, nu: float, want: Callable[[float], float], run: _Run):
    """S_nu(u) against ``want(u)`` over a linspace grid."""
    lo, hi, n = run.cfg.grids[grid_key]
    for u in linspace(lo, hi, int(n)):
        yield bessel_struve_kernel(nu, u).value, want(u), (("u",), (u,))


def _i_plus_l(nu: float, u: float) -> float:
    return (bessel_first_kind(nu, u, modified=True).value
            + struve(nu, u, modified=True).value)


def _printed_r2(run: _Run) -> tuple:
    """The variant with the factor 2 only on the Bessel term, at u = 1."""
    u = 1.0
    s1 = bessel_struve_kernel(1.0, u).value
    return (2.0 * bessel_first_kind(1.0, u, modified=True).value
            + struve(1.0, u, modified=True).value) / u, s1


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
            if gap is None or abs(gap - round(gap)) >= 0.1:
                pts.append(params)
    return pts


def _lemma_points(side: Side, run: _Run):
    """L1, L2: the power image against quadrature over the collapse grid.

    Each distinct integral (``_collapsed``) is computed once: those of
    one 2F1 together, so that the pure 2F1 slot keeps its values over
    every x, and x by x among them, so that consecutive integrals share
    their interval's scaled nodes.  The points then come in grid order."""
    rhos, xs = ((run.cfg.grids["rho_left"], run.cfg.grids["x_left"]) if side is Side.LEFT
                else (run.cfg.grids["rho_right"], run.cfg.grids["x_right"]))
    points = [(params, rho, msm_power_image(side, params, rho), _collapsed(side, params, rho))
              for params in _collapse_grid(run.cfg, side) for rho in rhos]
    groups = {}  # 2F1 (a, b, c) -> distinct integral -> a point of it
    for params, rho, _, key in points:
        groups.setdefault(key.hyp, {}).setdefault(key, (params, rho))
    integrals, monomial = {}, cache(FunctionKind.monomial)  # one integrand an exponent
    for group, x in product(groups.values(), xs):
        for key, (params, rho) in group.items():
            integrals[key, x] = msm_quadrature(side, params, monomial(rho),
                                               x, tol=run.tol / 20.0).value
    names = MsmParams._fields + ("rho", "x")
    for (params, rho, img, key), x in product(points, xs):
        yield img.value_at(x).value, integrals[key, x], (names, params + (rho, x))


def _lemma_exact(side: Side, run: _Run):
    """The exact case, by the image and by quadrature: the integral of t
    over (0, 3) on the left, of t^(-2) over (2, infinity) on the right."""
    rho, x, exact = (2.0, 3.0, 4.5) if side is Side.LEFT else (-1.0, 2.0, 0.5)
    plain = MsmParams(0, 0, 0, 0, 1.0)
    yield msm_power_image(side, plain, rho).value_at(x).value, exact, None
    yield msm_quadrature(side, plain, FunctionKind.monomial(rho), x).value, exact, None


def _printed_l2(run: _Run) -> tuple:
    """The variant ratio, whose second numerator lacks the order parameter
    and whose second denominator carries a stray beta, against quadrature
    at a probe point where it differs."""
    p = MsmParams(0.0, 0.2, 0.1, 0.4, 1.1)
    rho, x = -1.5, 1.3
    want = msm_quadrature(Side.RIGHT, p, FunctionKind.monomial(rho), x).value
    ratio = gamma_ratio(
        (1.0 - rho - p.gamma + p.alpha + p.alpha_prime,
         1.0 - rho + p.alpha + p.beta_prime,
         1.0 - rho - p.beta),
        (1.0 - rho,
         1.0 - rho + p.alpha + p.alpha_prime + p.beta + p.beta_prime - p.gamma,
         1.0 - rho + p.alpha - p.beta))
    return ratio * x ** msm_power_image(Side.RIGHT, p, rho).power_of_x, want


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


def _term_ratios(nums, dens, n_terms: int) -> list:
    """The gamma ratios R_n = prod Gamma(a+n) / prod Gamma(b+n) over a in
    nums, b in dens, for n < n_terms: the power image's ratio of the n-th
    kernel-series term, without the kernel coefficient.

    They run as the Pochhammer recurrence R_{n+1} = R_n prod(a+n) /
    prod(b+n) from R_0 evaluated directly.  A term whose predecessor has
    a gamma argument within a pole's reach (<= POLE_TOL) is evaluated
    directly as well, so numerator poles raise PoleError and
    reciprocal-gamma zeros stay confined to their own term, exactly as in
    a term-by-term evaluation.
    """
    lowest = min(nums + dens)
    ratio = gamma_ratio(nums, dens)
    ratios = [ratio]
    for n in range(1, n_terms):
        k = n - 1
        if lowest + k <= POLE_TOL:
            ratio = gamma_ratio([a + n for a in nums], [b + n for b in dens])
        else:
            for a in nums:
                ratio *= a + k
            for b in dens:
                ratio /= b + k
        ratios.append(ratio)
    return ratios


def _powers(w: float, n_terms: int) -> list:
    """w ** n for n < n_terms, the powers of a termwise sum at argument w."""
    return [w ** n for n in range(n_terms)]


def _termwise_sum(products: list, powers: list) -> float:
    total = products[0]
    for n in range(1, len(products)):
        total += products[n] * powers[n]
    return total


def _image_oracle():
    """A termwise image oracle for one check run: the coefficients c_n
    of each nu, the ratios R_n of each gamma table's arguments, the
    products c_n R_n and the constant factor of each (gamma table, nu),
    and the powers w ** n of each argument w, are built on first use and
    reused wherever the run asks for them again."""
    coeffs, ratios, built, powers = {}, {}, {}, {}

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
            c = coeffs[nu]
            if t not in ratios:
                ratios[t] = _term_ratios(t.nums, t.dens, len(c))
            built[key] = fixed, [cn * rn for cn, rn in zip(c, ratios[t])]
        fixed, products = built[key]
        front = x ** t.power
        if fixed is not None:
            front = fixed * front
        w = (lam / x if t.inverse else lam * x) / t.cut
        if w not in powers:
            powers[w] = _powers(w, len(products))
        terms = powers[w]
        total = _termwise_sum(products, terms)
        # the sum stops at a fixed term count: refused where its last two
        # terms (one may be a reciprocal-gamma zero) still reach the last bit
        if max(abs(products[-1] * terms[-1]), abs(products[-2] * terms[-2])) \
                > 2.0 ** -53 * abs(total):
            raise TermCapError(f"termwise oracle at w={w!r} has not converged "
                               f"in {len(products)} terms")
        return front * total

    return image


def _series_points(grid, run: _Run):
    """T1-T7: the kernel image at each point (gamma table, kind, lam, x,
    coordinates) of ``grid(cfg)`` against the oracle of the kind's order.
    Each series (table, order) has its image built once, from the table,
    and each of its lams one image, by its argument scale (``_kernel_at``)."""
    series, images, oracle, cap = {}, {}, run.oracle, run.cfg.term_cap
    for table, kind, lam, x, point in grid(run.cfg):
        nu = kind.nu
        img = images.get((table, nu, lam))
        if img is None:
            first = series.get((table, nu))
            if first is None:
                first = series[table, nu] = run.share(_kernel_image(table, kind))
            img = images[table, nu, lam] = _kernel_at(table, first.prefactor, first.spec, lam)
        yield img.value_at(x, term_cap=cap).value, oracle(table, nu, lam, x), point


def _theorem_grid(side: Side, cfg: Config):
    """T1, T2: every (params, nu, lam, rho, x).  Each kind, and each
    parameter set's gamma table at each rho, is built once."""
    g = cfg.grids
    rhos = [1.2, 1.5] if side is Side.LEFT else [-2.0, -1.3]
    xs = g["x_left"] if side is Side.LEFT else g["x_right"]
    kinds = {(rho, nu): FunctionKind.bs_kernel(rho, nu) for rho, nu in product(rhos, g["nu"])}
    names = MsmParams._fields + ("nu", "lam", "rho", "x")
    for raw in g["theorem_params"]:
        params = MsmParams(*raw)
        tables = [(rho, _gamma_args(side, params, rho)) for rho in rhos]
        for nu, lam in product(g["nu"], g["lam"]):
            for (rho, table), x in product(tables, xs):
                yield table, kinds[rho, nu], lam, x, (names, params + (nu, lam, rho, x))


def _special_grid(family: str, cfg: Config):
    """T3-T6: the special kind's image at x = 1 over the theorem sets."""
    kind = FunctionKind(family, 1.3)
    names = MsmParams._fields + ("rho",)
    for raw in cfg.grids["theorem_params"]:
        params = MsmParams(*raw)
        yield (_gamma_args(Side.LEFT, params, kind.rho), kind, 1.0, 1.0,
               (names, params + (kind.rho,)))


def _quad_points(side: Side | None, probe, kinds, x: float, run: _Run):
    """T1, T2, T7, T8: the closed-form images of ``kinds`` at x, their specs
    shared through the run's store, against direct quadrature at the
    route's tolerance / 20; ``side`` None is the pathway route."""
    if side is None:
        image, quadrature = pathway_bs_closed_form, pathway_quadrature
        tol = run.cfg.tolerances["pathway_quadrature"]
    else:
        image, quadrature = partial(msm_bs_closed_form, side), partial(msm_quadrature, side)
        tol = run.cfg.tolerances["theorem_quadrature"]
    for kind in kinds:
        yield (run.share(image(probe, kind)).value_at(x).value,
               quadrature(probe, kind, x, tol=tol / 20.0).value, None)


def _printed_t2(run: _Run) -> tuple:
    """The variant statement: order parameter missing from one numerator,
    stray beta terms in the denominators, and the series argument lam*x."""
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
    return variant, run.oracle(_gamma_args(Side.RIGHT, p, rho), nu, lam, x)


def _delegation(family: str, run: _Run):
    """T3-T6: the special kind must reproduce the general order-nu route
    exactly, image and value."""
    special = FunctionKind(family, 1.3)
    for raw in run.cfg.grids["theorem_params"]:
        img, general = (run.share(msm_bs_closed_form(Side.LEFT, MsmParams(*raw), kind))
                        for kind in (special, FunctionKind.bs_kernel(1.3, special.nu)))
        yield float(img != general), None, None
        yield img.value_at(1.4).value, general.value_at(1.4).value, None


def _printed_special(nu: float, lower: tuple, divisor: float, run: _Run) -> tuple:
    """T4-T6: the variant at the last theorem set, at x = 1, against that
    set's oracle.  It differs from the corrected image only in the
    kernel's lower pair (nu+1, 1/2), printed as ``lower``, and the front
    factor, printed as 1/divisor, so the operator's gamma arguments come
    from the corrected image (nu is replaced anyway)."""
    p, rho, x = MsmParams(*run.cfg.grids["theorem_params"][-1]), 1.3, 1.0
    img = msm_bs_closed_form(Side.LEFT, p, FunctionKind.bs_kernel(rho, 0.0))
    spec = WrightSpec(img.spec.upper, (lower,) + img.spec.lower[1:])
    return (x ** img.power_of_x / divisor * wright_eval(spec, x).value,
            run.oracle(_gamma_args(Side.LEFT, p, rho), nu, 1.0, x))


# --- pathway checks -----------------------------------------------------------

# the pathway parameters of T7's and T8's probes: quadrature, zero scale and
# the documented variant
_PATHWAY_PROBE = PathwayParams(0.7, 1.3, 0.4)


def _pathway_grid(cfg: Config):
    g = cfg.grids
    for eta, a, alpha in product(g["pathway_eta"], g["pathway_a"], g["pathway_alpha"]):
        yield PathwayParams(eta, a, alpha)


def _l3_points(run: _Run):
    """L3: the power image against quadrature at x = 1."""
    x, monomial = 1.0, cache(FunctionKind.monomial)  # one integrand an exponent
    for params, beta in product(_pathway_grid(run.cfg), run.cfg.grids["pathway_beta"]):
        got = pathway_power_image(params, beta).value_at(x).value
        want = pathway_quadrature(params, monomial(beta), x, tol=run.tol / 20.0).value
        yield got, want, (("eta", "a", "alpha", "beta", "x"), params + (beta, x))


def _l3_exact(run: _Run):
    """The exact elementary case: the image is exactly x^2/2."""
    img = pathway_power_image(PathwayParams(1.0, 1.0, 0.0), 1.0)
    yield float(img.prefactor != 0.5 or img.power_of_x != 2.0), None, None
    x = 1.7
    yield img.value_at(x).value, 0.5 * x * x, None


def _t7_grid(cfg: Config):
    """T7: every (params, sigma, nu, lam) at x = 1, whose kernel argument
    lam/cut reaches 8.3 on the default grids; each (params, sigma) gamma
    table is built once."""
    x, nus = 1.0, (-0.5, 0.0, 0.25, 1.0)
    sigmas = cfg.grids["pathway_sigma"]
    kinds = {(sigma, nu): FunctionKind.bs_kernel(sigma, nu) for sigma, nu in product(sigmas, nus)}
    for params, sigma in product(_pathway_grid(cfg), sigmas):
        table = _pathway_table(params, sigma)
        for nu, lam in product(nus, cfg.grids["lam"]):
            yield (table, kinds[sigma, nu], lam, x,
                   (("eta", "a", "alpha", "sigma", "nu", "lam"), params + (sigma, nu, lam)))


def _t7_reduction(run: _Run):
    """Scale zero must reduce to the power image with a single series term."""
    img = run.share(pathway_bs_closed_form(_PATHWAY_PROBE, FunctionKind.bs_kernel(1.1, 0.25, 0.0)))
    r = img.value_at(1.4)
    yield r.value, pathway_power_image(_PATHWAY_PROBE, 1.1).value_at(1.4).value, None
    yield float(r.terms_used != 1), None, None


def _published_t8(spec: WrightSpec, params: PathwayParams, sigma: float, x: float) -> float:
    """T8's published first-case form with ``spec`` as its Wright function:
    x^(eta+sigma) Gamma(1+c) / cut^sigma Psi(x/cut), c the kernel exponent."""
    return (x ** (params.eta + sigma) * math.exp(math.lgamma(1.0 + params.kernel_exponent))
            / params.cut ** sigma * wright_eval(spec, x / params.cut).value)


def _t8_points(run: _Run):
    """T8: the exponential images against the published first case and
    against the oracle at orders -1/2 and 1/2."""
    x = 1.0
    for params, sigma in product(_pathway_grid(run.cfg), run.cfg.grids["pathway_sigma"]):
        table = _pathway_table(params, sigma)
        got, got2 = (run.share(_kernel_image(table, kind(sigma))).value_at(x).value
                     for kind in (FunctionKind.exp_kernel, FunctionKind.expm1_over_t))
        c = params.kernel_exponent
        spec = run.share(WrightSpec(((sigma, 1.0),), ((1.0 + c + sigma, 1.0),)))
        names = ("eta", "a", "alpha", "sigma", "case")
        yield got, _published_t8(spec, params, sigma, x), (names, params + (sigma, 0.0))
        yield got, run.oracle(table, -0.5, 1.0, x), (names, params + (sigma, 1.0))
        yield got2, run.oracle(table, 0.5, 1.0, x), (names, params + (sigma, 2.0))


def _printed_t8(run: _Run) -> tuple:
    """The variant second case: the first case's form at half the scale,
    with the lower pair printed as (1/2, 1/2) instead of (3/2, 1/2)."""
    p, sigma, x = _PATHWAY_PROBE, 1.1, 1.0
    spec = WrightSpec(((0.5, 0.5), (sigma, 1.0)),
                      ((0.5, 0.5), (1.0 + p.kernel_exponent + sigma, 1.0)))
    return (0.5 * _published_t8(spec, p, sigma, x),
            run.oracle(_pathway_table(p, sigma), 0.5, 1.0, x))


# --- wright engine check ------------------------------------------------------

def _w_delta_points(run: _Run):
    """Each generated series spec's delta (balanced: 0), the unit 1Psi1
    against e, and specs padded by a matched pair against the unpadded."""
    for raw, (side, rho) in product(run.cfg.grids["theorem_params"],
                                    ((Side.LEFT, 1.3), (Side.RIGHT, -2.0))):
        img = msm_bs_closed_form(side, MsmParams(*raw), FunctionKind.bs_kernel(rho, 0.25, 1.0))
        yield wright_delta(img.spec), None, {"side": 0.0 if side is Side.LEFT else 1.0, "rho": rho}
    for params in _pathway_grid(run.cfg):
        img = pathway_bs_closed_form(params, FunctionKind.bs_kernel(1.1, 0.25, 1.0))
        yield wright_delta(img.spec), None, {"eta": params.eta}
    e_spec = WrightSpec(((1.0, 1.0),), ((1.0, 1.0),))
    yield wright_eval(e_spec, 1.0).value, math.e, {"identity": 1.0}
    base_spec = WrightSpec(((0.5, 0.5), (1.2, 1.0)), ((1.25, 0.5), (1.9, 1.0)))
    base = wright_eval(base_spec, 1.4).value
    for c, slope in ((0.7, 0.5), (1.3, 1.0), (2.2, 2.0)):
        padded = WrightSpec(((c, slope),) + base_spec.upper,
                            ((c, slope),) + base_spec.lower)
        yield wright_eval(padded, 1.4).value, base, {"pair_c": c, "pair_slope": slope}


# --- density normalization ------------------------------------------------------

def _density_norm(dp: PathwayDensityParams) -> float:
    density = _density(dp)
    if dp.regime is Regime.SUB:
        half = tanh_sinh(lambda t, da, db: density(t), 0.0, dp.support_radius, tol=1e-9)
    else:
        half = exp_sinh(lambda t, d: density(t), 0.0, 1.0, tol=1e-9)
    return 2.0 * half.value


def _density_points(run: _Run):
    """Each density's total mass less one (a deviation from zero): the
    named cases, then random admissible draws in every regime."""
    named = [
        ("triangular", PathwayDensityParams(1.0, 1.0, 1.0, 1.0, 0.0)),
        ("cauchy", PathwayDensityParams(1.0, 2.0, 1.0, 1.0, 2.0)),
        ("normal", PathwayDensityParams(1.0, 2.0, 0.5, 1.0, 1.0)),
    ]
    for label, dp in named:
        yield _density_norm(dp) - 1.0, None, {"case": label}
    rng = random.Random(int(run.cfg.grids["density_seed"]))
    n_rand = int(run.cfg.grids["density_samples"])
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
            yield (_density_norm(dp) - 1.0, None,
                   {"regime": regime, "gamma": gamma_shape, "delta": delta,
                    "beta": beta, "a": a, "alpha": alpha})
            made += 1


# --- suite assembly ------------------------------------------------------------

def _kernel_kinds(rho: float) -> list:
    """The kernel kinds at the quadrature probes: orders -1/2, 1/4 and 1,
    at lam = 1/2."""
    return [FunctionKind.bs_kernel(rho, nu, 0.5) for nu in (-0.5, 0.25, 1.0)]


# A row holds no layer function (msm_quadrature, wright_eval, ...): the
# functions of this module that it names look them up as globals when the
# row runs, so that a wrapper installed over them (perfbench/tracer.py)
# sees every call.
CHECKS = {spec.id: spec for spec in (
    CheckSpec(
        "L1", "left power image versus direct tanh-sinh quadrature "
        "(collapsed kernel), plus the exact plain-integration case",
        "lemma_quadrature", partial(_lemma_points, Side.LEFT),
        {"degenerate": partial(_lemma_exact, Side.LEFT)}),
    CheckSpec(
        "L2", "right power image versus direct exp-sinh quadrature; the "
        "variant ratio with a misplaced order parameter is documented",
        "lemma_quadrature", partial(_lemma_points, Side.RIGHT),
        {"degenerate": partial(_lemma_exact, Side.RIGHT)}, _printed_l2),
    CheckSpec(
        "L3", "pathway power image versus quadrature of the corrected "
        "kernel; the eta=1,a=1,alpha=0,beta=1 case is exactly x^2/2",
        "pathway_lemma", _l3_points, {"degenerate": _l3_exact}),
    CheckSpec(
        "T1", "left kernel image (4Psi4) versus the 60-term termwise "
        "power-image oracle and collapse-regime quadrature",
        "theorem_series", partial(_series_points, partial(_theorem_grid, Side.LEFT)),
        {"theorem_quadrature": partial(
            _quad_points, Side.LEFT, MsmParams(0.4, 0.0, 0.3, 0.2, 0.9), _kernel_kinds(1.5), 1.0,
        )}),
    CheckSpec(
        "T2", "right kernel image versus termwise oracle and quadrature; "
        "the variant statement (stray order shifts, argument lam*x) "
        "is documented",
        "theorem_series", partial(_series_points, partial(_theorem_grid, Side.RIGHT)),
        {"theorem_quadrature": partial(
            _quad_points, Side.RIGHT, MsmParams(0.0, 0.2, 0.1, 0.4, 1.1), _kernel_kinds(-2.0), 2.0,
        )},
        _printed_t2),
    CheckSpec(
        "T3", "exponential integrand image reproduced by delegation at "
        "order -1/2 (the 3Psi3 reduction)",
        "theorem_series", partial(_series_points, partial(_special_grid, "exp")),
        {"degenerate": partial(_delegation, "exp")}),
    CheckSpec(
        "T4", "expm1-over-t integrand image by delegation at order 1/2; "
        "variant with transposed lower pair and dropped 1/2 factor "
        "is documented",
        "theorem_series", partial(_series_points, partial(_special_grid, "expm1_over_t")),
        {"degenerate": partial(_delegation, "expm1_over_t")},
        partial(_printed_special, 0.5, (0.5, 1.5), 1.0)),
    CheckSpec(
        "T5", "I0+L0 integrand image by delegation at order 0; variant "
        "lower pair (1/2,1) is documented",
        "theorem_series", partial(_series_points, partial(_special_grid, "i0_plus_l0")),
        {"degenerate": partial(_delegation, "i0_plus_l0")},
        partial(_printed_special, 0.0, (0.5, 1.0), math.sqrt(math.pi))),
    CheckSpec(
        "T6", "2(I1+L1)/t integrand image by delegation at order 1; "
        "variant lower pair (1/2,1) is documented",
        "theorem_series",
        partial(_series_points, partial(_special_grid, "two_i1_plus_two_l1_over_t")),
        {"degenerate": partial(_delegation, "two_i1_plus_two_l1_over_t")},
        partial(_printed_special, 1.0, (0.5, 1.0), math.sqrt(math.pi))),
    CheckSpec(
        "T7", "pathway kernel image (2Psi2) versus termwise oracle and "
        "quadrature; zero scale reduces exactly to the power image",
        "pathway_series", partial(_series_points, _t7_grid),
        {"pathway_quadrature": partial(
            _quad_points, None, _PATHWAY_PROBE, _kernel_kinds(1.1), 1.0),
         "degenerate": _t7_reduction}),
    CheckSpec(
        "T8", "exponential pathway images versus termwise oracles; the "
        "variant lower pair (1/2,1/2) in the expm1 case is documented",
        "pathway_series", _t8_points,
        {"pathway_quadrature": partial(_quad_points, None, _PATHWAY_PROBE, (
            FunctionKind.exp_kernel(1.2), FunctionKind.expm1_over_t(1.2)), 0.8)},
        _printed_t8),
    CheckSpec(
        "e1", "kernel at order -1/2 equals exp on [-10, 10]",
        "kernel_exp", partial(_kernel_points, "kernel_grid", -0.5, math.exp)),
    CheckSpec(
        "e2", "kernel at order 1/2 equals (exp(u)-1)/u on [-10, 10]",
        "kernel_exp",
        partial(_kernel_points, "kernel_grid", 0.5,
                lambda u: 1.0 if u == 0.0 else math.expm1(u) / u)),
    CheckSpec(
        "r1", "kernel at order 0 equals I0 + L0 on (0, 20]",
        "kernel_relation",
        partial(_kernel_points, "relation_grid", 0.0, partial(_i_plus_l, 0.0))),
    CheckSpec(
        "r2", "kernel at order 1 equals 2(I1+L1)/u on (0, 20]; the "
        "variant (2I1+L1)/u misses by more than 1% at u=1",
        "kernel_relation",
        partial(_kernel_points, "relation_grid", 1.0, lambda u: 2.0 * _i_plus_l(1.0, u) / u),
        printed=_printed_r2, printed_floor=0.01),
    CheckSpec(
        "W-delta", "every generated series spec is balanced (delta 0), the "
        "unit 1Psi1 equals e, and matched pair insertion is neutral",
        "wright", _w_delta_points),
    CheckSpec(
        "density-norm", "pathway densities integrate to one in all three "
        "regimes (named cases plus random admissible draws)",
        "density_norm", _density_points),
)}

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
    """The row's record, or an ERROR record naming what it raised."""
    try:
        return spec.runner(cfg, tol)
    except Exception as exc:  # captured per record, never aborts the suite
        return {"id": spec.id, "status": "ERROR", "max_rel_dev": math.inf,
                "worst_point": {"error": f"{type(exc).__name__}: {exc}"}, "n_points": 0}


def run_suite(suite: str, tolerance_override: float | None = None,
              config: Config | None = None) -> Report:
    """Execute a verification suite and build its report.

    Check errors are captured per record; the report is deterministic up
    to the wall-time field.  A tolerance override that is not a finite
    positive number raises DomainError before any check runs.
    """
    if suite not in SUITES:
        raise UnknownSuiteError(
            f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    if tolerance_override is not None:
        _check_tolerance("the tolerance override", tolerance_override)
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
