"""Inputs of the benchmark workloads and their mpmath reference values.

Everything here depends only on the seed.  Nothing imports bsfrac: every
reference is summed in mpmath from the defining series (or, for the
density, the closed form), so it is independent of the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import mpmath as mp

DEFAULT_SEED = 0
REF_DPS = 50
# the seed moves each table grid by k/8 of its step, k in 0..7; steps and
# offsets are dyadic, so every grid point is exact in binary and the CLI's
# start:stop:count arithmetic reproduces it bit for bit
GRID_SHIFTS = 8
COLD_POINTS_PER_KIND = 3
DENSITY_SEED_BASE = 2718  # the library's default verification density seed

_MSM = {"alpha": 0.3, "alpha_prime": 0.2, "beta": 0.1, "beta_prime": 0.4, "gamma": 1.1}

# name -> (CLI function, CLI options)
CASES = {
    "S_nu0.25": ("S", {"nu": 0.25}),
    "S_nu2.3": ("S", {"nu": 2.3}),
    "S_nu0": ("S", {"nu": 0.0}),
    "msm-left-bs": ("msm-left", dict(_MSM, rho=1.5, kind="bs", nu=0.25, lam=1.0)),
    "msm-right-bs": ("msm-right", dict(_MSM, rho=-1.3, kind="bs", nu=1.0, lam=1.0)),
    "msm-right-monomial": ("msm-right", dict(_MSM, rho=-1.3, kind="monomial")),
    "pathway-bs": ("pathway", {"eta": 0.5, "a": 1.3, "pathway_alpha": 0.4, "rho": 1.1,
                               "kind": "bs", "nu": 0.25, "lam": 1.0}),
    "wright": ("wright", {"upper": "0.5,0.5;1.2,1", "lower": "1.25,0.5;1.9,1"}),
    "I_nu0.7": ("I", {"nu": 0.7}),
    "L_nu0.7": ("L", {"nu": 0.7}),
    "density": ("density", {"gamma_shape": 1.5, "delta": 1.5, "beta_shape": 2.0,
                            "a": 0.8, "pathway_alpha": 1.6}),
}

# (case, first point, step, count).  The negative-u kernel rows stay on
# purpose: they hold the known error-bound defect for generic nu, and the
# grids always start at u = -20 so every seed sees it.
TABLE_ROWS = (
    ("S_nu0.25", -20.0, 1 / 16, 641),
    ("S_nu2.3", -20.0, 1 / 16, 641),
    ("S_nu0", 0.0, 1 / 16, 321),
    ("msm-left-bs", 1 / 8, 1 / 32, 128),
    ("msm-right-bs", 1 / 4, 1 / 32, 121),
    ("pathway-bs", 1 / 8, 1 / 32, 96),
    ("wright", -10.0, 1 / 16, 321),
    ("I_nu0.7", 0.0, 1 / 16, 321),
    ("L_nu0.7", 0.0, 1 / 16, 321),
    ("density", -8.0, 1 / 16, 257),
)

# (case, low, high): cold `eval` points are drawn from these ranges
COLD_KINDS = (
    ("S_nu0.25", 0.5, 20.0),
    ("S_nu0.25", -15.0, -0.5),
    ("msm-left-bs", 0.25, 4.0),
    ("msm-right-monomial", 0.5, 4.0),
    ("pathway-bs", 0.25, 3.0),
    ("wright", -10.0, 10.0),
    ("density", -8.0, 8.0),
)


def cli_options(case: str) -> list[str]:
    """The CLI options that select a case's function and parameters."""
    opts = []
    for key, value in CASES[case][1].items():
        opts += [f"--{key.replace('_', '-')}", value if isinstance(value, str) else repr(value)]
    return opts


def make_inputs(seed: int) -> dict:
    """Table sweeps and cold-eval points for one seed."""
    rng = random.Random(seed)
    table = []
    for case, start, step, count in TABLE_ROWS:
        first = start + rng.randrange(GRID_SHIFTS) * step / GRID_SHIFTS
        last = first + (count - 1) * step
        xs = [first + i * step for i in range(count)]
        table.append({"case": case, "function": CASES[case][0],
                      "args": ["table", CASES[case][0], f"--x={first!r}:{last!r}:{count}"]
                      + cli_options(case),
                      "xs": xs})
    cold = []
    for case, lo, hi in COLD_KINDS:
        for _ in range(COLD_POINTS_PER_KIND):
            x = round(rng.uniform(lo, hi) * 1024) / 1024
            cold.append({"case": case,
                         "args": ["eval", CASES[case][0], f"--x={x!r}"] + cli_options(case),
                         "x": x})
    return {"seed": seed, "density_seed": DENSITY_SEED_BASE + seed,
            "table": table, "cold": cold}


def fingerprint(inputs: dict) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()


# --- mpmath references -------------------------------------------------------

class _PowerSeries:
    """sum_n coef(n) w^n at REF_DPS digits, with memoized coefficients."""

    def __init__(self, coef):
        self._coef = coef
        self._c = []

    def __call__(self, w):
        eps = mp.mpf(10) ** (5 - REF_DPS)
        s = mp.mpf(0)
        wn = mp.mpf(1)
        small = 0
        for n in range(5000):
            if n == len(self._c):
                self._c.append(self._coef(n))
            t = self._c[n] * wn
            s += t
            small = small + 1 if abs(t) <= eps * abs(s) else 0
            if small >= 4 and n > 8:
                return s
            wn *= w
        raise ArithmeticError("reference series did not converge")


def _kernel_coef(nu):
    nu = mp.mpf(nu)
    front = mp.gamma(nu + 1) / mp.sqrt(mp.pi)
    return lambda n: front * mp.gamma(mp.mpf(n + 1) / 2) * mp.rgamma(mp.mpf(n) / 2 + nu + 1) \
        / mp.factorial(n)


def _gratio(nums, dens):
    out = mp.mpf(1)
    for v in nums:
        out *= mp.gamma(v)
    for v in dens:
        out *= mp.rgamma(v)
    return out


def _msm_params(p):
    return (mp.mpf(p[k]) for k in ("alpha", "alpha_prime", "beta", "beta_prime", "gamma"))


def _msm_left_ratio(p, r):
    a, ap, b, bp, g = _msm_params(p)
    return _gratio((r, r + g - a - ap - b, r + bp - ap),
                   (r + bp, r + g - a - ap, r + g - ap - b))


def _msm_right_ratio(p, r):
    a, ap, b, bp, g = _msm_params(p)
    return _gratio((1 - r - b, 1 - r + a + ap - g, 1 - r + a + bp - g),
                   (1 - r, 1 - r + a + ap + bp - g, 1 - r + a - b))


def _parse_pairs(text):
    return [tuple(mp.mpf(v) for v in chunk.split(",")) for chunk in text.split(";")]


def _reference(case: str):
    """A function x -> value at REF_DPS digits for one case."""
    function, p = CASES[case]
    if function == "S":
        return _PowerSeries(_kernel_coef(p["nu"]))
    if function in ("I", "L"):
        nu = mp.mpf(p["nu"])
        if function == "I":
            series = _PowerSeries(lambda k: mp.rgamma(k + 1) * mp.rgamma(k + nu + 1))
            return lambda z: (z / 2) ** nu * series(z * z / 4)
        half3 = mp.mpf(3) / 2
        series = _PowerSeries(lambda k: mp.rgamma(k + half3) * mp.rgamma(k + nu + half3))
        return lambda z: (z / 2) ** (nu + 1) * series(z * z / 4)
    if function == "wright":
        upper, lower = _parse_pairs(p["upper"]), _parse_pairs(p["lower"])
        return _PowerSeries(lambda k: _gratio([a + A * k for a, A in upper],
                                              [b + B * k for b, B in lower]) / mp.factorial(k))
    if function in ("msm-left", "msm-right"):
        rho = mp.mpf(p["rho"])
        power = rho + mp.mpf(p["gamma"]) - mp.mpf(p["alpha"]) - mp.mpf(p["alpha_prime"]) - 1
        if p["kind"] == "monomial":
            ratio = _msm_right_ratio(p, rho) if function == "msm-right" else _msm_left_ratio(p, rho)
            return lambda x: ratio * x ** power
        c = _kernel_coef(p["nu"])
        lam = mp.mpf(p["lam"])
        if function == "msm-left":
            series = _PowerSeries(lambda n: c(n) * lam ** n * _msm_left_ratio(p, rho + n))
            return lambda x: x ** power * series(x)
        series = _PowerSeries(lambda n: c(n) * lam ** n * _msm_right_ratio(p, rho - n))
        return lambda x: x ** power * series(1 / x)
    if function == "pathway":
        eta, sigma, lam = mp.mpf(p["eta"]), mp.mpf(p["rho"]), mp.mpf(p["lam"])
        ce = eta / (1 - mp.mpf(p["pathway_alpha"]))
        cut = mp.mpf(p["a"]) * (1 - mp.mpf(p["pathway_alpha"]))
        c = _kernel_coef(p["nu"])
        series = _PowerSeries(lambda n: c(n) * lam ** n / cut ** (sigma + n)
                              * _gratio((sigma + n, 1 + ce), (1 + ce + sigma + n,)))
        return lambda x: x ** (eta + sigma) * series(x)
    if function == "density":
        # heavy-tail (pathway_alpha > 1) branch: extended type-2 beta law
        g, d, b, a, al = (mp.mpf(p[k]) for k in ("gamma_shape", "delta", "beta_shape", "a",
                                                  "pathway_alpha"))
        be, gd, k = b / (al - 1), g / d, a * (al - 1)
        norm = d / 2 * k ** gd * _gratio((be,), (gd, be - gd))
        return lambda x: norm * abs(x) ** (g - 1) * (1 + k * abs(x) ** d) ** (-be)
    raise ValueError(f"no reference for {case!r}")


def _split(value) -> list[float]:
    """A reference as an unevaluated sum of two doubles (about 32 digits)."""
    hi = float(value)
    return [hi, float(value - hi)]


def compute_references(inputs: dict) -> dict:
    with mp.workdps(REF_DPS):
        refs = {case: _reference(case) for case in CASES}
        return {"fingerprint": fingerprint(inputs),
                "table": [[_split(refs[row["case"]](mp.mpf(x))) for x in row["xs"]]
                          for row in inputs["table"]],
                "cold": [_split(refs[pt["case"]](mp.mpf(pt["x"]))) for pt in inputs["cold"]]}


def load_references(inputs: dict, cache_dir: Path) -> tuple[dict, str]:
    """Cached references for these inputs; computes and stores them when absent.

    The default seed's file sits beside this module and is committed;
    other seeds are cached under ``cache_dir``.
    """
    if inputs["seed"] == DEFAULT_SEED:
        path = Path(__file__).with_name("refs") / f"seed{DEFAULT_SEED}.json"
    else:
        path = cache_dir / f"refs-seed{inputs['seed']}.json"
    try:
        refs = json.loads(path.read_text())
        if refs["fingerprint"] == fingerprint(inputs):
            return refs, "cached"
    except (OSError, ValueError, KeyError):
        pass
    refs = compute_references(inputs)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(refs, separators=(",", ":")))
    tmp.replace(path)
    return refs, "computed"


def rel_error(value: float, ref: list[float]) -> float:
    """|value - ref| / |ref| with the two-double reference."""
    hi, lo = ref
    diff = abs((value - hi) - lo)
    if hi == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / abs(hi)


def abs_error(value: float, ref: list[float]) -> float:
    hi, lo = ref
    return abs((value - hi) - lo)
