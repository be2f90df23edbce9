"""Command-line front end: point evaluation, table generation, and the
verification suites.

Exit codes: 0 on success (all verification expectations met), 1 on a
verification failure or numerical error, 2 on usage errors.  A numerical
error (an overflow, a term-cap or quadrature stall, a non-finite value,
or a value whose series did not converge) is reported on stderr;
non-finite and unconverged values are still printed in the usual stdout
schema.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from functools import partial

import click

from . import __version__
from .errors import BsfracError, DomainError, QuadratureError, TermCapError
from .series import (
    _SPECIAL_NU,
    SeriesEval,
    bessel_first_kind,
    bessel_struve_kernel,
    linspace,
    struve,
)
from .wright import WrightSpec, wright_eval

FUNCTIONS = ("S", "J", "I", "H", "L", "wright", "msm-left", "msm-right",
             "pathway", "density")
KIND_NAMES = {f.replace("_", "-"): f for f in ("monomial", "bs", *_SPECIAL_NU)}


# raised when a valid request cannot be computed in double precision
NUMERICAL_ERRORS = (OverflowError, TermCapError, QuadratureError)


def _fail(message: str):
    """Report a numerical failure: message on stderr, exit status 1."""
    click.echo(f"Error: {message}", err=True)
    sys.exit(1)


def _sweep(function: str, opts: dict, xs) -> list:
    """Evaluate function at every x, built once for the whole sweep (see
    ``_evaluator``), with library errors mapped to the exit-code contract;
    a numerical error names the x being evaluated, or the first x while
    the function is being built."""
    x = xs[0]
    try:
        evaluate = _evaluator(function, opts)
        results = []
        for x in xs:  # not a comprehension: the handlers below name this x
            results.append(evaluate(x))
        return results
    except NUMERICAL_ERRORS as exc:
        _fail(f"{function} at x={x!r}: {exc}")
    except BsfracError as exc:
        raise click.UsageError(str(exc)) from exc


_NUMBER = "%.17g"  # every float the CLI prints: enough digits to round-trip


def _fmt(v) -> str:
    if isinstance(v, float):
        return _NUMBER % v
    return str(v)


def _emit(ctx_obj, headers, rows):
    """Write rows of numbers (floats, and counts below 2**53) as JSON or
    CSV.  No number needs CSV quoting, so each CSV row is one ``%``
    template: the same text ``csv.writer`` makes of ``_fmt`` of each."""
    if ctx_obj["format"] == "json":
        text = json.dumps([dict(zip(headers, row)) for row in rows], indent=2)
    else:
        template = ",".join([_NUMBER] * len(headers))
        text = "\n".join([",".join(headers), *[template % row for row in rows]])
    _write(ctx_obj, text)


def _write(ctx_obj, text: str):
    out = ctx_obj.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _require(opts, names):
    missing = [n for n in names if opts.get(n.replace("-", "_")) is None]
    if missing:
        raise click.UsageError("missing required option(s): "
                               + ", ".join(f"--{n}" for n in missing))


def _parse_pairs(text: str):
    pairs = []
    try:
        for chunk in text.split(";"):
            a, b = chunk.split(",")
            pairs.append((float(a), float(b)))
    except ValueError as exc:
        raise click.UsageError(f"bad pair list {text!r}; use 'a,A;b,B'") from exc
    return tuple(pairs)


def _evaluator(function: str, opts: dict):
    """Build ``x -> SeriesEval`` from the options: they are checked and
    parsed, and the image, Wright spec or density constants computed,
    once, before the first point: a Wright, MSM or pathway sweep shares
    one spec and its term table.  The operator modules are imported only
    by the branches that use them, so a cold ``eval S`` never loads them."""
    if function == "density":
        from .pathway import PathwayDensityParams, _check_density_x, _density, _density_error

        _require(opts, ["gamma-shape", "delta", "beta-shape", "a", "pathway-alpha"])
        dp = PathwayDensityParams(opts["gamma_shape"], opts["delta"],
                                  opts["beta_shape"], opts["a"], opts["pathway_alpha"])
        density, error = _density(dp), _density_error(dp)

        def density_at(x):
            _check_density_x(x)
            value = density(x)
            return SeriesEval(value, error(x, value), 1, True)

        return density_at
    if function == "S":
        _require(opts, ["nu"])
        return partial(bessel_struve_kernel, opts["nu"])
    if function in ("J", "I", "H", "L"):
        _require(opts, ["nu"])
        fn = bessel_first_kind if function in ("J", "I") else struve
        return partial(fn, opts["nu"], modified=function in ("I", "L"))
    if function == "wright":
        _require(opts, ["upper", "lower"])
        spec = WrightSpec(_parse_pairs(opts["upper"]), _parse_pairs(opts["lower"]))
        return partial(wright_eval, spec)
    if function in ("msm-left", "msm-right"):
        from .msm import MsmParams, Side, msm_bs_closed_form, msm_power_image

        _require(opts, ["gamma", "rho"])
        side = Side.LEFT if function == "msm-left" else Side.RIGHT
        params = MsmParams(opts["alpha"], opts["alpha_prime"], opts["beta"],
                           opts["beta_prime"], opts["gamma"])
        kind = _build_kind(opts)
        if kind.family == "monomial":
            return msm_power_image(side, params, kind.rho).value_at
        return msm_bs_closed_form(side, params, kind).value_at
    from .pathway import PathwayParams, pathway_bs_closed_form, pathway_power_image

    _require(opts, ["eta", "a", "pathway-alpha", "rho"])
    params = PathwayParams(opts["eta"], opts["a"], opts["pathway_alpha"])
    kind = _build_kind(opts)
    if kind.family == "monomial":
        return pathway_power_image(params, kind.rho).value_at
    return pathway_bs_closed_form(params, kind).value_at


def _build_kind(opts):
    from .msm import FunctionKind

    family = KIND_NAMES[opts["kind"]]
    if family == "bs":
        _require(opts, ["nu"])
        return FunctionKind.bs_kernel(opts["rho"], opts["nu"], opts["lam"])
    return FunctionKind(family, opts["rho"])


_PARAM_OPTIONS = [
    click.option("--nu", type=float, default=None, help="series order"),
    click.option("--lam", type=float, default=1.0, help="kernel argument scale"),
    click.option("--alpha", type=float, default=0.0),
    click.option("--alpha-prime", type=float, default=0.0),
    click.option("--beta", type=float, default=0.0),
    click.option("--beta-prime", type=float, default=0.0),
    click.option("--gamma", type=float, default=None, help="operator order"),
    click.option("--rho", type=float, default=None, help="power exponent of the integrand"),
    click.option("--kind", type=click.Choice(sorted(KIND_NAMES)), default="monomial"),
    click.option("--eta", type=float, default=None),
    click.option("--a", type=float, default=None, help="pathway scale"),
    click.option("--pathway-alpha", type=float, default=None),
    click.option("--gamma-shape", type=float, default=None),
    click.option("--delta", type=float, default=None),
    click.option("--beta-shape", type=float, default=None),
    click.option("--upper", type=str, default=None, help="wright upper pairs 'a,A;a,A'"),
    click.option("--lower", type=str, default=None, help="wright lower pairs 'b,B;b,B'"),
]


def _with_params(cmd):
    for opt in reversed(_PARAM_OPTIONS):
        cmd = opt(cmd)
    return cmd


@click.group()
@click.version_option(__version__)
@click.option("--tol", type=float, default=None,
              help="tolerance override for verify (eval and table refuse it)")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="write output to a file instead of stdout")
@click.option("--threads", type=int, default=1, show_default=True,
              help="accepted for compatibility; has no effect (checks run serially)")
@click.option("--seed-grid", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON file overriding verification grids")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON config with tolerances, grids, term_cap")
@click.pass_context
def main(ctx, tol, fmt, out, threads, seed_grid, config_path):
    """Special-function evaluation and identity verification."""
    if tol is not None and ctx.invoked_subcommand != "verify":
        # eval and table have no tolerance to override: refused, not ignored
        raise click.UsageError(f"--tol applies to verify only, not to {ctx.invoked_subcommand}")
    ctx.obj = {"tol": tol, "format": fmt, "out": out,
               "seed_grid": seed_grid, "config_path": config_path}


@main.command("eval")
@click.argument("function", type=click.Choice(FUNCTIONS))
@click.option("--x", type=float, required=True, help="evaluation point")
@_with_params
@click.pass_context
def eval_cmd(ctx, function, x, **opts):
    """Evaluate one function at one point."""
    [r] = _sweep(function, opts, [x])
    _emit(ctx.obj, ["value", "abs_error_est", "terms_used"],
          [(r.value, r.abs_error_est, r.terms_used)])
    if not math.isfinite(r.value):
        _fail(f"{function} at x={x!r} is not finite in double precision")
    if not r.converged:
        _fail(f"{function} at x={x!r} did not converge")


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError(f"bad range {text!r}; use start:stop:count")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise click.UsageError(f"bad range {text!r}; use start:stop:count") from exc
    if count < 1:
        raise click.UsageError("range count must be at least 1")
    if not (math.isfinite(start) and math.isfinite(stop)):
        # linspace would put NaN at points the user never gave
        raise click.UsageError(f"range {text!r} needs a finite start and stop")
    return linspace(start, stop, count)


@main.command("table")
@click.argument("function", type=click.Choice(FUNCTIONS))
@click.option("--x", "x_range", type=str, required=True,
              help="sweep range start:stop:count")
@_with_params
@click.pass_context
def table_cmd(ctx, function, x_range, **opts):
    """Tabulate one function over a grid of evaluation points."""
    xs = _parse_range(x_range)
    results = _sweep(function, opts, xs)
    _emit(ctx.obj, ["x", "value", "abs_error_est"],
          [(x, r.value, r.abs_error_est) for x, r in zip(xs, results)])
    bad = [x for x, r in zip(xs, results) if not math.isfinite(r.value)]
    unconverged = [x for x, r in zip(xs, results) if not r.converged]
    if bad:
        _fail(f"{function} is not finite in double precision at {len(bad)} "
              f"point(s), first x={bad[0]!r}")
    if unconverged:
        _fail(f"{function} did not converge at {len(unconverged)} point(s), "
              f"first x={unconverged[0]!r}")


@main.command("verify")
@click.argument("suite", default="all")
@click.pass_context
def verify_cmd(ctx, suite):
    """Run a verification suite and emit its machine-readable report."""
    from .checks import SUITES, Config, run_suite  # eval and table never need it

    if suite not in SUITES:
        raise click.UsageError(
            f"unknown suite {suite!r}; choose from {', '.join(sorted(SUITES))}")
    try:
        cfg = Config.load(ctx.obj["config_path"], ctx.obj["seed_grid"])
    except ValueError as exc:  # not JSON, or not a config's shape
        raise click.UsageError(f"bad config: {exc}") from exc
    try:
        report = run_suite(suite, tolerance_override=ctx.obj["tol"], config=cfg)
    except DomainError as exc:  # refused before any check runs
        raise click.UsageError(f"bad --tol: {exc}") from exc
    doc = report.to_dict()
    for check in doc["checks"]:
        click.echo(f"{check['id']}: {check['status']} "
                   f"(max_rel_dev={check['max_rel_dev']:.3e}, "
                   f"n={check['n_points']})", err=True)
    if ctx.obj["format"] == "json":
        _write(ctx.obj, json.dumps(doc, indent=2))
    else:  # string cells may need quoting: csv.writer, not the number template
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "status", "max_rel_dev", "n_points", "worst_point"])
        for check in doc["checks"]:
            worst = "|".join(f"{k}={_fmt(v)}" for k, v in check["worst_point"].items())
            writer.writerow([_fmt(v) for v in (check["id"], check["status"],
                                               check["max_rel_dev"], check["n_points"], worst)])
        _write(ctx.obj, buf.getvalue().rstrip("\n"))
    if not report.all_expected():
        sys.exit(1)
