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

import math
import os
import sys
from functools import partial

from . import __version__
from ._backend import kernels
from .errors import BsfracError, DomainError, QuadratureError, TermCapError
from .series import (
    _SPECIAL_NU,
    _series_eval,
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


class UsageError(Exception):
    """A command line the CLI refuses: reported with its usage, exit 2."""


def _fail(message: str):
    """Report a numerical failure: message on stderr, exit status 1."""
    print(f"Error: {message}", file=sys.stderr)
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
        raise UsageError(str(exc)) from exc


def _emit(main_opts, headers, values):
    """Write numbers (floats, and counts below 2**53), one row or more one
    after another in a flat list, as JSON or CSV rows of ``headers``.  No number needs
    CSV quoting, so the kernel twin's ``format_rows`` writes the CSV rows:
    each number as "%.17g", the text ``csv.writer`` makes of a float, and
    of a count as ``str`` does, enough digits to round-trip.  The compiled
    twin finds the 17 digits of most numbers in exact integer arithmetic
    and hands the rest to CPython's own conversion, so both twins write
    the same bytes."""
    n = len(headers)
    if main_opts["format"] == "json":
        import json

        text = json.dumps([dict(zip(headers, row)) for row in zip(*[iter(values)] * n)], indent=2)
    else:
        text = ",".join(headers) + "\n" + kernels.format_rows(values, n)
    _write(main_opts, text)


def _write(main_opts, text: str):
    out = main_opts.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _require(opts, names):
    missing = [n for n in names if opts.get(n.replace("-", "_")) is None]
    if missing:
        raise UsageError("missing required option(s): "
                         + ", ".join(f"--{n}" for n in missing))


def _parse_pairs(text: str):
    pairs = []
    try:
        for chunk in text.split(";"):
            a, b = chunk.split(",")
            pairs.append((float(a), float(b)))
    except ValueError as exc:
        raise UsageError(f"bad pair list {text!r}; use 'a,A;b,B'") from exc
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
            return _series_eval((value, error(x, value), 1, True))

        return density_at
    if function == "S":
        _require(opts, ["nu"])
        return partial(bessel_struve_kernel, opts["nu"])
    if function in ("J", "I", "H", "L"):
        _require(opts, ["nu"])
        fn = bessel_first_kind if function in ("J", "I") else struve
        nu, modified = opts["nu"], function in ("I", "L")
        return lambda x: fn(nu, x, modified)  # a keyword would cost a dict a point
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


def eval_cmd(main_opts, opts):
    """Evaluate one function at one point."""
    function, x = opts["function"], opts["x"]
    [r] = _sweep(function, opts, [x])
    _emit(main_opts, ["value", "abs_error_est", "terms_used"],
          [r.value, r.abs_error_est, r.terms_used])
    if not math.isfinite(r.value):
        _fail(f"{function} at x={x!r} is not finite in double precision")
    if not r.converged:
        _fail(f"{function} at x={x!r} did not converge")


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"bad range {text!r}; use start:stop:count")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}; use start:stop:count") from exc
    if count < 1:
        raise UsageError("range count must be at least 1")
    if not (math.isfinite(start) and math.isfinite(stop)):
        # linspace would put NaN at points the user never gave
        raise UsageError(f"range {text!r} needs a finite start and stop")
    return linspace(start, stop, count)


def table_cmd(main_opts, opts):
    """Tabulate one function over a grid of evaluation points."""
    function, xs = opts["function"], _parse_range(opts["x"])
    values, bad, unconverged = [], [], []
    for x, r in zip(xs, _sweep(function, opts, xs)):  # one pass over the results
        values += (x, r.value, r.abs_error_est)
        if not math.isfinite(r.value):
            bad.append(x)
        if not r.converged:
            unconverged.append(x)
    _emit(main_opts, ["x", "value", "abs_error_est"], values)
    if bad:
        _fail(f"{function} is not finite in double precision at {len(bad)} "
              f"point(s), first x={bad[0]!r}")
    if unconverged:
        _fail(f"{function} did not converge at {len(unconverged)} point(s), "
              f"first x={unconverged[0]!r}")


def verify_cmd(main_opts, opts):
    """Run a verification suite and emit its machine-readable report."""
    import json

    from .checks import SUITES, Config, run_suite  # eval and table never need it

    suite = opts["suite"]
    if suite not in SUITES:
        raise UsageError(
            f"unknown suite {suite!r}; choose from {', '.join(sorted(SUITES))}")
    try:
        cfg = Config.load(main_opts["config"], main_opts["seed_grid"])
    except ValueError as exc:  # not JSON, or not a config's shape
        raise UsageError(f"bad config: {exc}") from exc
    try:
        report = run_suite(suite, tolerance_override=main_opts["tol"], config=cfg)
    except DomainError as exc:  # refused before any check runs
        raise UsageError(f"bad --tol: {exc}") from exc
    doc = report.to_dict()
    for check in doc["checks"]:
        print(f"{check['id']}: {check['status']} (max_rel_dev={check['max_rel_dev']:.3e}, "
              f"n={check['n_points']})", file=sys.stderr)
    _write(main_opts, json.dumps(doc, indent=2) if main_opts["format"] == "json"
           else report.to_csv())
    if not report.all_expected():
        sys.exit(1)


# The option tables, read by the parser and by --help: name -> (type,
# default, help).  A type is a metavar: FLOAT, INTEGER or TEXT, FILE (not a
# directory), JSON (an existing file), "" for a flag, or a tuple of choices.
# A default of ... marks a required option; a name without dashes is the
# positional argument.
HELP = {"--help": ("", None, "Show this message and exit.")}
MAIN_OPTIONS = {
    "--version": ("", None, "Show the version and exit."),
    "--tol": ("FLOAT", None, "tolerance override for verify (eval and table refuse it)"),
    "--format": (("csv", "json"), "csv", ""),
    "--out": ("FILE", None, "write output to a file instead of stdout"),
    "--threads": ("INTEGER", 1, "accepted for compatibility; has no effect (checks run serially)"),
    "--seed-grid": ("JSON", None, "JSON file overriding verification grids"),
    "--config": ("JSON", None, "JSON config with tolerances, grids, term_cap"), **HELP}
PARAM_OPTIONS = {
    "--nu": ("FLOAT", None, "series order"), "--lam": ("FLOAT", 1.0, "kernel argument scale"),
    **{f"--{n}": ("FLOAT", 0.0, "") for n in ("alpha", "alpha-prime", "beta", "beta-prime")},
    "--gamma": ("FLOAT", None, "operator order"),
    "--rho": ("FLOAT", None, "power exponent of the integrand"),
    "--kind": (tuple(sorted(KIND_NAMES)), "monomial", ""), "--eta": ("FLOAT", None, ""),
    "--a": ("FLOAT", None, "pathway scale"), "--pathway-alpha": ("FLOAT", None, ""),
    **{f"--{n}": ("FLOAT", None, "") for n in ("gamma-shape", "delta", "beta-shape")},
    "--upper": ("TEXT", None, "wright upper pairs 'a,A;a,A'"),
    "--lower": ("TEXT", None, "wright lower pairs 'b,B;b,B'"), **HELP}
COMMANDS = {
    "eval": (eval_cmd, {"function": (FUNCTIONS, ..., ""),
                        "--x": ("FLOAT", ..., "evaluation point"), **PARAM_OPTIONS}),
    "table": (table_cmd, {"function": (FUNCTIONS, ..., ""),
                          "--x": ("TEXT", ..., "sweep range start:stop:count"), **PARAM_OPTIONS}),
    "verify": (verify_cmd, {"suite": ("TEXT", "all", ""), **HELP})}


def _metavar(name, kind) -> str:
    if name[0] != "-":
        return "{%s}" % "|".join(kind) if isinstance(kind, tuple) else f"[{name.upper()}]"
    return "[%s]" % "|".join(kind) if isinstance(kind, tuple) else kind


def _usage(prog, table) -> str:
    args = [_metavar(name, kind) for name, (kind, _, _) in table.items() if name[0] != "-"]
    return f"{prog} [OPTIONS] {' '.join(args) or 'COMMAND [ARGS]...'}"


def _help(prog, table, doc) -> str:
    lines = [f"Usage: {_usage(prog, table)}", "", f"  {doc}", "", "Options:"]
    for name, (kind, default, text) in table.items():
        if default is ...:
            text += "  [required]"
        elif default is not None:
            text += f"  [default: {default}]"
        if name[0] == "-":
            lines.append(f"  {f'{name} {_metavar(name, kind)}':<22}  {text.lstrip()}")
    if table is MAIN_OPTIONS:
        lines += ["", "Commands:", *(f"  {n:<6}  {fn.__doc__}" for n, (fn, _) in COMMANDS.items())]
    return "\n".join(line.rstrip() for line in lines)


def _parse(table, args, interspersed: bool):
    """Read args against an option table: the raw value of each option in
    the order first given, the flags and the free arguments.  A value is
    the next token, so "--x -1e-3" works, or follows "="; a repeat keeps
    the last value, and no name is abbreviated.  "--" ends the options,
    and so does the first free argument unless they are interspersed."""
    raw, flags, free, rest = {}, [], [], list(args)
    while rest:
        token = rest.pop(0)
        if token[:1] != "-" or token in ("-", "--"):
            if token != "--":
                free.append(token)
            if token == "--" or not interspersed:
                free += rest
                break
            continue
        name, eq, value = token.partition("=")
        name = name if name[:2] == "--" else token[:2]  # no short options: name the first
        if name not in table:  # with click's hint: the options close to a long name
            from difflib import get_close_matches

            near = sorted(get_close_matches(name, [n for n in table if n[:2] == "--"]))
            hint = "" if name[:2] != "--" or not near else (
                f" Did you mean {near[0]!r}?" if len(near) == 1
                else f" (Did you mean one of: {', '.join(map(repr, near))}?)")
            raise UsageError(f"No such option {name!r}.{hint}")
        if not table[name][0]:
            if eq:
                raise UsageError(f"Option {name!r} does not take a value.")
            flags.append(name)
        elif not (eq or rest):
            raise UsageError(f"Option {name!r} requires an argument.")
        else:
            raw[name] = value if eq else rest.pop(0)
    return raw, flags, free


def _convert(table, raw: dict, free: list) -> dict:
    """The value of each table entry, keyed by its name without dashes and
    with "_" for "-".  The given values are checked in the order first
    given, then the positional (the first free argument), then the rest."""
    positional = [n for n in table if n[0] != "-"]
    if positional and free:
        raw[positional[0]] = free.pop(0)
    values = {}
    for name in [*raw, *(n for n in table if n not in raw and table[n][0])]:
        kind, default, _ = table[name]
        label = name if name[0] == "-" else _metavar(name, kind)
        if name in raw:
            default = _value(label, kind, raw[name])
        elif default is ... and name[0] == "-":
            raise UsageError(f"Missing option {label!r}.")
        elif default is ...:
            raise UsageError(f"Missing argument {label!r}. Choose from:\n\t" + ",\n\t".join(kind))
        values[name.lstrip("-").replace("-", "_")] = default
    return values


def _value(label, kind, raw):
    """raw read as its type, or a usage error in click's words."""
    if isinstance(kind, tuple) and raw not in kind:
        problem = f"{raw!r} is not one of {', '.join(map(repr, kind))}"
    elif kind in ("FLOAT", "INTEGER"):
        try:
            return (float if kind == "FLOAT" else int)(raw)
        except ValueError:
            problem = f"{raw!r} is not a valid {kind.lower()}"
    elif kind == "JSON" and not os.path.exists(raw):
        problem = f"File {raw!r} does not exist"
    elif kind in ("FILE", "JSON") and os.path.isdir(raw):
        problem = f"File {raw!r} is a directory"
    else:
        return raw
    raise UsageError(f"Invalid value for {label!r}: {problem}.")


def main(argv=None, prog_name: str = "bsfrac"):
    """Special-function evaluation and identity verification."""
    prog, table = prog_name, MAIN_OPTIONS
    try:
        raw, flags, rest = _parse(table, sys.argv[1:] if argv is None else list(argv), False)
        if flags:  # --version and --help act at once, the first given wins
            print(f"{prog_name}, version {__version__}" if flags[0] == "--version"
                  else _help(prog, table, main.__doc__))
            return
        main_opts = _convert(table, raw, [])
        if not rest or rest[0] not in COMMANDS:
            raise UsageError(f"No such command {rest[0]!r}." if rest else "Missing command.")
        if main_opts["tol"] is not None and rest[0] != "verify":
            # eval and table have no tolerance to override: refused, not ignored
            raise UsageError(f"--tol applies to verify only, not to {rest[0]}")
        prog = f"{prog_name} {rest[0]}"
        command, table = COMMANDS[rest[0]]
        raw, flags, free = _parse(table, rest[1:], True)
        if flags:
            print(_help(prog, table, command.__doc__))
            return
        opts = _convert(table, raw, free)
        if free:
            raise UsageError(f"Got unexpected extra argument{'s' * (len(free) > 1)} "
                             f"({' '.join(free)})")
        command(main_opts, opts)
    except UsageError as exc:
        print(f"Usage: {_usage(prog, table)}\nTry '{prog} --help' for help.\n\nError: {exc}",
              file=sys.stderr)
        sys.exit(2)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        sys.exit(1)
    except BrokenPipeError:
        # the reader left, as under `| head`: end quietly, and let the
        # flush at exit write what is left to devnull, not the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
