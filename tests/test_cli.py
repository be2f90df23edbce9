import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bsfrac

import oracles
from conftest import run_cli
from test_checks import BAD_TOLERANCES


def _run(*args):
    return run_cli(args)


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_eval_kernel_exponential():
    res = _run("eval", "S", "--nu", "-0.5", "--x", "1")
    assert res.exit_code == 0
    row = _csv_rows(res.stdout)[0]
    assert math.isclose(float(row["value"]), math.e, rel_tol=1e-12)
    assert int(row["terms_used"]) >= 1


def test_eval_kernel_at_zero():
    res = _run("eval", "S", "--nu", "0.7", "--x", "0")
    assert res.exit_code == 0
    assert float(_csv_rows(res.stdout)[0]["value"]) == 1.0


def test_eval_msm_left_degenerate():
    res = _run("eval", "msm-left", "--alpha", "0", "--alpha-prime", "0",
               "--beta", "0", "--beta-prime", "0", "--gamma", "1",
               "--rho", "2", "--kind", "monomial", "--x", "3")
    assert res.exit_code == 0
    assert float(_csv_rows(res.stdout)[0]["value"]) == 4.5


def test_eval_wright():
    res = _run("eval", "wright", "--upper", "1,1", "--lower", "1,1", "--x", "1")
    assert res.exit_code == 0
    assert math.isclose(float(_csv_rows(res.stdout)[0]["value"]), math.e,
                        rel_tol=1e-12)


def test_eval_density():
    res = _run("eval", "density", "--gamma-shape", "1", "--delta", "2",
               "--beta-shape", "1", "--a", "1", "--pathway-alpha", "2",
               "--x", "0")
    assert res.exit_code == 0
    assert math.isclose(float(_csv_rows(res.stdout)[0]["value"]),
                        1.0 / math.pi, rel_tol=1e-12)


def test_eval_json_format():
    res = _run("--format", "json", "eval", "S", "--nu", "-0.5", "--x", "1")
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert set(doc[0]) == {"value", "abs_error_est", "terms_used"}


def test_eval_missing_parameter_is_usage_error():
    res = _run("eval", "S", "--x", "1")
    assert res.exit_code == 2


def test_eval_bad_value_is_usage_error():
    res = _run("eval", "msm-left", "--gamma", "-1", "--rho", "2", "--x", "3")
    assert res.exit_code == 2


def test_eval_non_finite_value_is_numerical_error():
    res = _run("eval", "I", "--nu", "-0.5", "--x", "0")
    assert res.exit_code == 1
    assert _csv_rows(res.stdout)[0]["value"] == "inf"  # stdout schema unchanged
    assert "not finite" in res.stderr


@pytest.mark.parametrize("function, nu", [("J", "-0.5"), ("H", "-1.2"), ("L", "-1.2")])
def test_eval_infinite_value_at_zero_is_numerical_error(function, nu):
    # once printed with a zero bound as a converged value
    res = _run("eval", function, "--nu", nu, "--x", "0")
    assert res.exit_code == 1
    assert res.stdout == "value,abs_error_est,terms_used\ninf,inf,1\n"
    assert "not finite" in res.stderr


def test_eval_kernel_overflow_is_numerical_error():
    # reported like wright: no row, exit 1, the library message on stderr
    res = _run("eval", "S", "--nu", "0.25", "--x", "800")
    assert res.exit_code == 1
    assert res.stdout == ""
    assert "S at x=800.0: Bessel-Struve series at u=800.0 exceeds double range" in res.stderr


def test_eval_bessel_overflow_is_numerical_error():
    # J's terms leave the double range: the sum ends at its first
    # non-finite partial sum, and the row is printed
    res = _run("eval", "J", "--nu", "0", "--x", "1500")
    assert res.exit_code == 1
    assert res.stdout == "value,abs_error_est,terms_used\nnan,inf,129\n"
    assert res.stderr == "Error: J at x=1500.0 is not finite in double precision\n"


def test_eval_overflow_is_numerical_error():
    res = _run("eval", "wright", "--upper", "1,1", "--lower", "1,1", "--x", "800")
    assert res.exit_code == 1
    assert "exceeds double range" in res.stderr
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_table_non_finite_value_is_numerical_error():
    res = _run("table", "I", "--nu", "-0.5", "--x", "0:2:3")
    assert res.exit_code == 1
    assert len(_csv_rows(res.stdout)) == 3
    assert "1 point(s), first x=0.0" in res.stderr


def test_table_kernel_overflow_is_numerical_error():
    res = _run("table", "S", "--nu", "0.25", "--x", "1:800:3")
    assert res.exit_code == 1
    assert res.stdout == ""
    assert "S at x=800.0:" in res.stderr and "exceeds double range" in res.stderr


@pytest.mark.parametrize("command", ["eval", "table"])
def test_wright_pair_limit_is_a_usage_error(command):
    # 33 pairs once ran on the pure backend and ended in a traceback on the
    # compiled one; both backends' kernels take at most 32 per side
    x = "0.5" if command == "eval" else "0.5:1:2"
    for n_upper, n_lower in ((33, 33), (33, 1), (1, 33)):
        res = _run(command, "wright", "--upper", ";".join(["1.0,0"] * n_upper),
                   "--lower", ";".join(["1.5,0"] * n_lower), "--x", x)
        assert res.exit_code == 2, res.output
        assert (f"Error: at most 32 upper and 32 lower pairs are supported, "
                f"got {n_upper} and {n_lower}") in res.stderr
        assert isinstance(res.exception, SystemExit)
    res = _run(command, "wright", "--upper", ";".join(["1.0,0"] * 32),
               "--lower", ";".join(["1.5,0"] * 32), "--x", x)
    assert res.exit_code == 0, res.output


# valid options of each parameter class's function, at the point --x
PARAM_OPTS = {
    "density": {"gamma-shape": "1", "delta": "1", "beta-shape": "1", "a": "1",
                "pathway-alpha": "0.5", "x": "0.5"},
    "msm-left": {"alpha": "0.3", "alpha-prime": "0.2", "beta": "0.1", "beta-prime": "0.4",
                 "gamma": "1.1", "rho": "1.5", "x": "1"},
    "pathway": {"eta": "0.5", "a": "1.3", "pathway-alpha": "0.4", "rho": "1.1", "kind": "bs",
                "nu": "0.25", "x": "0.5"},
}


def _assert_non_finite_refused(function, name):
    for bad in ("nan", "inf", "-inf"):
        opts = dict(PARAM_OPTS[function], **{name: bad})
        res = _run("eval", function, *(f"--{key}={value}" for key, value in opts.items()))
        assert res.exit_code == 2, (bad, res.output)
        assert f"Error: {name.replace('-', '_')} must be finite" in res.stderr
        assert isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("name", ["gamma-shape", "delta", "beta-shape", "a", "pathway-alpha"])
def test_non_finite_density_parameter_is_usage_error(name):
    _assert_non_finite_refused("density", name)


@pytest.mark.parametrize("function,name", [
    *(("msm-left", n) for n in ("alpha", "alpha-prime", "beta", "beta-prime", "gamma")),
    *(("pathway", n) for n in ("eta", "a", "pathway-alpha", "rho", "nu", "lam")),
    ("msm-left", "rho")])
def test_non_finite_operator_parameter_is_usage_error(function, name):
    # an infinite scale or pathway alpha once printed 0,0,1 and exited 0,
    # an infinite MSM order printed nan,nan,1 and exited 1, and a NaN lam
    # printed a converged 0
    _assert_non_finite_refused(function, name)


def test_bad_kernel_order_is_usage_error():
    for args in (["msm-left", "--gamma", "1", "--rho", "1.5"],
                 ["pathway", "--eta", "0.5", "--a", "1.3", "--pathway-alpha", "0.4",
                  "--rho", "1.1"]):
        res = _run("eval", *args, "--kind", "bs", "--nu", "-2", "--x", "1")
        assert res.exit_code == 2, res.output
        assert "Error: kernel order must exceed -1, got -2.0" in res.stderr
        assert "Traceback" not in res.output
        assert isinstance(res.exception, SystemExit)


def test_eval_unconverged_value_is_numerical_error():
    # S_-0.75 has a zero near u = -1.09: at u = -1 the rounding bound
    # exceeds tol * |S|
    res = _run("eval", "S", "--nu", "-0.75", "--x", "-1")
    assert res.exit_code == 1
    assert _csv_rows(res.stdout)[0]["terms_used"] == "63"  # the row is still printed
    assert "S at x=-1.0 did not converge" in res.stderr


def test_table_unconverged_value_is_numerical_error():
    res = _run("table", "S", "--nu", "-0.75", "--x=-1:-5:3")
    assert res.exit_code == 1
    assert [r["x"] for r in _csv_rows(res.stdout)] == ["-1", "-3", "-5"]
    assert "did not converge at 1 point(s), first x=-1.0" in res.stderr


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(bsfrac.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "bsfrac", "eval", "S", "--nu", "-0.5",
                           "--x", "0"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert float(_csv_rows(proc.stdout)[0]["value"]) == 1.0


def test_table_kernel_grid():
    res = _run("table", "S", "--nu", "0", "--x", "0:2:3")
    assert res.exit_code == 0
    rows = _csv_rows(res.stdout)
    assert [float(r["x"]) for r in rows] == [0.0, 1.0, 2.0]
    assert float(rows[0]["value"]) == 1.0
    want = oracles.mp_bessel(0, 1, True) + oracles.mp_struve(0, 1, True)
    assert oracles.rel_err(float(rows[1]["value"]), want) <= 1e-11


def test_table_single_point():
    res = _run("table", "S", "--nu", "0.5", "--x", "1.5:1.5:1")
    rows = _csv_rows(res.stdout)
    assert len(rows) == 1


def test_table_json_keys_match_csv_headers():
    res = _run("--format", "json", "table", "S", "--nu", "0", "--x", "0:1:2")
    doc = json.loads(res.stdout)
    assert [sorted(d) for d in doc] == [["abs_error_est", "value", "x"]] * 2


def test_table_bad_range():
    assert _run("table", "S", "--nu", "0", "--x", "1:2").exit_code == 2
    assert _run("table", "S", "--nu", "0", "--x", "1:2:0").exit_code == 2


@pytest.mark.parametrize("end", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("where", ["start", "stop"])
def test_table_non_finite_range_end_is_usage_error(end, where):
    # the range is refused as given, not through the NaN linspace would
    # make of an infinite end at a point the user never gave
    text = f"{end}:1:2" if where == "start" else f"1:{end}:2"
    res = _run("table", "msm-left", "--gamma", "1.1", "--alpha", "0.3", "--rho", "1.5",
               f"--x={text}")
    assert res.exit_code == 2
    assert f"range {text!r} needs a finite start and stop" in res.output
    assert "nan" not in res.output.replace(text, "")


def test_verify_json_report(tmp_path):
    out = tmp_path / "report.json"
    res = _run("--format", "json", "--out", str(out), "verify", "wright")
    assert res.exit_code == 0
    doc = json.loads(out.read_text())
    assert sorted(doc) == ["checks", "config", "suite", "version", "wall_ms"]
    assert doc["suite"] == "wright"
    assert doc["checks"][0]["status"] == "PASS"
    assert "W-delta: PASS" in res.stderr


def test_verify_csv_output():
    res = _run("verify", "kernel-identities")
    assert res.exit_code == 0
    rows = _csv_rows(res.stdout)
    assert [r["id"] for r in rows] == ["e1", "e2", "r1", "r2"]
    assert rows[3]["status"] == "DOCUMENTED_MISMATCH"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
def test_out_write_error_is_a_one_line_error():
    # a failed write once ended in a traceback, after the whole command ran
    res = _run("--out", "/dev/full", "eval", "S", "--nu", "0", "--x", "1")
    assert (res.exit_code, res.stdout) == (1, "")
    assert res.stderr == "Error: cannot write '/dev/full': No space left on device\n"


def test_verify_csv_out_file_matches_stdout(tmp_path):
    out = tmp_path / "report.csv"
    assert _run("--out", str(out), "verify", "kernel-identities").exit_code == 0
    assert out.read_text() == _run("verify", "kernel-identities").stdout


def test_verify_unknown_suite_is_usage_error():
    assert _run("verify", "nonexistent").exit_code == 2


def test_verify_failure_exit_code():
    res = _run("--tol", "1e-30", "verify", "kernel-identities")
    assert res.exit_code == 1


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=repr)
def test_bad_tol_is_usage_error(tol):
    # nan, 0 and -1 once failed every check with exit 1, and inf passed
    # every one; the parser itself refuses what is not a float
    res = _run(f"--tol={tol}", "verify", "kernel-identities")
    assert res.exit_code == 2, res.output
    if type(tol) in (int, float):
        assert ("Error: bad --tol: the tolerance override must be a finite positive number, got "
                in res.stderr)
    assert res.exception is None or isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("args", [
    ["eval", "S", "--nu", "0", "--x", "1"],
    ["table", "S", "--nu", "0", "--x", "0:1:3"],
], ids=["eval", "table"])
@pytest.mark.parametrize("tol", ["nan", "1e-8"])
def test_tol_is_refused_outside_verify(args, tol):
    # eval and table have no tolerance to override: --tol, even nan, is a
    # usage error, never ignored
    res = _run("--tol", tol, *args)
    assert res.exit_code == 2, res.output
    assert f"Error: --tol applies to verify only, not to {args[0]}" in res.stderr
    assert res.stdout == ""


@pytest.mark.parametrize("grids, suite, empty", [
    ({"nu": []}, "msm-theorems", {"T1", "T2"}),
    ({"kernel_grid": [-10, 10, 0]}, "kernel-identities", {"e1", "e2"}),
], ids=["no-nu", "no-kernel-points"])
def test_check_without_points_fails(tmp_path, grids, suite, empty):
    # a check that evaluated no point once passed (T2: DOCUMENTED_MISMATCH)
    # and the run exited 0
    path = tmp_path / "grids.json"
    path.write_text(json.dumps(grids))
    res = _run("--format", "json", "--seed-grid", str(path), "verify", suite)
    assert res.exit_code == 1, res.output
    records = json.loads(res.stdout)["checks"]
    assert all(set(c) == {"id", "status", "max_rel_dev", "worst_point", "n_points"}
               for c in records)
    got = {c["id"]: (c["status"], c["n_points"]) for c in records}
    assert {i for i, (_, n) in got.items() if n == 0} == empty
    assert {i for i, (status, _) in got.items() if status == "FAIL"} == empty


def test_verify_seed_grid(tmp_path):
    grids = tmp_path / "grids.json"
    grids.write_text(json.dumps({"kernel_grid": [-1.0, 1.0, 3]}))
    res = _run("--format", "json", "--seed-grid", str(grids),
               "verify", "kernel-identities")
    assert res.exit_code == 0
    doc = json.loads(res.stdout)
    assert doc["checks"][0]["n_points"] == 3


@pytest.mark.parametrize("text, message", [
    ('{"term_cap": "abc"}', "term cap must be an integer in [1, 2147483647], got 'abc'"),
    ('{"term_cap": 3000000000}', "term cap must be an integer"),
    ('{"term_cap": 0}', "term cap must be an integer"),
    ('{"term_cap": 500.0}', "term cap must be an integer"),
    ('{"term_cap": true}', "term cap must be an integer"),
    ("[1, 2]", "a config file must hold a JSON object, not list"),
    ('{"tolerances": [1e-6]}', "tolerances must hold a JSON object, not list"),
    ('{"grids": 3}', "grids must hold a JSON object, not int"),
    ("{", "bad config: Expecting property name"),
])
def test_bad_config_is_usage_error(tmp_path, text, message):
    # once a traceback and exit 1, and a term cap past the C int ran on the
    # pure backend while the compiled one reported T1/T2 as ERROR
    path = tmp_path / "cfg.json"
    path.write_text(text)
    res = _run("--config", str(path), "verify", "msm-theorems")
    assert res.exit_code == 2, res.output
    assert message in res.stderr
    assert res.exception is None or isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("tol", ['"abc"', "-1e-08", "0", "0.0", "null", "true", "NaN",
                                 "Infinity", "-Infinity", "[1e-08]"])
def test_bad_config_tolerance_is_usage_error(tmp_path, tol):
    # "abc" once ended in a TypeError traceback with exit 1, and a negative
    # tolerance was taken and simply failed its checks
    path = tmp_path / "cfg.json"
    path.write_text('{"tolerances": {"kernel_exp": %s}}' % tol)
    res = _run("--config", str(path), "verify", "kernel-identities")
    assert res.exit_code == 2, res.output
    assert ("Error: bad config: tolerance 'kernel_exp' must be a finite positive number, got "
            in res.stderr)
    assert res.exception is None or isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("text", ["[1, 2]", '"grids"', "nope"])
def test_bad_seed_grid_config_is_usage_error(tmp_path, text):
    path = tmp_path / "grids.json"
    path.write_text(text)
    res = _run("--seed-grid", str(path), "verify", "kernel-identities")
    assert res.exit_code == 2, res.output
    assert "Error: bad config: " in res.stderr


@pytest.mark.parametrize("text, message", [
    ('{"tolerance": {"theorem_series": 1e-30}}', "unknown config key 'tolerance'"),
    ('{"tolerances": {"theorem_seires": 1e-30}}', "unknown tolerance key 'theorem_seires'"),
    ('{"grids": {"x_lfet": [5.0]}}', "unknown grid key 'x_lfet'"),
    ('{"grids": {"density_samples": -3}}', "grid 'density_samples' must be an int >= 0"),
])
def test_unknown_config_key_is_usage_error(tmp_path, text, message):
    # a misspelled key was once ignored: exit 0 with T1 PASS at the default
    # tolerance, where the tolerance spelled right fails T1-T6 and exits 1
    path = tmp_path / "cfg.json"
    path.write_text(text)
    res = _run("--config", str(path), "verify", "msm-theorems")
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert f"Error: bad config: {message}" in res.stderr
    path.write_text('{"tolerances": {"theorem_series": 1e-30}}')
    res = _run("--config", str(path), "verify", "msm-theorems")
    assert res.exit_code == 1 and "T1: FAIL" in res.stderr, res.output


@pytest.mark.parametrize("text, message", [
    ('{"x_lfet": [5.0]}', "unknown grid key 'x_lfet'"),
    ('{"density_samples": -3}', "grid 'density_samples' must be an int >= 0, got -3"),
    ('{"density_samples": 0.5}', "grid 'density_samples' must be an int >= 0, got 0.5"),
    ('{"density_seed": true}', "grid 'density_seed' must be an int, got True"),
])
def test_bad_seed_grid_key_is_usage_error(tmp_path, text, message):
    # {"density_samples": -3} once ran density-norm on its 3 named cases
    # alone, and passed
    path = tmp_path / "grids.json"
    path.write_text(text)
    res = _run("--seed-grid", str(path), "verify", "density")
    assert res.exit_code == 2, res.output
    assert f"Error: bad config: {message}" in res.stderr


def test_config_term_cap_limits(tmp_path):
    for cap in (1, 2**31 - 1):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"term_cap": cap}))
        res = _run("--format", "json", "--config", str(path), "verify", "msm-theorems")
        assert json.loads(res.stdout)["config"]["term_cap"] == cap
        # one term is too few for the Wright images
        assert res.exit_code == (1 if cap == 1 else 0), res.output


def test_verify_threads_matches_serial():
    a = _run("--format", "json", "verify", "msm-lemmas")
    b = _run("--format", "json", "--threads", "3", "verify", "msm-lemmas")
    da, db = json.loads(a.stdout), json.loads(b.stdout)
    da.pop("wall_ms")
    db.pop("wall_ms")
    assert da == db


def test_cli_import_leaves_the_harness_unloaded():
    # eval and table never need the verification harness, and a cold eval of
    # S, J-L or wright never needs the operators, the quadrature or fractions;
    # the package's exports still all resolve, the lazy ones on first access
    src = os.path.dirname(os.path.dirname(bsfrac.__file__))
    code = ("import sys, bsfrac.cli\n"
            "print(sorted(m for m in ('bsfrac.checks', 'bsfrac.msm', 'bsfrac.pathway',\n"
            "                         'bsfrac.quadrature', 'fractions') if m in sys.modules))\n"
            f"print(sorted(m for m in {UNUSED_BY_EVAL!r} if m in sys.modules))\n"
            "names = {}\n"
            "exec('from bsfrac import *', names)\n"
            "print(sorted(set(bsfrac.__all__) - set(names)), "
            "sorted(set(bsfrac.__all__) - set(dir(bsfrac))))\n"
            "print(all(getattr(bsfrac, n) is names[n] for n in bsfrac.__all__))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.split("\n")[:4] == ["[]", "[]", "[] []", "True"]
    assert bsfrac.msm_power_image is bsfrac.msm.msm_power_image
    with pytest.raises(AttributeError):
        bsfrac.no_such_name


# modules a cold eval has no use for: the CLI's parser is its own, only
# verify and --format json write JSON or CSV through the stdlib, and the
# value classes are named tuples, not dataclasses (which import inspect)
UNUSED_BY_EVAL = ("argparse", "click", "csv", "dataclasses", "inspect", "json")


def test_cold_eval_loads_no_parser_json_or_csv():
    # nor dataclasses, inspect or the quadrature, for one eval of each kind
    # of function: a kernel, a Wright series, a left and a right MSM image,
    # a pathway image and the density; each child prints what the
    # in-process eval prints
    src = os.path.dirname(os.path.dirname(bsfrac.__file__))
    unused = UNUSED_BY_EVAL + ("bsfrac.quadrature",)
    code = ("import sys\nfrom bsfrac.cli import main\nmain()\n"
            f"print(sorted(m for m in {unused!r} if m in sys.modules))")
    for args in [
        ("S", "--nu", "0.25", "--x", "1"),
        ("wright", "--upper", "-0.5,1", "--lower", "1,1", "--x", "0.5"),
        ("msm-left", *_MSM, "--rho", "1.5", "--kind", "bs", "--nu", "0.25", "--x", "1"),
        ("msm-right", *_MSM, "--rho", "-1.3", "--kind", "monomial", "--x", "2"),
        ("pathway", *_PATHWAY, "--rho", "1.1", "--kind", "bs", "--nu", "0.25", "--x", "0.5"),
        ("density", *(f"--{k}={v}" for k, v in PARAM_OPTS["density"].items())),
    ]:
        proc = subprocess.run([sys.executable, "-c", code, "eval", *args], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == _run("eval", *args).stdout + "[]\n", args


def test_python_dash_m_version():
    src = os.path.dirname(os.path.dirname(bsfrac.__file__))
    proc = subprocess.run([sys.executable, "-m", "bsfrac", "--version"], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "bsfrac, version 0.1.0\n", "")


def test_closed_pipe_ends_quietly():
    # as under `bsfrac table ... | head -1`: the rows (some 300 kB, more
    # than a pipe holds) meet a closed pipe, which ends the call with exit
    # 0 and no traceback, as it did with click
    src = os.path.dirname(os.path.dirname(bsfrac.__file__))
    proc = subprocess.Popen([sys.executable, "-m", "bsfrac", "table", "S", "--nu", "0.25",
                             "--x", "0:10:5000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=src))
    assert proc.stdout.readline() == b"x,value,abs_error_est\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_package_has_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


_S_ROW = "1.8227744417740559,3.5478061177012593e-14,17"
# (args, exit code, stdout) as the click-based CLI gave them: values that
# look like options, the "=" form, a repeated option and global options
PARSER_PARITY = [
    (("eval", "S", "--nu", "0.25", "--x", "-1e-3"), 0,
     "value,abs_error_est,terms_used\n0.99944378205256956,2.5948528509730314e-15,55\n"),
    (("table", "S", "--nu", "0.25", "--x", "-1:-5:3"), 0,
     "x,value,abs_error_est\n-1,0.60002604077676946,2.6947765822834366e-15\n"
     "-3,0.28002846453552493,1.3556891605760512e-15\n"
     "-5,0.17001467996128547,7.9075629880614306e-16\n"),
    (("eval", "wright", "--upper", "-0.5,1", "--lower", "1,1", "--x", "0.5"), 0,
     "value,abs_error_est,terms_used\n-2.5982883082459076,2.5323400621260713e-14,13\n"),
    (("eval", "S", "--nu", "-inf", "--x", "1"), 2, ""),
    (("eval", "S", "--nu=0.25", "--x=1"), 0, f"value,abs_error_est,terms_used\n{_S_ROW}\n"),
    (("eval", "S", "--nu", "0.1", "--nu", "0.25", "--x", "1"), 0,
     f"value,abs_error_est,terms_used\n{_S_ROW}\n"),
    (("eval", "--x", "1", "S", "--nu", "0.25"), 0, f"value,abs_error_est,terms_used\n{_S_ROW}\n"),
    (("--format", "json", "--threads", "2", "eval", "S", "--nu", "0.25", "--x", "1"), 0,
     '[\n  {\n    "value": 1.822774441774056,\n    "abs_error_est": 3.547806117701259e-14,\n'
     '    "terms_used": 17\n  }\n]\n'),
    (("--version",), 0, "bsfrac, version 0.1.0\n"),
]


@pytest.mark.parametrize("args, code, stdout", PARSER_PARITY,
                         ids=[" ".join(args) for args, _, _ in PARSER_PARITY])
def test_parser_keeps_the_click_grammar(args, code, stdout):
    res = _run(*args)
    assert (res.exit_code, res.stdout) == (code, stdout), res.output
    if code == 2:
        assert res.stderr.splitlines()[-1] == "Error: kernel order must satisfy nu > -1, got -inf"


@pytest.mark.parametrize("command, options", [
    (None, ["--version", "--tol", "--format", "--out", "--threads", "--seed-grid", "--config"]),
    ("eval", ["--x", "--nu", "--lam", "--kind", "--gamma-shape", "--upper", "--lower"]),
    ("table", ["--x", "--nu", "--lam", "--kind", "--gamma-shape", "--upper", "--lower"]),
    ("verify", []),
])
def test_help_lists_the_options(command, options):
    words = [command] if command else []
    res = _run(*words, "--help")
    assert (res.exit_code, res.stderr) == (0, ""), res.output
    assert res.stdout.startswith(" ".join(["Usage: bsfrac", *words, "[OPTIONS] "]))
    for name in [*options, "--help"]:
        assert f"\n  {name} " in res.stdout, name
    if command in ("eval", "table"):
        assert "[required]" in res.stdout


def _csv_writer_text(headers, rows):
    # what eval and table wrote through csv.writer, each value as "%.17g"
    # if a float and str() otherwise, before rows became one template
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue().rstrip("\n") + "\n"


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan,
                1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308,
                0.1, 1e16, 1e17, 123456789012345680.0]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # one twin a run
@given(table=st.one_of(
    st.lists(st.tuples(_FLOATS, _FLOATS, st.integers(0, 2 ** 53)), min_size=1, max_size=4)
    .map(lambda rows: (["value", "abs_error_est", "terms_used"], rows)),
    st.lists(st.tuples(_FLOATS, _FLOATS, _FLOATS), min_size=1, max_size=4)
    .map(lambda rows: (["x", "value", "abs_error_est"], rows))))
def test_row_template_matches_csv_writer(backend, table):
    from bsfrac.cli import _emit

    headers, rows = table
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):  # _emit takes the rows' values in one flat list
        _emit({"format": "csv", "out": None}, headers, [v for row in rows for v in row])
    assert buf.getvalue() == _csv_writer_text(headers, rows)


def test_csv_uses_17_significant_digits():
    res = _run("table", "S", "--nu", "0.5", "--x", "1:1:1")
    value = _csv_rows(res.stdout)[0]["value"]
    mantissa = value.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
    assert len(mantissa) >= 16


_MSM = ("--alpha", "0.3", "--alpha-prime", "0.2", "--beta", "0.1", "--beta-prime", "0.4",
        "--gamma", "1.1")
_PATHWAY = ("--eta", "0.5", "--a", "1.3", "--pathway-alpha", "0.4")
# every function of the CLI, with options and a sweep range
SWEEPS = {
    "S": (("--nu", "0.25"), "-3:5:7"),
    "J": (("--nu", "0.3"), "0:12:7"),
    "I": (("--nu", "0.7"), "0:6:7"),
    "H": (("--nu", "0.3"), "0:12:7"),
    "L": (("--nu", "0.7"), "0:6:7"),
    "wright": (("--upper", "0.5,0.5;1.2,1", "--lower", "1.25,0.5;1.9,1"), "-6:6:7"),
    "msm-left": (_MSM + ("--rho", "1.5", "--kind", "bs", "--nu", "0.25"), "0.25:3:7"),
    "msm-right": (_MSM + ("--rho", "-1.3", "--kind", "exp"), "0.5:4:7"),
    "pathway": (_PATHWAY + ("--rho", "1.1", "--kind", "bs", "--nu", "0.25"), "0.25:2:7"),
    "density": (("--gamma-shape", "1.5", "--delta", "1.5", "--beta-shape", "2.0", "--a", "0.8",
                 "--pathway-alpha", "0.4"), "-1.5:1.5:7"),
}


def test_sweeps_cover_every_function():
    from bsfrac.cli import FUNCTIONS
    assert sorted(SWEEPS) == sorted(FUNCTIONS)


@pytest.mark.parametrize("function", sorted(SWEEPS))
def test_sweep_rows_match_eval(function):
    # a table builds its function once per sweep; each row must still be
    # the eval at that x, byte for byte
    opts, grid = SWEEPS[function]
    res = _run("table", function, "--x", grid, *opts)
    assert res.exit_code == 0, res.output
    rows = _csv_rows(res.stdout)
    assert len(rows) == 7
    for row in rows:
        one = _run("eval", function, f"--x={float(row['x'])!r}", *opts)
        assert one.exit_code == 0, one.output
        [point] = _csv_rows(one.stdout)
        assert (point["value"], point["abs_error_est"]) == (row["value"], row["abs_error_est"])


# a density whose k = a(1-alpha) underflows to 0: its values are 0 with an
# infinite bound, which bounds nothing
_TINY_K = ("--gamma-shape", "1", "--delta", "1", "--beta-shape", "1", "--a", "5e-324",
           "--pathway-alpha", "0.5")
# (args, exit code, stdout is empty, stderr line); x <= 0 in an operator
# image is a usage error
SWEEP_ERRORS = [
    (("table", "msm-left", "--rho", "1.5", "--x", "1:2:3"), 2, True,
     "Error: missing required option(s): --gamma"),
    (("table", "wright", "--upper", "1,1", "--lower", "1,1", "--x", "1:800:3"), 1, True,
     "Error: wright at x=800.0: wright series at z=800.0 exceeds double range"),
    (("table", "msm-left", "--gamma", "1.1", "--rho", "1.5", "--kind", "bs", "--nu", "200",
      "--x", "2:3:3"), 1, True, "Error: msm-left at x=2.0: math range error"),
    (("table", "S", "--nu", "-0.75", "--x=-1:-5:3"), 1, False,
     "Error: S did not converge at 1 point(s), first x=-1.0"),
    (("eval", "msm-left", "--x=-1", "--alpha", "0.3", "--gamma", "1.1", "--rho", "1.5"), 2, True,
     "Error: images are defined for x > 0, got x=-1.0"),
    (("eval", "msm-right", "--x=-1", "--alpha", "0.3", "--gamma", "1.1", "--rho", "-1.5"), 2,
     True, "Error: images are defined for x > 0, got x=-1.0"),
    (("eval", "pathway", "--x", "0", *_PATHWAY, "--rho", "1.1"), 2, True,
     "Error: images are defined for x > 0, got x=0.0"),
    (("table", "msm-left", "--x=1:-1:3", "--alpha", "0.3", "--gamma", "1.1", "--rho", "1.5",
      "--kind", "bs", "--nu", "0.25"), 2, True,
     "Error: images are defined for x > 0, got x=0.0"),
    (("table", "pathway", "--x=-1:1:3", *_PATHWAY, "--rho", "1.1"), 2, True,
     "Error: images are defined for x > 0, got x=-1.0"),
    (("eval", "J", "--nu", "-0.5", "--x", "0"), 1, False,
     "Error: J at x=0.0 is not finite in double precision"),
    (("table", "H", "--nu", "-1.2", "--x", "0:1:3"), 1, False,
     "Error: H is not finite in double precision at 1 point(s), first x=0.0"),
    (("eval", "density", *_TINY_K, "--x", "1"), 1, False,
     "Error: density at x=1.0 did not converge"),
    (("table", "density", *_TINY_K, "--x", "0:1:3"), 1, False,
     "Error: density did not converge at 3 point(s), first x=0.0"),
]


@pytest.mark.parametrize("args, code, no_rows, message", SWEEP_ERRORS)
def test_sweep_error_paths(args, code, no_rows, message):
    res = _run(*args)
    assert res.exit_code == code, res.output
    assert (res.stdout == "") == no_rows
    assert message in res.stderr.splitlines()
    assert "Traceback" not in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_tiny_k_density_bound_is_inf_at_zero(backend):
    # the norm constant's log half-width is infinite, and the bound at x = 0
    # reads inf as at the other points, where it once was 0 * inf = NaN
    res = _run("table", "density", *_TINY_K, "--x", "0:1:3")
    assert res.exit_code == 1, res.output
    assert res.stdout == "x,value,abs_error_est\n0,0,inf\n0.5,0,inf\n1,0,inf\n"


@pytest.mark.parametrize("args, order", [
    (("table", "I", "--nu", "1e306", "--x", "0:1:3"), "1e+306"),
    (("table", "S", "--nu", "1e305", "--x", "0:1:3"), "1e+305"),
    (("eval", "S", "--nu", "inf", "--x", "0"), "inf"),
], ids=["I-1e306", "S-1e305", "S-inf"])
def test_order_past_the_rounding_limit_is_a_usage_error(backend, args, order):
    # no bound holds where the order's rounding units overflow, even at
    # x = 0: a usage error, as --nu -2 is
    res = _run(*args)
    assert (res.exit_code, res.stdout) == (2, ""), res.output
    assert res.stderr.splitlines()[-1] == (
        f"Error: order {order} is too large: its series' rounding exceeds double range")


@pytest.mark.parametrize("args, row", [
    (("eval", "S", "--nu", "0.25", "--x", "5e-324"), "1,5.6908097199081797e-15,2"),
    (("eval", "wright", "--upper", "0.5,0.5;1.2,1", "--lower", "1.25,0.5;1.9,1",
      "--x", "5e-324"), "9.8813129168249309e-324,2"),
], ids=["S", "wright"])
def test_eval_at_the_smallest_subnormal_stops_after_two_terms(backend, args, row):
    # the stop tests must not halve the subnormal last term, which rounds
    # it to 0, below which no term lies
    res = _run(*args)
    assert res.exit_code == 0, res.output
    assert res.stdout.splitlines()[1].endswith(row), res.stdout


@pytest.mark.parametrize("function", ["msm-left", "pathway", "wright", "density", "S", "I",
                                      "J", "H", "L"])
def test_sweep_builds_once(function, monkeypatch):
    # the gamma-argument tables, Wright specs and density norm constants
    # are built once per sweep, whatever its length, and so are the gamma
    # units of the S, J, I, H and L rounding bounds, which the series
    # wrappers keep per order (each count starts from empty caches)
    from bsfrac import msm, pathway, series
    from bsfrac.wright import WrightSpec

    builds = []

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            builds.append(name)
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(msm, "_gamma_args")
    counted(pathway, "_table")
    counted(pathway, "pathway_norm_const")
    counted(WrightSpec, "__new__")
    counted(series, "_gamma_units")
    opts, grid = SWEEPS[function]
    start, stop, _ = grid.split(":")
    counts = []
    # the one point at the end of the range, where S (u > 0) has a rounding term
    for first, count in ((stop, 1), (start, 200)):
        series._order_units.cache_clear()
        series._bs_prefactor_units.cache_clear()
        builds.clear()
        assert _run("table", function, "--x", f"{first}:{stop}:{count}", *opts).exit_code == 0
        counts.append(sorted(builds))
    assert counts[0] == counts[1] != []


@pytest.mark.parametrize("function", sorted(SWEEPS))
def test_sweep_checks_limits_once(function, monkeypatch):
    # a table checks its x-free tolerance and term cap once a row, not once
    # a point; the density has neither
    from bsfrac import series, wright

    calls, check = [], series.check_limits

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(series, "check_limits", counted)
    monkeypatch.setattr(wright, "check_limits", counted)
    opts, grid = SWEEPS[function]
    assert _run("table", function, "--x", grid, *opts).exit_code == 0
    assert len(calls) == (function != "density")


def _row_and_one_point(function, args):
    """The CLI's row evaluator of ``table function *args`` and the public
    one-point call behind it: x -> SeriesEval fields, or the density's
    (value, bound, 1, bound is finite)."""
    from bsfrac import cli
    from bsfrac.pathway import PathwayDensityParams, _density

    table = cli.COMMANDS["table"][1]
    raw, _, free = cli._parse(table, [function, "--x", "0:1:2", *args], True)
    opts = cli._convert(table, raw, free)
    row = cli._evaluator(function, opts)
    nu, modified = opts["nu"], function in ("I", "L")
    if function == "S":
        return row, lambda x: bsfrac.bessel_struve_kernel(nu, x)
    if function in ("J", "I"):
        return row, lambda x: bsfrac.bessel_first_kind(nu, x, modified)
    if function in ("H", "L"):
        return row, lambda x: bsfrac.struve(nu, x, modified)
    if function == "wright":
        return row, lambda x: bsfrac.wright_eval(row.args[0], x)
    if function != "density":
        return row, row.__self__.value_at  # the image's bound value_row
    dp = PathwayDensityParams(*(opts[n] for n in PathwayDensityParams._fields))
    density = _density(dp)

    def density_point(x):
        value = bsfrac.pathway_density(dp, x)
        bound = density(x, True)[1]
        return value, bound, 1, bound < math.inf

    return row, density_point


# the x of a row: ordinary points and those where a point fails or takes
# another route (x <= 0, below 2**-1021, overflowing, not finite)
_ROW_XS = st.lists(st.one_of(
    st.floats(-30.0, 30.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 800.0, 1e300, -1e300, math.inf, -math.inf,
                     math.nan])), min_size=1, max_size=6)


@pytest.mark.parametrize("function", sorted(SWEEPS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # one twin a run
@given(xs=_ROW_XS, nu=st.sampled_from([None, -1.2, -1.0, -0.75, -0.5, 0.0, 2.3]))
def test_row_matches_one_point_calls(backend, function, xs, nu):
    # each point of a row is the one-point call at its x, by repr; a row
    # stops at its first failing point with that point's error class and
    # message, holding the points before it
    opts = SWEEPS[function][0]
    if nu is not None and "--nu" in opts:
        opts = (*opts, "--nu", repr(nu))  # the last --nu is kept
    try:
        row, one = _row_and_one_point(function, opts)
    except bsfrac.BsfracError:
        return  # refused while the row is built, before any point
    out, error = [], None
    try:
        returned = row(xs, out)
    except Exception as exc:  # any error: the one-point calls must raise the same
        returned, error = out, exc
    assert returned is out
    for i, x in enumerate(xs):
        try:
            want = one(x)
        except Exception as exc:
            assert (type(error), str(error), len(out)) == (type(exc), str(exc), i), (xs, x)
            break
        assert repr(out[i]) == repr(tuple(want)), (xs, x)
    else:
        assert error is None and len(out) == len(xs)


# runs the CLI in process on each argument list of argv[1] and prints
# [exit code, stdout, stderr] of each
_CLI_CHILD = """
import json, sys
from conftest import run_cli
runs = [run_cli(args) for args in json.loads(sys.argv[1])]
print(json.dumps([[r.exit_code, r.stdout, r.stderr] for r in runs]))
"""


@pytest.mark.parametrize("function, opts", [
    *((f, SWEEPS[f][0]) for f in sorted(SWEEPS)),
    ("msm-right", _MSM + ("--rho", "-1.3", "--kind", "bs", "--nu", "0.25")),
    ("density", ("--gamma-shape", "1", "--delta", "2", "--beta-shape", "1", "--a", "1",
                 "--pathway-alpha", "1.6")),
], ids=[*sorted(SWEEPS), "msm-right-bs", "density-super"])
def test_non_finite_x_is_usage_error(function, opts):
    # eval and table at x = inf, -inf and NaN, in a child process with a
    # timeout, so that a hang (an operator quadrature once looped forever
    # at x = inf) fails instead of stalling the suite
    argvs = [[command, function, f"--x={x}" if command == "eval" else f"--x={x}:{x}:1", *opts]
             for command in ("eval", "table") for x in ("inf", "-inf", "nan")]
    tests = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(tests, "..", "src"), tests]))
    proc = subprocess.run([sys.executable, "-c", _CLI_CHILD, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    for argv, (code, stdout, stderr) in zip(argvs, json.loads(proc.stdout)):
        assert code == 2, (argv, stdout, stderr)
        assert stdout == "" and stderr.splitlines()[-1].startswith("Error: "), (argv, stderr)


_CHOICES = "'S', 'J', 'I', 'H', 'L', 'wright', 'msm-left', 'msm-right', 'pathway', 'density'"
# (args, the last stderr line) of usage errors, in the words of the
# click-based CLI; "missing.json" and "missing" do not exist, "a-dir" is a
# directory and "a-file" a file
USAGE_ERRORS = [
    (("eval", "S", "--nu", "0", "--x", "1", "--bogus"), "Error: No such option '--bogus'."),
    (("--form", "json", "eval", "S", "--nu", "0", "--x", "1"),
     "Error: No such option '--form'. Did you mean '--format'?"),
    (("eval", "S", "--n", "0", "--x", "1"),
     "Error: No such option '--n'. (Did you mean one of: '--kind', '--nu', '--x'?)"),
    (("eval", "-x", "1"), "Error: No such option '-x'."),
    (("eval", "S", "--nu", "0.25", "--x"), "Error: Option '--x' requires an argument."),
    (("--threads",), "Error: Option '--threads' requires an argument."),
    (("--help=1",), "Error: Option '--help' does not take a value."),
    (("eval", "Q", "--nu", "0", "--x", "1"),
     "Error: Invalid value for '{S|J|I|H|L|wright|msm-left|msm-right|pathway|density}': "
     f"'Q' is not one of {_CHOICES}."),
    (("eval", "msm-left", "--gamma", "1", "--rho", "1", "--kind", "zzz", "--x", "1"),
     "Error: Invalid value for '--kind': 'zzz' is not one of 'bs', 'exp', 'expm1-over-t', "
     "'i0-plus-l0', 'monomial', 'two-i1-plus-two-l1-over-t'."),
    (("--format", "xml", "eval", "S", "--nu", "0", "--x", "1"),
     "Error: Invalid value for '--format': 'xml' is not one of 'csv', 'json'."),
    (("--threads", "1.5", "eval", "S", "--nu", "0", "--x", "1"),
     "Error: Invalid value for '--threads': '1.5' is not a valid integer."),
    (("eval", "S", "--nu", "abc", "--x", "1"),
     "Error: Invalid value for '--nu': 'abc' is not a valid float."),
    (("eval", "S", "--nu", "0.25"), "Error: Missing option '--x'."),
    (("--seed-grid", "missing.json", "verify"),
     "Error: Invalid value for '--seed-grid': File 'missing.json' does not exist."),
    (("--config", "missing.json", "verify"),
     "Error: Invalid value for '--config': File 'missing.json' does not exist."),
    (("--config", "a-dir", "verify"), "Error: Invalid value for '--config': File 'a-dir' is a directory."),
    (("--out", "a-dir", "eval", "S", "--nu", "0", "--x", "1"),
     "Error: Invalid value for '--out': File 'a-dir' is a directory."),
    (("--out", "missing/f.csv", "eval", "S", "--nu", "0", "--x", "1"),
     "Error: Invalid value for '--out': Directory 'missing' does not exist."),
    (("--format", "json", "--out", "missing/x.json", "verify", "wright"),
     "Error: Invalid value for '--out': Directory 'missing' does not exist."),
    (("--out", "a-file/o.csv", "table", "S", "--nu", "0", "--x", "0:1:3"),
     "Error: Invalid value for '--out': 'a-file' is not a directory."),
    (("eval", "wright", "--upper", "1,2,3", "--lower", "1,1", "--x", "1"),
     "Error: bad pair list '1,2,3'; use 'a,A;b,B'"),
    (("table", "S", "--x", "a:b:3"), "Error: bad range 'a:b:3'; use start:stop:count"),
    (("verify", "nosuch"), "Error: unknown suite 'nosuch'; choose from all, density, "
     "kernel-identities, msm-lemmas, msm-theorems, pathway, wright"),
    (("nocmd",), "Error: No such command 'nocmd'."),
    (("--format", "json"), "Error: Missing command."),
    (("eval", "S", "--nu", "0", "--x", "1", "--format", "json"), "Error: No such option '--format'."),
    (("eval", "S", "--nu", "0", "--x", "1", "extra"), "Error: Got unexpected extra argument (extra)"),
    (("verify", "wright", "a", "b"), "Error: Got unexpected extra arguments (a b)"),
    (("eval", "S", "--x", "1", "--", "--nu"), "Error: Got unexpected extra argument (--nu)"),
]


@pytest.mark.parametrize("args, message", USAGE_ERRORS,
                         ids=[" ".join(args) for args, _ in USAGE_ERRORS])
def test_usage_errors(args, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "a-file").write_text("")
    res = _run(*args)
    assert (res.exit_code, res.stdout) == (2, ""), res.output
    assert res.stderr.splitlines()[-1] == message
    assert isinstance(res.exception, SystemExit)


def test_missing_function_lists_the_choices():
    res = _run("eval", "--nu", "0", "--x", "1")
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr.endswith(
        "Error: Missing argument '{S|J|I|H|L|wright|msm-left|msm-right|pathway|density}'. "
        "Choose from:\n\tS,\n\tJ,\n\tI,\n\tH,\n\tL,\n\twright,\n\tmsm-left,\n\tmsm-right,"
        "\n\tpathway,\n\tdensity\n")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="at lam < 0 the image's Wright series cancels, and the value is "
                          "printed as converged with exit 0 (ROADMAP item 2)")
def test_eval_negative_lam_image_is_not_a_silent_wrong_answer(backend):
    from test_msm import MSM_LEFT_LAM_MINUS_ONE_AT_40
    res = _run("eval", "msm-left", "--alpha", "0.3", "--alpha-prime", "0.2", "--beta", "0.1",
               "--beta-prime", "0.4", "--gamma", "1.1", "--rho", "1.5", "--nu", "0.25",
               "--lam", "-1", "--kind", "bs", "--x", "40")
    if res.exit_code == 0:
        row = _csv_rows(res.stdout)[0]
        err = abs(float(row["value"]) - MSM_LEFT_LAM_MINUS_ONE_AT_40)
        assert err <= float(row["abs_error_est"]), row
