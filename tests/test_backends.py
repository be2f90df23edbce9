"""Cross-checks between the compiled extension and its pure-Python twin.

The ``ck`` fixture compiles the tracked ``_ckernels.c``; the module skips
only when no C compiler is available.  The two backends share
branch structure but may differ by an ulp where libm and CPython's own
gamma implementations disagree, so comparisons are tight but not bitwise.
"""

import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bsfrac import _pykernels as pk

TIGHT = 5e-15


def _close(a, b, rel=TIGHT):
    if a == b:
        return True
    scale = max(abs(a), abs(b))
    return abs(a - b) <= rel * scale


def test_c_twin_compiles_without_warnings(tmp_path):
    # the C twin is written by hand: any warning of -Wall -Wextra fails
    from conftest import compile_ckernels
    proc = compile_ckernels(tmp_path / "_ckernels.so", "-Wall", "-Wextra", "-Werror")
    assert proc.returncode == 0, proc.stderr


def test_lgamma_sign_agrees(ck):
    rng = random.Random(99)
    pts = [rng.uniform(-170.0, 170.0) for _ in range(500)] + [0.5, -0.5, -1.5, 170.0]
    for x in pts:
        if x <= 0 and abs(x - round(x)) <= 1e-9:
            continue
        la_p, s_p = pk.lgamma_sign(x)
        la_c, s_c = ck.lgamma_sign(x)
        assert s_p == s_c
        assert _close(la_p, la_c) or abs(la_p - la_c) < 1e-12


def test_pole_predicate_agrees(ck):
    for x in (-3.0, -3.0 + 1e-13, -3.5, 0.0, 0.5, 2.0, -1e-13):
        assert pk.near_nonpositive_int(x) == ck.near_nonpositive_int(x)


@pytest.mark.parametrize("nu", [-0.5, -0.25, 0.0, 0.5, 1.0, 2.75])
@pytest.mark.parametrize("u", [-10.0, -3.3, -0.7, 0.0, 0.4, 2.0, 12.5])
def test_bs_series_agrees(ck, nu, u):
    vp = pk.bs_series(nu, u, 1e-15, 10000)
    vc = ck.bs_series(nu, u, 1e-15, 10000)
    assert (vp[2], vp[3]) == (vc[2], vc[3])  # identical term counts and flags
    assert _close(vp[0], vc[0]) and _close(vp[1], vc[1])


@pytest.mark.parametrize("nu", [0.25, 2.3, 9.7, -0.75])
@pytest.mark.parametrize("u", [-20.0, -40.0, -300.0, math.nan])
def test_bs_series_agrees_far_left(ck, nu, u):
    test_bs_series_agrees(ck, nu, u)


def test_bessel_struve_2f1_agree(ck):
    rng = random.Random(7)
    for _ in range(60):
        v = rng.uniform(-0.9, 3.0)
        z = rng.uniform(0.01, 10.0)
        m = rng.random() < 0.5
        # the oscillating series amplify one-ulp front-factor differences
        assert _close(pk.bessel_series(v, z, m, 1e-15, 10000)[0],
                      ck.bessel_series(v, z, m, 1e-15, 10000)[0], rel=1e-12)
        assert _close(pk.struve_series(v, z, m, 1e-15, 10000)[0],
                      ck.struve_series(v, z, m, 1e-15, 10000)[0], rel=1e-12)
        a, b, c = rng.uniform(0.1, 2), rng.uniform(0.1, 2), rng.uniform(0.5, 3)
        zz = rng.uniform(0.0, 0.7)
        assert _close(pk.hyp2f1_series(a, b, c, zz, 1e-15, 10000)[0],
                      ck.hyp2f1_series(a, b, c, zz, 1e-15, 10000)[0])


def test_hyp2f1_kernel_agrees(ck):
    rng = random.Random(13)
    for _ in range(80):
        a = rng.uniform(0.05, 0.6)
        b = rng.uniform(0.05, 0.6)
        c = rng.uniform(0.85, 1.6)
        if abs((c - a - b) - round(c - a - b)) < 0.1:
            continue
        z = rng.choice([rng.uniform(-50, 0.75), 1 - 10 ** -rng.uniform(1, 14)])
        wbar = 1.0 - z if z > 0 else 0.0
        assert _close(pk.hyp2f1_kernel(a, b, c, z, wbar),
                      ck.hyp2f1_kernel(a, b, c, z, wbar), rel=5e-13)


def test_wright_series_agrees(ck):
    ua, uA = (0.5, 1.2, 1.9), (0.5, 1.0, 1.0)
    lb, lB = (1.25, 1.4, 2.0), (0.5, 1.0, 1.0)
    for z in (-2.0, 0.0, 0.3, 1.7, 25.0):
        vp = pk.wright_series(ua, uA, lb, lB, z, 1e-14, 10000)
        vc = ck.wright_series(ua, uA, lb, lB, z, 1e-14, 10000)
        assert vp[3] == vc[3]
        assert vp[2] == vc[2]
        assert _close(vp[0], vc[0])
    # both stop at the first term beyond the double range: term 0 here, with
    # an upper pole at term 1, and for e^-800 the first k with 800^k/k! > DBL_MAX
    for args in (((-3.5,), (0.5,), (-171.5,), (0.0,), 0.5),
                 ((1.0,), (1.0,), (1.0,), (1.0,), -800.0)):
        vp = pk.wright_series(*args, 1e-14, 10000)
        vc = ck.wright_series(*args, 1e-14, 10000)
        assert vp[1:] == vc[1:] and vp[1] == math.inf
        assert not (math.isfinite(vp[0]) or math.isfinite(vc[0]))
    k0 = next(k for k in range(2000) if k * math.log(800.0) - math.lgamma(k + 1.0) > 709.79)
    assert k0 <= vp[2] <= k0 + 2


def test_f3_series_agrees(ck):
    rng = random.Random(17)
    for _ in range(30):
        a, ap, b, bp = (rng.uniform(0.1, 1.5) for _ in range(4))
        g = rng.uniform(0.8, 2.5)
        x, y = rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)
        vp = pk.f3_series(a, ap, b, bp, g, x, y, 1e-13, 10000)
        vc = ck.f3_series(a, ap, b, bp, g, x, y, 1e-13, 10000)
        assert _close(vp[0], vc[0])


def test_compiled_gamma_reconstruction_meets_bound(ck):
    # the accuracy contract must hold for the libm-backed route as well
    import oracles
    rng = random.Random(4242)
    pts = [rng.uniform(-170.0, 170.0) for _ in range(300)]
    for x in pts:
        if x <= 0 and abs(x - round(x)) <= 1e-6:
            continue
        la, s = ck.lgamma_sign(x)
        assert oracles.rel_err(s * math.exp(la), oracles.mp_gamma(x)) <= 1e-13


def test_verify_all_on_compiled_backend(compiled_pkg):
    import oracles
    env = dict(os.environ, PYTHONPATH=str(compiled_pkg))
    env.pop("BSFRAC_PURE_PYTHON", None)
    backend = subprocess.run(
        [sys.executable, "-c", "from bsfrac._backend import BACKEND; print(BACKEND)"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    assert backend == "compiled"
    proc = subprocess.run([sys.executable, "-m", "bsfrac", "--format", "json", "verify", "all"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    checks = json.loads(proc.stdout)["checks"]
    assert {c["id"]: (c["status"], c["n_points"]) for c in checks} == oracles.VERIFY_ALL


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_verify_all_report_is_pinned(backend, request):
    # every byte of `verify all` but its wall time, against the committed
    # report of each backend (tests/data/verify_all.<backend>.json); a change
    # that means to alter the report regenerates these files
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    if backend == "compiled":
        env["PYTHONPATH"] = str(request.getfixturevalue("compiled_pkg"))
        env.pop("BSFRAC_PURE_PYTHON", None)
    else:
        env["PYTHONPATH"] = str(tests.parent / "src")
        env["BSFRAC_PURE_PYTHON"] = "1"
    proc = subprocess.run([sys.executable, "-m", "bsfrac", "--format", "json", "verify", "all"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report, n = re.subn(r',\n  "wall_ms": [^\n]*\n', "\n", proc.stdout)
    assert n == 1
    assert report == (tests / "data" / f"verify_all.{backend}.json").read_text()


def test_cli_numerical_failures_on_compiled_backend(compiled_pkg):
    # the compiled kernels return inf where the pure ones overflow: both exit 1,
    # and so does a value flagged unconverged
    env = dict(os.environ, PYTHONPATH=str(compiled_pkg))
    env.pop("BSFRAC_PURE_PYTHON", None)
    for args in (["eval", "S", "--nu", "0.25", "--x", "800"],
                 ["eval", "wright", "--upper", "1,1", "--lower", "1,1", "--x", "800"],
                 ["eval", "S", "--nu", "-0.75", "--x", "-1"],
                 ["table", "S", "--nu", "-0.75", "--x=-1:-5:3"],
                 ["eval", "J", "--nu", "0", "--x", "1500"]):
        proc = subprocess.run([sys.executable, "-m", "bsfrac", *args], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1, (args, proc.stdout, proc.stderr)
        assert proc.stderr.startswith("Error: ")


def test_kernel_overflow_on_compiled_backend(compiled_pkg):
    env = dict(os.environ, PYTHONPATH=str(compiled_pkg))
    env.pop("BSFRAC_PURE_PYTHON", None)
    code = ("from bsfrac import _backend, bessel_struve_kernel as S\n"
            "for nu, u in ((-0.75, 710.0), (0.25, 800.0)):\n"
            "    try:\n"
            "        print(S(nu, u))\n"
            "    except OverflowError as exc:\n"
            "        print('OverflowError', exc)\n"
            "r = S(0.25, 700.0)\n"
            "print(r.converged, repr(r.value), _backend.BACKEND)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == ["OverflowError Bessel-Struve series at u=710.0 exceeds double range",
                   "OverflowError Bessel-Struve series at u=800.0 exceeds double range",
                   "True 6.410481518224758e+301 compiled"]


def _pytest_on_compiled(compiled_pkg, *args):
    # bsfrac is imported before pytest puts src/ on sys.path, so the tests
    # run on the compiled copy; the backend they ran on is printed last
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(compiled_pkg))
    env.pop("BSFRAC_PURE_PYTHON", None)
    code = ("import sys, pytest; from bsfrac import _backend; "
            "status = pytest.main(['-q', '-p', 'no:cacheprovider', *sys.argv[1:]]); "
            "print(_backend.BACKEND); sys.exit(status)")
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, cwd=tests.parent,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split()[-1] == "compiled"


def test_pinned_densities_on_compiled_backend(compiled_pkg):
    _pytest_on_compiled(compiled_pkg, "tests/test_pathway.py::test_density_values_are_pinned")


def test_density_error_bound_on_compiled_backend(compiled_pkg):
    _pytest_on_compiled(compiled_pkg, "tests/test_pathway.py::test_density_error_bound_holds")


def test_modified_error_bound_on_compiled_backend(compiled_pkg):
    _pytest_on_compiled(compiled_pkg, "tests/test_series.py::test_modified_error_bound_holds")


def test_wright_evaluator_on_compiled_backend(compiled_pkg):
    # the term table against the compiled kernel, bit for bit, its lgamma
    # count and its stop at the first overflowing term
    _pytest_on_compiled(compiled_pkg, "tests/test_wright.py", "-k", "evaluator")


def test_image_evaluator_on_compiled_backend(compiled_pkg):
    # the images' sweep path against value_at on the compiled kernel
    _pytest_on_compiled(compiled_pkg, "tests/test_msm.py", "-k", "image_evaluator")


def test_cli_sweeps_on_compiled_backend(compiled_pkg):
    # table rows against eval, the sweep error paths and the build counts
    _pytest_on_compiled(compiled_pkg, "tests/test_cli.py", "-k", "sweep")


def test_acceptance_suite_on_compiled_backend(compiled_pkg):
    _pytest_on_compiled(compiled_pkg, "tests/test_acceptance.py")
