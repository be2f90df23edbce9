"""Acceptance suite: every library-level guarantee at its stated
tolerance, one printed pass/fail line per criterion (visible with -s).
"""

import json
import math

from bsfrac import (
    FunctionKind,
    MsmParams,
    PathwayParams,
    Side,
    WrightSpec,
    bessel_first_kind,
    bessel_struve_kernel,
    msm_bs_closed_form,
    msm_power_image,
    msm_quadrature,
    pathway_bs_closed_form,
    pathway_power_image,
    pathway_quadrature,
    struve,
    wright_delta,
    wright_eval,
)
from bsfrac.checks import _termwise_image, run_suite
from bsfrac.msm import _gamma_args

import oracles


def _report(label, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] {label}")
    assert not failures, f"{label}: {failures[:3]}"


def _rel(a, b):
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def test_criterion_01_kernel_exponential_identities():
    failures = []
    for u in oracles.linspace(-10.0, 10.0, 41):
        d = _rel(bessel_struve_kernel(-0.5, u).value, math.exp(u))
        if d > 1e-12:
            failures.append(("order -1/2", u, d))
        want = 1.0 if u == 0.0 else math.expm1(u) / u
        d = _rel(bessel_struve_kernel(0.5, u).value, want)
        if d > 1e-12:
            failures.append(("order 1/2", u, d))
    _report("criterion 1: kernel equals exp and (exp-1)/x on [-10,10] at 1e-12",
            failures)


def test_criterion_02_relation_suite():
    failures = []
    for u in oracles.linspace(0.5, 20.0, 40):
        i0 = bessel_first_kind(0.0, u, modified=True).value
        l0 = struve(0.0, u, modified=True).value
        if _rel(bessel_struve_kernel(0.0, u).value, i0 + l0) > 1e-10:
            failures.append(("order 0", u))
        i1 = bessel_first_kind(1.0, u, modified=True).value
        l1 = struve(1.0, u, modified=True).value
        if _rel(bessel_struve_kernel(1.0, u).value, 2.0 * (i1 + l1) / u) > 1e-10:
            failures.append(("order 1 corrected", u))
    s1 = bessel_struve_kernel(1.0, 1.0).value
    i1 = bessel_first_kind(1.0, 1.0, modified=True).value
    l1 = struve(1.0, 1.0, modified=True).value
    if _rel((2.0 * i1 + l1) / 1.0, s1) <= 0.01:
        failures.append(("uncorrected variant should deviate >1% at u=1",))
    _report("criterion 2: order-0/1 relations at 1e-10; variant form deviates",
            failures)


def test_criterion_03_power_images_vs_quadrature():
    failures = []
    rep = run_suite("msm-lemmas").to_dict()
    for check in rep["checks"]:
        if check["n_points"] < 50:
            failures.append((check["id"], "grid too small", check["n_points"]))
        if check["max_rel_dev"] > 1e-8:
            failures.append((check["id"], check["max_rel_dev"]))
        expected = "PASS" if check["id"] == "L1" else "DOCUMENTED_MISMATCH"
        if check["status"] != expected:
            failures.append((check["id"], check["status"]))
    img = msm_power_image(Side.LEFT, MsmParams(0, 0, 0, 0, 1.0), 2.0)
    if _rel(img.value_at(3.0).value, 4.5) > 1e-14:
        failures.append(("left degenerate image",))
    quad = msm_quadrature(Side.LEFT, MsmParams(0, 0, 0, 0, 1.0),
                          FunctionKind.monomial(2.0), 3.0)
    if _rel(quad.value, 4.5) > 1e-14:
        failures.append(("left degenerate quadrature",))
    img = msm_power_image(Side.RIGHT, MsmParams(0, 0, 0, 0, 1.0), -1.0)
    if _rel(img.value_at(2.0).value, 0.5) > 1e-14:
        failures.append(("right degenerate image",))
    quad = msm_quadrature(Side.RIGHT, MsmParams(0, 0, 0, 0, 1.0),
                          FunctionKind.monomial(-1.0), 2.0)
    if _rel(quad.value, 0.5) > 1e-14:
        failures.append(("right degenerate quadrature",))
    _report("criterion 3: power images match quadrature at 1e-8 over >=50 "
            "points; degenerate cases within 1e-14", failures)


def test_criterion_04_kernel_image_theorems():
    failures = []
    grid = [
        (MsmParams(0.3, 0.2, 0.1, 0.4, 1.1), 1.2, -2.0),
        (MsmParams(0.0, 0.0, 0.0, 0.0, 1.0), 1.5, -1.5),
        (MsmParams(0.2, 0.1, 0.25, 0.05, 1.5), 1.5, -2.0),
    ]
    for params, rho_l, rho_r in grid:
        for nu in (-0.5, 0.0, 0.25, 0.5, 1.0):
            for lam, x in ((0.5, 1.0), (1.0, 2.0)):
                img = msm_bs_closed_form(Side.LEFT, params,
                                         FunctionKind.bs_kernel(rho_l, nu, lam))
                if abs(lam * x) <= 2.0:
                    want = _termwise_image(_gamma_args(Side.LEFT, params, rho_l), nu, lam, x)
                    if _rel(img.value_at(x).value, want) > 1e-10:
                        failures.append(("left", nu, lam, x))
                img = msm_bs_closed_form(Side.RIGHT, params,
                                         FunctionKind.bs_kernel(rho_r, nu, lam))
                if abs(lam / x) <= 2.0:
                    want = _termwise_image(_gamma_args(Side.RIGHT, params, rho_r), nu, lam, x)
                    if _rel(img.value_at(x).value, want) > 1e-10:
                        failures.append(("right", nu, lam, x))
    left = MsmParams(0.4, 0.0, 0.3, 0.2, 0.9)
    kind = FunctionKind.bs_kernel(1.5, 0.5, 0.8)
    got = msm_bs_closed_form(Side.LEFT, left, kind).value_at(1.0).value
    if _rel(got, msm_quadrature(Side.LEFT, left, kind, 1.0).value) > 1e-7:
        failures.append(("left quadrature",))
    right = MsmParams(0.0, 0.2, 0.1, 0.4, 1.1)
    kind = FunctionKind.bs_kernel(-2.0, 0.25, 0.5)
    got = msm_bs_closed_form(Side.RIGHT, right, kind).value_at(2.0).value
    if _rel(got, msm_quadrature(Side.RIGHT, right, kind, 2.0).value) > 1e-7:
        failures.append(("right quadrature",))
    _report("criterion 4: kernel-image theorems match the 60-term termwise "
            "oracle at 1e-10 and quadrature at 1e-7", failures)


def test_criterion_05_special_cases_delegate():
    failures = []
    params = MsmParams(0.3, 0.2, 0.1, 0.4, 1.1)
    for family, nu in (("exp", -0.5), ("expm1_over_t", 0.5),
                       ("i0_plus_l0", 0.0), ("two_i1_plus_two_l1_over_t", 1.0)):
        for side, rho in ((Side.LEFT, 1.3), (Side.RIGHT, -2.0)):
            special = msm_bs_closed_form(side, params, FunctionKind(family, rho))
            general = msm_bs_closed_form(side, params,
                                         FunctionKind.bs_kernel(rho, nu, 1.0))
            if special != general:
                failures.append((family, side, "image"))
            if special.value_at(1.7) != general.value_at(1.7):
                failures.append((family, side, "value"))
    _report("criterion 5: named special cases delegate with zero deviation",
            failures)


def test_criterion_06_pathway_power_image():
    failures = []
    rep = run_suite("pathway").to_dict()
    l3 = next(c for c in rep["checks"] if c["id"] == "L3")
    if l3["status"] != "PASS" or l3["max_rel_dev"] > 1e-9:
        failures.append(("L3", l3["status"], l3["max_rel_dev"]))
    img = pathway_power_image(PathwayParams(1.0, 1.0, 0.0), 1.0)
    x = 1.7
    if img.value_at(x).value != 0.5 * x * x:
        failures.append(("exact x^2/2",))
    _report("criterion 6: pathway power image matches quadrature at 1e-9; "
            "unit case is exactly x^2/2", failures)


def test_criterion_07_pathway_theorems():
    failures = []
    params = PathwayParams(0.7, 1.3, 0.4)
    for nu in (-0.5, 0.0, 0.25, 0.5, 1.0):
        kind = FunctionKind.bs_kernel(1.1, nu, 0.5)
        img = pathway_bs_closed_form(params, kind)
        total = 0.0
        for n in range(60):
            pimg = pathway_power_image(params, 1.1 + n)
            total += (oracles.kernel_series_coeff(nu, n) * 0.5 ** n
                      * pimg.prefactor * 1.0 ** pimg.power_of_x)
        if _rel(img.value_at(1.0).value, total) > 1e-10:
            failures.append(("termwise", nu))
        got = img.value_at(1.0).value
        want = pathway_quadrature(params, kind, 1.0).value
        if _rel(got, want) > 1e-8:
            failures.append(("quadrature", nu))
    kind = FunctionKind.bs_kernel(1.1, 0.25, 0.0)
    r = pathway_bs_closed_form(params, kind).value_at(1.4)
    want = pathway_power_image(params, 1.1).value_at(1.4).value
    if r.terms_used != 1 or r.abs_error_est != 0.0 or _rel(r.value, want) > 1e-15:
        failures.append(("zero-scale reduction",))
    _report("criterion 7: pathway kernel images match termwise oracle at "
            "1e-10 and quadrature at 1e-8; zero scale reduces exactly",
            failures)


def test_criterion_08_wright_engine():
    failures = []
    for raw in ((0.3, 0.2, 0.1, 0.4, 1.1), (0.0, 0.0, 0.0, 0.0, 1.0),
                (0.5, 0.3, 0.2, 0.45, 1.3)):
        params = MsmParams(*raw)
        for side, rho in ((Side.LEFT, 1.3), (Side.RIGHT, -2.0)):
            img = msm_bs_closed_form(side, params,
                                     FunctionKind.bs_kernel(rho, 0.25, 1.0))
            if wright_delta(img.spec) != 0.0:
                failures.append(("delta", side))
    img = pathway_bs_closed_form(PathwayParams(0.7, 1.3, 0.4),
                                 FunctionKind.bs_kernel(1.1, 0.25, 1.0))
    if wright_delta(img.spec) != 0.0:
        failures.append(("delta", "pathway"))
    e_val = wright_eval(WrightSpec(((1.0, 1.0),), ((1.0, 1.0),)), 1.0).value
    if _rel(e_val, math.e) > 1e-12:
        failures.append(("unit 1Psi1",))
    base_spec = WrightSpec(((0.5, 0.5), (1.2, 1.0)), ((1.25, 0.5), (1.9, 1.0)))
    base = wright_eval(base_spec, 1.4).value
    for c, slope in ((0.7, 0.5), (1.3, 1.0), (2.2, 2.0)):
        padded = WrightSpec(((c, slope),) + base_spec.upper,
                            ((c, slope),) + base_spec.lower)
        if _rel(wright_eval(padded, 1.4).value, base) > 1e-12:
            failures.append(("pair insertion", c, slope))
    _report("criterion 8: generated specs are balanced, unit series equals e "
            "at 1e-12, pair insertion is neutral at 1e-12", failures)


def test_criterion_09_density_normalization():
    failures = []
    rep = run_suite("density").to_dict()
    check = rep["checks"][0]
    if check["status"] != "PASS":
        failures.append(("status", check["status"]))
    if check["max_rel_dev"] > 1e-6:
        failures.append(("norm deviation", check["max_rel_dev"]))
    if check["n_points"] < 33:  # 3 named + >=10 random per regime
        failures.append(("grid size", check["n_points"]))
    _report("criterion 9: densities normalize to 1 within 1e-6 in all three "
            "regimes", failures)


def test_criterion_10_determinism():
    failures = []
    a = run_suite("all").to_dict()
    b = run_suite("all").to_dict()
    a.pop("wall_ms")
    b.pop("wall_ms")
    if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
        failures.append(("rerun differs",))
    for check in a["checks"]:
        if check["status"] not in ("PASS", "DOCUMENTED_MISMATCH"):
            failures.append((check["id"], check["status"]))
    _report("criterion 10: suite reruns are bit-identical apart from timing",
            failures)
