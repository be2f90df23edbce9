import json
import math

import mpmath as mp
import pytest

from bsfrac import DomainError, PoleError, TermCapError, UnknownSuiteError
from bsfrac import _pykernels as pk
from bsfrac import checks, series
from bsfrac.checks import (
    CHECKS,
    SUITES,
    Config,
    _image_oracle,
    run_suite,
)
from bsfrac.gammacore import gamma_ratio
from bsfrac.msm import MsmParams, Side, _GammaTable, _gamma_args, msm_power_image
from bsfrac.pathway import PathwayParams, _table, pathway_power_image

import oracles

EXPECTED_IDS = {"L1", "L2", "L3", "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8",
                "e1", "e2", "r1", "r2", "W-delta", "density-norm"}


def _strip_wall(doc):
    doc = dict(doc)
    doc.pop("wall_ms")
    return doc


def test_all_suite_covers_every_identity():
    assert set(SUITES["all"]) == EXPECTED_IDS
    assert set(CHECKS) == EXPECTED_IDS


def test_suites_partition_all():
    union = set()
    for name, ids in SUITES.items():
        if name == "all":
            continue
        assert not union & set(ids)
        union |= set(ids)
    assert union == set(SUITES["all"])


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("nonexistent")


def test_record_schema():
    rep = run_suite("wright").to_dict()
    assert sorted(rep.keys()) == ["checks", "config", "suite", "version", "wall_ms"]
    for check in rep["checks"]:
        assert sorted(check.keys()) == ["id", "max_rel_dev", "n_points",
                                        "status", "worst_point"]


def test_kernel_suite_statuses():
    rep = run_suite("kernel-identities")
    statuses = {c["id"]: c["status"] for c in rep.to_dict()["checks"]}
    assert statuses == {"e1": "PASS", "e2": "PASS", "r1": "PASS",
                        "r2": "DOCUMENTED_MISMATCH"}
    assert rep.all_expected()


def test_rerun_is_identical_except_wall_time():
    a = run_suite("kernel-identities").to_dict()
    b = run_suite("kernel-identities").to_dict()
    assert a["wall_ms"] != b["wall_ms"] or True  # wall time may coincide
    assert json.dumps(_strip_wall(a), sort_keys=True) == \
        json.dumps(_strip_wall(b), sort_keys=True)


def test_tolerance_override_forces_failure():
    rep = run_suite("kernel-identities", tolerance_override=1e-30)
    statuses = [c["status"] for c in rep.to_dict()["checks"]]
    assert "FAIL" in statuses
    assert not rep.all_expected()


def test_mismatch_checks_document_the_variant():
    rep = run_suite("kernel-identities").to_dict()
    r2 = next(c for c in rep["checks"] if c["id"] == "r2")
    assert r2["worst_point"]["printed_rel_dev"] > 0.01


def test_config_file_roundtrip(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "tolerances": {"kernel_exp": 1e-6},
        "grids": {"kernel_grid": [-2.0, 2.0, 5]},
        "term_cap": 500,
    }))
    cfg = Config.load(str(cfg_path))
    assert cfg.tolerances["kernel_exp"] == 1e-6
    assert cfg.grids["kernel_grid"] == [-2.0, 2.0, 5]
    assert cfg.term_cap == 500
    rep = run_suite("kernel-identities", config=cfg).to_dict()
    e1 = next(c for c in rep["checks"] if c["id"] == "e1")
    assert e1["n_points"] == 5


@pytest.mark.parametrize("raw", [[], {"term_cap": 2**31}, {"term_cap": "500"},
                                 {"term_cap": 500.0}, {"grids": []}, {"tolerances": 1e-6}])
def test_config_refuses_a_wrong_shape(tmp_path, raw):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    with pytest.raises(DomainError):
        Config.load(str(cfg_path))
    if isinstance(raw, list):  # a seed-grid file too must hold an object
        with pytest.raises(DomainError):
            Config.load(None, str(cfg_path))


BAD_TOLERANCES = ["abc", -1e-8, -0.0, 0, 0.0, None, True, [1e-8], {}, math.nan, math.inf,
                  -math.inf]


@pytest.mark.parametrize("tol", BAD_TOLERANCES, ids=repr)
def test_config_refuses_a_bad_tolerance(tmp_path, tol):
    # "abc" once ended in a TypeError from the first comparison with it, and
    # a negative tolerance was taken and failed its checks
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tolerances": {"density_norm": 1e-3, "kernel_exp": tol}}))
    with pytest.raises(DomainError, match="tolerance 'kernel_exp' must be a finite positive"):
        Config.load(str(cfg_path))


@pytest.mark.parametrize("tol", [tol for tol in BAD_TOLERANCES if tol is not None], ids=repr)
def test_run_suite_refuses_a_bad_tolerance_override(monkeypatch, tol):
    # nan, 0 and -1 once failed every check, and inf passed every one; the
    # override is refused before any check runs (None means no override)
    ran = []
    monkeypatch.setattr(checks, "_execute_check", lambda *args: ran.append(args))
    with pytest.raises(DomainError,
                       match="the tolerance override must be a finite positive number"):
        run_suite("kernel-identities", tolerance_override=tol)
    assert ran == []


def test_run_suite_takes_a_good_tolerance_override():
    # an int, and a float subclass such as numpy's float64, are numbers
    class Tol(float):
        pass

    for tol, status in ((1, "PASS"), (Tol(1e-30), "FAIL")):
        rep = run_suite("wright", tolerance_override=tol).to_dict()
        assert [c["status"] for c in rep["checks"]] == [status], tol


@pytest.mark.parametrize("backend", ["pure", "compiled"])
def test_config_tolerance_limits_on_both_backends(tmp_path, backend, request, monkeypatch):
    # the least and the greatest finite positive tolerance, and an int, are
    # taken, and the checks read them on either backend
    module = pk if backend == "pure" else request.getfixturevalue("ck")
    monkeypatch.setattr(series, "kernels", module)
    cfg_path = tmp_path / "cfg.json"
    for tol, status in ((5e-324, "FAIL"), (1.7976931348623157e308, "PASS"), (1, "PASS")):
        cfg_path.write_text(json.dumps({"tolerances": {"kernel_exp": tol},
                                        "grids": {"kernel_grid": [-2.0, 2.0, 5]}}))
        cfg = Config.load(str(cfg_path))
        assert cfg.tolerances["kernel_exp"] == tol
        rep = run_suite("kernel-identities", config=cfg).to_dict()
        assert rep["config"]["tolerances"]["kernel_exp"] == tol
        e1 = next(c for c in rep["checks"] if c["id"] == "e1")
        assert (e1["status"], e1["n_points"]) == (status, 5), tol


def test_seed_grid_override(tmp_path):
    grid_path = tmp_path / "grids.json"
    grid_path.write_text(json.dumps({"kernel_grid": [-1.0, 1.0, 3]}))
    cfg = Config.load(None, str(grid_path))
    rep = run_suite("kernel-identities", config=cfg).to_dict()
    e1 = next(c for c in rep["checks"] if c["id"] == "e1")
    assert e1["n_points"] == 3


def test_check_errors_are_captured_not_raised(tmp_path):
    # a grid violating operator preconditions must surface as ERROR records
    grid_path = tmp_path / "grids.json"
    grid_path.write_text(json.dumps({"rho_left": [-5.0]}))
    cfg = Config.load(None, str(grid_path))
    rep = run_suite("msm-lemmas", config=cfg).to_dict()
    l1 = next(c for c in rep["checks"] if c["id"] == "L1")
    assert l1["status"] == "ERROR"
    assert "error" in l1["worst_point"]


def test_verify_all_statuses_and_points():
    rep = run_suite("all").to_dict()
    checks = {c["id"]: c for c in rep["checks"]}
    assert {k: (c["status"], c["n_points"]) for k, c in checks.items()} == oracles.VERIFY_ALL
    for k in ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"):
        assert checks[k]["max_rel_dev"] < 1e-14


# --- the termwise oracle against a term-by-term evaluation and mpmath --------

# -1.5 puts the kernel coefficient c_1 = 1/Gamma(0) at a reciprocal-gamma zero
ORACLE_NUS = [-1.5, -0.5, 0.25, 1.0]
P = MsmParams(0.3, 0.2, 0.1, 0.4, 1.1)
PW = PathwayParams(0.7, 1.3, 0.4)


def _direct_coeff(nu, n):
    return gamma_ratio((nu + 1.0, 0.5 * (n + 1)), (0.5 * n + nu + 1.0,)) \
        / (math.sqrt(math.pi) * math.factorial(n))


def _mp_coeff(nu, n):
    nu = mp.mpf(nu)
    return (mp.gamma(nu + 1) * mp.gamma(mp.mpf(n + 1) / 2) * mp.rgamma(mp.mpf(n) / 2 + nu + 1)
            / (mp.sqrt(mp.pi) * mp.factorial(n)))


def _mp_ratio(nums, dens):
    out = mp.mpf(1)
    for a in nums:
        out *= mp.gamma(a)
    for b in dens:
        out *= mp.rgamma(b)
    return out


def _mp_msm_args(side, r):
    a, ap, b, bp, g = (mp.mpf(v) for v in (P.alpha, P.alpha_prime, P.beta, P.beta_prime, P.gamma))
    if side is Side.LEFT:
        return (r, r + g - a - ap - b, r + bp - ap), (r + bp, r + g - a - ap, r + g - ap - b)
    return ((1 - r - b, 1 - r + a + ap - g, 1 - r + a + bp - g),
            (1 - r, 1 - r + a + ap + bp - g, 1 - r + a - b))


def _case_msm(side, nu):
    rho, lam, x = (1.2, 1.0, 1.3) if side is Side.LEFT else (-2.0, 1.0, 0.8)
    got = _image_oracle()(_gamma_args(side, P, rho), nu, lam, x)
    direct = 0.0
    for n in range(60):
        img = msm_power_image(side, P, rho + n if side is Side.LEFT else rho - n)
        direct += _direct_coeff(nu, n) * lam ** n * img.prefactor * x ** img.power_of_x
    with mp.workdps(40):
        step = 1 if side is Side.LEFT else -1
        power = mp.mpf(rho) + mp.mpf(P.gamma) - mp.mpf(P.alpha) - mp.mpf(P.alpha_prime) - 1
        ref = sum(_mp_coeff(nu, n) * mp.mpf(lam) ** n
                  * _mp_ratio(*_mp_msm_args(side, mp.mpf(rho) + step * n))
                  * mp.mpf(x) ** (power + step * n) for n in range(60))
    return got, direct, ref


def _case_pathway(nu):
    sigma, lam, x = 1.1, 1.0, 1.0
    got = _image_oracle()(_table(PW, sigma), nu, lam, x)
    direct = 0.0
    for n in range(60):
        img = pathway_power_image(PW, sigma + n)
        direct += _direct_coeff(nu, n) * lam ** n * img.prefactor * x ** img.power_of_x
    with mp.workdps(40):
        c = mp.mpf(PW.eta) / (1 - mp.mpf(PW.pathway_alpha))
        cut = mp.mpf(PW.a) * (1 - mp.mpf(PW.pathway_alpha))
        s = mp.mpf(sigma)
        ref = sum(_mp_coeff(nu, n) * mp.mpf(lam) ** n * _mp_ratio((s + n, 1 + c), (1 + c + s + n,))
                  / cut ** (s + n) * mp.mpf(x) ** (mp.mpf(PW.eta) + s + n) for n in range(60))
    return got, direct, ref


def _case_poles(nu):
    # numerator arguments cross negative non-integers, a denominator
    # crosses the poles -2, -1, 0: its terms are exact zeros; a table of
    # power 0 at x = 1 makes the image the bare sum at w = lam
    nums, dens, w = (-2.5, 0.7), (-2.0, 1.3), 0.9
    got = _image_oracle()(_GammaTable(nums, dens, 0.0, False), nu, w, 1.0)
    direct = sum(_direct_coeff(nu, n) * gamma_ratio([a + n for a in nums], [b + n for b in dens])
                 * w ** n for n in range(60))
    with mp.workdps(40):
        ref = sum(_mp_coeff(nu, n) * _mp_ratio([mp.mpf(a) + n for a in nums],
                                               [mp.mpf(b) + n for b in dens])
                  * mp.mpf(w) ** n for n in range(60))
    return got, direct, ref


ORACLE_CASES = {
    "msm-left": lambda nu: _case_msm(Side.LEFT, nu),
    "msm-right": lambda nu: _case_msm(Side.RIGHT, nu),
    "pathway": _case_pathway,
    "poles": _case_poles,
}


@pytest.mark.parametrize("nu", ORACLE_NUS)
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_termwise_oracle_matches_direct_and_mpmath(case, nu):
    got, direct, ref = ORACLE_CASES[case](nu)
    assert math.isclose(got, direct, rel_tol=1e-13, abs_tol=0.0)
    assert oracles.rel_err(got, ref) <= 1e-13


def test_termwise_oracle_keeps_numerator_poles():
    with pytest.raises(PoleError):
        _image_oracle()(_GammaTable((0.5, -2.0), (1.0,), 0.0, False), 0.25, 0.5, 1.0)


def test_termwise_oracle_refuses_its_truncation():
    # the bare kernel series S_0.25(w): 60 terms hold it to the last bit
    # at w = 0.9, not at w = 40
    table = _GammaTable((1.0,), (1.0,), 0.0, False)
    assert math.isclose(_image_oracle()(table, 0.25, 0.9, 1.0),
                        series.bessel_struve_kernel(0.25, 0.9).value, rel_tol=1e-14)
    with pytest.raises(TermCapError, match=r"oracle at w=40\.0 has not converged in 60 terms"):
        _image_oracle()(table, 0.25, 40.0, 1.0)


def test_t7_reports_a_truncated_oracle_as_error():
    # lam 4 takes T7's pathway sets (a 0.6, alpha 0.8) to w = 33.3, where 60
    # terms leave 3.9e-6 of the sum: once a FAIL blamed on the image
    cfg = Config(grids={**checks.DEFAULT_GRIDS, "lam": [0.5, 1.0, 4.0]})
    [t7] = [c for c in run_suite("pathway", config=cfg).to_dict()["checks"] if c["id"] == "T7"]
    assert t7["status"] == "ERROR"
    assert t7["worst_point"]["error"] == ("TermCapError: termwise oracle at w=33.33333333333334 "
                                          "has not converged in 60 terms")
