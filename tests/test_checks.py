import json
import math
import re
from functools import partial

import mpmath as mp
import pytest

from bsfrac import DomainError, PoleError, TermCapError, UnknownSuiteError
from bsfrac import checks, series
from bsfrac.checks import (
    CHECKS,
    SUITES,
    CheckSpec,
    Config,
    _image_oracle,
    run_suite,
)
from bsfrac.gammacore import gamma_ratio
from bsfrac.msm import FunctionKind, MsmParams, Side, _GammaTable, _gamma_args, msm_power_image
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


def test_config_tolerance_limits_on_both_backends(tmp_path, backend):
    # the least and the greatest finite positive tolerance, and an int, are
    # taken, and the checks read them on either backend
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


# a misspelled key was once ignored without a word: T1 passed at a
# tolerance of 1e-30 spelled "tolerance" or "theorem_seires"
@pytest.mark.parametrize("raw, message", [
    ({"tolerance": {"theorem_series": 1e-30}}, "unknown config key 'tolerance'"),
    ({"tolerances": {"theorem_seires": 1e-30}}, "unknown tolerance key 'theorem_seires'"),
    ({"grids": {"x_lfet": [5.0]}}, "unknown grid key 'x_lfet'"),
])
def test_config_refuses_an_unknown_key(tmp_path, raw, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    with pytest.raises(DomainError, match=f"^{message}; known keys: "):
        Config.load(str(cfg_path))


def test_seed_grid_refuses_an_unknown_key(tmp_path):
    grid_path = tmp_path / "grids.json"
    grid_path.write_text(json.dumps({"kernel_grid": [-1.0, 1.0, 3], "x_lfet": [5.0]}))
    with pytest.raises(DomainError, match="^unknown grid key 'x_lfet'; known keys: kernel_grid, "):
        Config.load(None, str(grid_path))


BAD_DENSITY_GRIDS = [
    ({"density_samples": -3}, "grid 'density_samples' must be an int >= 0, got -3"),
    ({"density_samples": 2.0}, "grid 'density_samples' must be an int >= 0, got 2.0"),
    ({"density_samples": True}, "grid 'density_samples' must be an int >= 0, got True"),
    ({"density_samples": "12"}, "grid 'density_samples' must be an int >= 0, got '12'"),
    ({"density_seed": 2718.0}, "grid 'density_seed' must be an int, got 2718.0"),
    ({"density_seed": False}, "grid 'density_seed' must be an int, got False"),
    ({"density_seed": None}, "grid 'density_seed' must be an int, got None"),
]


@pytest.mark.parametrize("grids, message", BAD_DENSITY_GRIDS, ids=repr)
def test_config_refuses_bad_density_draws(tmp_path, grids, message):
    # a negative sample count once ran density-norm on its 3 named cases
    # alone, and passed; in the config file and in the seed-grid file
    path = tmp_path / "cfg.json"
    for config, seed_grid in (({"grids": grids}, None), (None, grids)):
        path.write_text(json.dumps(config if config is not None else seed_grid))
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            Config.load(str(path) if config is not None else None,
                        str(path) if seed_grid is not None else None)


@pytest.mark.parametrize("tolerances, grids, term_cap, message", [
    ({"theorem_seires": 1e-30}, {}, 200, "unknown tolerance key 'theorem_seires'; known keys: "),
    ({"kernel_exp": math.nan}, {}, 200, "tolerance 'kernel_exp' must be a finite positive"),
    ({}, {"density_samples": -3, "x_lfet": [5.0]}, 200, "unknown grid key 'x_lfet'; known keys: "),
    ({}, {"density_samples": -3}, 200, "grid 'density_samples' must be an int >= 0, got -3"),
    ({}, {"density_seed": True}, 200, "grid 'density_seed' must be an int, got True"),
    ({}, {}, 200.0, "term cap must be an integer"),
], ids=["tolerance-key", "tolerance", "grid-key", "samples", "seed", "term-cap"])
def test_config_built_directly_is_checked(tolerances, grids, term_cap, message):
    # a Config built in code, not by Config.load, once took a misspelled
    # grid key and a negative sample count, and density-norm passed on its
    # 3 named cases alone
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        Config(tolerances={**checks.DEFAULT_TOLERANCES, **tolerances},
               grids={**checks.DEFAULT_GRIDS, **grids}, term_cap=term_cap)


def test_config_takes_zero_density_samples_and_any_int_seed(tmp_path):
    grid_path = tmp_path / "grids.json"
    grid_path.write_text(json.dumps({"density_samples": 0, "density_seed": -5}))
    cfg = Config.load(None, str(grid_path))
    [record] = run_suite("density", config=cfg).to_dict()["checks"]
    assert (record["status"], record["n_points"]) == ("PASS", 3)


def test_check_errors_are_captured_not_raised(tmp_path):
    # a grid violating operator preconditions must surface as ERROR records
    grid_path = tmp_path / "grids.json"
    grid_path.write_text(json.dumps({"rho_left": [-5.0]}))
    cfg = Config.load(None, str(grid_path))
    rep = run_suite("msm-lemmas", config=cfg).to_dict()
    l1 = next(c for c in rep["checks"] if c["id"] == "L1")
    assert l1["status"] == "ERROR"
    assert "error" in l1["worst_point"]


def test_a_route_that_raises_after_the_points_makes_an_error():
    # the points pass, then a secondary route raises: the record is the
    # ERROR record, with nothing of the points in it
    def late(run):
        raise TermCapError("late route")
        yield

    spec = CheckSpec("late", "", "degenerate", lambda run: iter([(1.0, 1.0, {"x": 1.0})]),
                     {"degenerate": late})
    assert checks._execute_check(spec, Config(), 1e-14) == {
        "id": "late", "status": "ERROR", "max_rel_dev": math.inf,
        "worst_point": {"error": "TermCapError: late route"}, "n_points": 0}


def test_a_nan_deviation_is_the_worst():
    # NaN against a reference, without one, and inf against inf (a NaN
    # relative deviation) each count as inf, the first one found named
    nan, inf = math.nan, math.inf
    assert checks._worst([(nan, 1.0, {"u": 1.0})]) == (inf, {"u": 1.0}, 1)
    assert checks._worst([(1.0, 1.5, {"u": 0.0}), (1.0, nan, {"u": 1.0}),
                          (nan, None, {"u": 2.0}), (inf, inf, {"u": 3.0})]) == (inf, {"u": 1.0}, 4)


def test_a_nan_point_fails_its_row():
    # a row whose only point is NaN, and a passing row whose secondary
    # route gives NaN, once reported PASS
    def nan_point(run):
        return iter([(math.nan, 1.0, {"u": 1.0})])

    def good_point(run):
        return iter([(1.0, 1.0 + 2.0 ** -52, {"u": 0.0})])

    for spec, where in ((CheckSpec("nan", "", "degenerate", nan_point), {"u": 1.0}),
                        (CheckSpec("late", "", "degenerate", good_point,
                                   {"degenerate": nan_point}), {"u": 0.0})):
        record = checks._execute_check(spec, Config(), 1e-14)
        assert (record["status"], record["worst_point"], record["n_points"]) == ("FAIL", where, 1)


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


# user grids that reach past the default ones: T1/T2 points with lam*x
# (lam/x) beyond 2 and pathway sets whose kernel exponent eta/(1-alpha) is
# near an integer were once left out without a word; every point now counts,
# and where the oracle cannot sum one, the check is an ERROR naming it
@pytest.mark.parametrize("grids, suite, want", [
    ({"lam": [0.5, 1.0, 2.5]}, "msm-theorems",
     {"T1": ("PASS", 300), "T2": ("DOCUMENTED_MISMATCH", 300)}),
    ({"pathway_eta": [1.0], "pathway_a": [1.3], "pathway_alpha": [0.0]}, "pathway",
     {"L3": ("PASS", 3), "T7": ("PASS", 16), "T8": ("DOCUMENTED_MISMATCH", 6)}),
    ({"lam": [0.5, 1.0, 4.0], "x_left": [0.7, 1.3, 3.0], "x_right": [0.2, 1.0, 2.0]},
     "msm-theorems", {"T1": ("PASS", 450), "T2": ("ERROR", 0)}),
], ids=["lam-2.5", "exponent-1", "lam-4"])
def test_rows_evaluate_every_grid_point(grids, suite, want):
    cfg = Config(grids={**checks.DEFAULT_GRIDS, **grids})
    records = {c["id"]: c for c in run_suite(suite, config=cfg).to_dict()["checks"]}
    assert {k: (records[k]["status"], records[k]["n_points"]) for k in want} == want
    if "T2" in want and want["T2"][0] == "ERROR":
        assert records["T2"]["worst_point"]["error"] == (
            "TermCapError: termwise oracle at w=20.0 has not converged in 60 terms")


def _counted(monkeypatch, owner, name):
    """Wrap ``owner.name`` to record each call's arguments; a name the
    owner lacks is created and never called."""
    calls = []
    original = getattr(owner, name, None)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted, raising=False)
    return calls


@pytest.mark.parametrize("suite", ["msm-theorems", "pathway"])
def test_coordinates_are_made_only_for_new_worst_points(monkeypatch, suite):
    # each point of the MSM and pathway rows once merged its coordinates into
    # a dict (params._asdict() or _where), about 1,100 a verify all run,
    # although a row reports only its worst point's
    updates = []
    worst = checks._worst

    def teed(points):
        points, dev_max, n = list(points), 0.0, 0
        for got, want, _ in points:
            dev = abs(got) if want is None else checks._rel(got, want)
            dev = math.inf if math.isnan(dev) else dev
            if dev > dev_max:
                dev_max, n = dev, n + 1
        updates.append(n)
        return worst(iter(points))

    monkeypatch.setattr(checks, "_worst", teed)
    made = [_counted(monkeypatch, checks, "_coords"), _counted(monkeypatch, checks, "_where"),
            _counted(monkeypatch, MsmParams, "_asdict"),
            _counted(monkeypatch, PathwayParams, "_asdict")]
    assert run_suite(suite).all_expected()
    assert 0 < sum(map(len, made)) <= sum(updates), ([len(m) for m in made], updates)


@pytest.mark.parametrize("suite, grids, fixed", [
    ("msm-lemmas", ("rho_left", "rho_right"), 3), ("pathway", ("pathway_beta",), 0)])
def test_lemma_rows_build_one_monomial_per_exponent(monkeypatch, suite, grids, fixed):
    # L1, L2 and L3 once built FunctionKind.monomial(rho) for every integral,
    # 207 a verify all run for 9 exponents; the exact cases and the printed
    # L2 variant build their own (fixed)
    made = _counted(monkeypatch, FunctionKind, "__new__")
    assert run_suite(suite).all_expected()
    monomials = [args for args in made if args[1] == "monomial"]
    want = sum(len(set(checks.DEFAULT_GRIDS[g])) for g in grids) + fixed
    assert len(monomials) == want, sorted(args[2] for args in monomials)


@pytest.mark.parametrize("suite", ["msm-theorems", "pathway"])
def test_series_rows_make_one_image_per_series_and_lam(monkeypatch, suite):
    # T1-T7 once made a ClosedFormImage at every point (612 a verify all
    # run) where one per (series, lam) serves its points
    grids = {"msm-theorems": [partial(checks._theorem_grid, Side.LEFT),
                              partial(checks._theorem_grid, Side.RIGHT)]
             + [partial(checks._special_grid, family)
                for family in ("exp", "expm1_over_t", "i0_plus_l0",
                               "two_i1_plus_two_l1_over_t")],
             "pathway": [checks._t7_grid]}[suite]
    want = sum(len({(table, kind.nu, lam) for table, kind, lam, *_ in grid(Config())})
               for grid in grids)
    made = _counted(monkeypatch, checks, "_kernel_at")
    run_suite(suite)
    assert len(made) == want


def test_relative_difference_of_two_zeros_is_zero():
    assert checks._rel(0.0, 0.0) == 0.0
