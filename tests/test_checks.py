import json

import pytest

from bsfrac import UnknownSuiteError
from bsfrac.checks import CHECKS, SUITES, Config, run_suite

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
