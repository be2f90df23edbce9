"""The contract between the package and the bench's per-layer tracer
(``perfbench/tracer.py``): every name the tracer patches exists, and
installing then uninstalling it leaves the package as it was.  The tracer
is read from its file and executed, never imported, so no bytecode is
written next to it.
"""

import collections
import sys
import types
from pathlib import Path

import pytest

import bsfrac
from bsfrac import checks, cli, msm, pathway, quadrature  # noqa: F401  (the tracer's modules)
from conftest import run_cli
from test_cli import SWEEPS

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def _bsfrac_state():
    """Every attribute of every loaded bsfrac module, the image method and
    the check table (functions compare by identity)."""
    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name.startswith("bsfrac") and mod is not None}
    return mods, msm.ClosedFormImage.value_at, dict(checks.CHECKS)


def test_every_traced_name_exists():
    tracer = _load_tracer()
    for name in tracer.KERNEL_FUNCTIONS:
        assert callable(getattr(bsfrac._backend.kernels, name)), name
    for layer, names in tracer.LAYER_FUNCTIONS.items():
        mod = sys.modules[f"bsfrac.{layer}"]
        for name in names:
            assert callable(getattr(mod, name)), (layer, name)
    for layer in tracer.KERNEL_USERS:
        assert sys.modules[f"bsfrac.{layer}"].kernels is bsfrac._backend.kernels, layer
    assert callable(msm.ClosedFormImage.value_at)


def test_install_then_uninstall_restores_everything():
    tracer = _load_tracer().Tracer()
    before = _bsfrac_state()
    tracer.install()
    try:
        # the CLI's Wright and image rows reach the row kernel through the
        # proxy, untraced; the one-point kernel behind it is traced
        kernels = before[0]["bsfrac.wright"]["kernels"]
        proxy = sys.modules["bsfrac.wright"].kernels
        assert proxy.wright_row is kernels.wright_row
        assert proxy.wright_series.__wrapped__ is kernels.wright_series
        for args in (["table", "wright", "--upper", "1,1", "--lower", "2,1", "--x", "0:1:3"],
                     ["table", "pathway", "--eta", "0.5", "--a", "1.3", "--pathway-alpha",
                      "0.4", "--rho", "1.1", "--kind", "exp", "--x", "0.5:1:2"]):
            res = run_cli(args)
            assert res.exit_code == 0, res.output
    finally:
        tracer.uninstall()
    calls = tracer.summary()["calls"]
    assert calls["wright.wright_eval"] == calls["msm.ClosedFormImage.value_at"] == 0
    assert calls["kernels.wright_series"] == 0
    assert _bsfrac_state() == before


def test_s_sweep_is_traced_at_the_wrapper():
    # a table of S hands its xs to one call of bessel_struve_row, which
    # makes one untraced row-kernel call: neither the public wrapper nor the
    # one-point kernel is called, and the row's time is filed under the CLI
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        res = run_cli(["table", "S", "--nu", "0.25", "--x=-2:2:9"])
        assert res.exit_code == 0, res.output
    finally:
        tracer.uninstall()
    calls = tracer.summary()["calls"]
    assert calls["series.bessel_struve_kernel"] == calls["kernels.bs_series"] == 0


# the row kernel that a 7-point table of each CLI function calls once, from
# its untraced row function
TABLE_KERNELS = {
    "S": "bs_row",
    "J": "bessel_type_row",
    "I": "bessel_type_row",
    "H": "bessel_type_row",
    "L": "bessel_type_row",
    "wright": "wright_row",
    "msm-left": "wright_row",
    "msm-right": "wright_row",
    "pathway": "wright_row",
    "density": "density_row",
}
ROW_KERNELS = ("bs_row", "bessel_type_row", "wright_row", "density_row")
# the one-point series kernels and the public one-point wrappers
POINT_LAYERS = ("kernels.bs_series", "kernels.wright_series", "kernels.bessel_series",
                "kernels.struve_series", "series.", "wright.wright_eval",
                "msm.ClosedFormImage.value_at")


@pytest.mark.parametrize("function", sorted(SWEEPS))
def test_every_table_calls_one_traced_wrapper_a_point(function):
    # a 7-point table reaches its points through one row call of its layer,
    # which makes one call of its row kernel: the tracer sees no one-point
    # kernel call and no public-wrapper span, and files the row under the
    # CLI (the test's name is kept from the one-call-a-point contract)
    opts, grid = SWEEPS[function]
    tracer = _load_tracer().Tracer()
    tracer.install()
    rows = collections.Counter()
    proxy = sys.modules["bsfrac.series"].kernels  # the tracer's stand-in, dropped on uninstall

    def counted(name, kernel):
        def row(*args):
            rows[name] += 1
            return kernel(*args)
        return row

    for name in ROW_KERNELS:
        setattr(proxy, name, counted(name, getattr(proxy, name)))
    try:
        res = run_cli(["table", function, "--x", grid, *opts])
        assert res.exit_code == 0, res.output
    finally:
        tracer.uninstall()
    assert rows == collections.Counter({TABLE_KERNELS[function]: 1})
    calls = tracer.summary()["calls"]
    assert not any(calls[name] for name in calls if name.startswith(POINT_LAYERS)), calls


# a layer function and the checks whose span must hold calls of it
HARNESS_LAYERS = {
    "msm.msm_quadrature": ("L1", "L2", "T1", "T2"),
    "pathway.pathway_quadrature": ("L3", "T7", "T8"),
    # an image's value_at reaches the Wright kernel without wright_eval
    "wright.wright_eval": ("T2", "T4", "T5", "T6", "T8", "W-delta"),
    "msm.ClosedFormImage.value_at": ("L1", "L2", "L3", "T1", "T2", "T3", "T4", "T5", "T6",
                                     "T7", "T8"),
    "series.bessel_struve_kernel": ("e1", "e2", "r1", "r2"),
}


def _state_but_slots():
    """``_bsfrac_state`` without the pure kernels' one-slot tables, which
    every run refills."""
    mods, value_at, table = _bsfrac_state()
    return ({mod: {name: value for name, value in attrs.items() if not name.endswith("_slot")}
             for mod, attrs in mods.items()}, value_at, table)


def test_tracer_sees_the_harness():
    # every check runs in its own span and reaches each layer through a name
    # the tracer replaced: a check row holding a layer function of its own
    # would hide that layer's calls from the check's span
    tracer = _load_tracer().Tracer()
    before = _state_but_slots()
    tracer.install()
    try:
        report = checks.run_suite("all")
    finally:
        tracer.uninstall()
    assert report.all_expected()
    assert _state_but_slots() == before
    names, roots, calls = tracer.names, [], collections.Counter()
    for nid, parent in zip(tracer.name, tracer.parent):
        roots.append(names[nid] if parent < 0 else roots[parent])
        calls[roots[-1], names[nid]] += 1
    assert {root for root, _ in calls} == {f"checks.{cid}" for cid in checks.CHECKS}
    for cid in checks.CHECKS:
        assert calls[f"checks.{cid}", f"checks.{cid}"] == 1, cid
    for layer, ids in HARNESS_LAYERS.items():
        for cid in ids:
            assert calls[f"checks.{cid}", layer] > 0, (cid, layer)
    # a point of a public wrapper or an image is a row of one, one untraced
    # row-kernel call: the series kernels are traced only where a
    # quadrature integrand calls one at a node
    parents = {names[tracer.name[parent]] for nid, parent in zip(tracer.name, tracer.parent)
               if names[nid].startswith(POINT_LAYERS[:4])}
    assert parents == {"quadrature.integrand"}, parents
