"""The contract between the package and the bench's per-layer tracer
(``perfbench/tracer.py``): every name the tracer patches exists, and
installing then uninstalling it leaves the package as it was.  The tracer
is read from its file and executed, never imported, so no bytecode is
written next to it.
"""

import sys
import types
from pathlib import Path

from click.testing import CliRunner

import bsfrac
from bsfrac import checks, cli, msm, pathway, quadrature  # noqa: F401  (the tracer's modules)

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
        # the CLI's Wright and image sweeps run through the traced names
        assert cli.wright_eval.__wrapped__ is before[0]["bsfrac.wright"]["wright_eval"]
        for args in (["table", "wright", "--upper", "1,1", "--lower", "2,1", "--x", "0:1:3"],
                     ["table", "pathway", "--eta", "0.5", "--a", "1.3", "--pathway-alpha",
                      "0.4", "--rho", "1.1", "--kind", "exp", "--x", "0.5:1:2"]):
            res = CliRunner().invoke(cli.main, args)
            assert res.exit_code == 0, res.output
    finally:
        tracer.uninstall()
    calls = tracer.summary()["calls"]
    assert calls["wright.wright_eval"] == 5
    assert calls["msm.ClosedFormImage.value_at"] == 2
    assert calls["kernels.wright_series"] == 5
    assert _bsfrac_state() == before


def test_s_sweep_is_traced_at_the_wrapper():
    # a table of S calls bessel_struve_kernel once a point, so the tracer
    # files the wrapper's glue under series, not under the CLI
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        res = CliRunner().invoke(cli.main, ["table", "S", "--nu", "0.25", "--x=-2:2:9"])
        assert res.exit_code == 0, res.output
    finally:
        tracer.uninstall()
    calls = tracer.summary()["calls"]
    assert calls["series.bessel_struve_kernel"] == 9
    assert calls["kernels.bs_series"] == 9
