import contextlib
import importlib.util
import io
import os
import shutil
import subprocess
import sys
import sysconfig
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.dirname(__file__))

SRC = Path(__file__).resolve().parent.parent / "src"
# the flags perfbench/run.py builds the benchmark's compiled backend with
CFLAGS = ["-shared", "-fPIC", "-O2", "-fwrapv", "-fno-strict-aliasing",
          "-ffp-contract=off", "-DNDEBUG"]
EXTENSION = "_ckernels" + sysconfig.get_config_var("EXT_SUFFIX")


def run_cli(args):
    """Run the command line in process on args with captured streams: its
    exit_code, stdout, stderr, output (stdout then stderr) and exception,
    the SystemExit of a non-zero exit (else None)."""
    from bsfrac.cli import main

    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if code else None
    return SimpleNamespace(exit_code=code, stdout=out.getvalue(), stderr=err.getvalue(),
                           output=out.getvalue() + err.getvalue(), exception=exception)


def in_threads(sweep, n=6):
    """Run ``sweep(i)`` for i < n in n threads that switch every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def compile_ckernels(so, *extra_flags):
    """Compile the tracked ``_ckernels.c`` into ``so``; skips the calling
    test only when there is no C compiler."""
    cc = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if not cc:
        pytest.skip("no C compiler to build the compiled backend")
    return subprocess.run(
        [cc, *CFLAGS, *extra_flags, "-I" + sysconfig.get_paths()["include"],
         str(SRC / "bsfrac" / "_ckernels.c"), "-o", str(so)],
        capture_output=True, text=True)


@pytest.fixture(scope="session")
def compiled_pkg(tmp_path_factory):
    """A directory holding a copy of the package with the tracked
    ``_ckernels.c`` compiled in; put it on PYTHONPATH to run the compiled
    backend.  Skips only when there is no C compiler."""
    root = tmp_path_factory.mktemp("compiled")
    shutil.copytree(SRC / "bsfrac", root / "bsfrac",
                    ignore=shutil.ignore_patterns("*.so", "*.c", "__pycache__"))
    proc = compile_ckernels(root / "bsfrac" / EXTENSION)
    if proc.returncode != 0:
        pytest.fail(f"compiling _ckernels.c failed:\n{proc.stderr}")
    return root


@pytest.fixture(scope="session")
def ck(compiled_pkg):
    """The compiled kernel module built by ``compiled_pkg``."""
    spec = importlib.util.spec_from_file_location(
        "bsfrac._ckernels", compiled_pkg / "bsfrac" / EXTENSION)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["pure", "compiled"])
def backend(request, monkeypatch):
    """One kernel twin, in process: installed as ``kernels`` in every bsfrac
    module that binds the kernel module, and named in ``BACKEND``, until the
    test ends.  Returns the kernel module.  A test's own fake goes on top."""
    from bsfrac import _pykernels

    pure = request.param == "pure"
    return install_kernels(monkeypatch, _pykernels if pure else request.getfixturevalue("ck"))


def install_kernels(monkeypatch, kernels):
    """Install the kernel module ``kernels`` (the pure twin or the compiled
    ``ck``) through ``monkeypatch``, as the ``backend`` fixture does; return it.

    The operator modules and the CLI, which writes its CSV rows through
    the kernels, load lazily, so they are loaded first.  The ``POLE_TOL``
    and ``MAX_PAIRS`` that ``gammacore`` and ``wright`` read at import must
    be the installed twin's too."""
    from bsfrac import _backend, _pykernels, cli, gammacore, msm, pathway, wright  # noqa: F401

    pure = kernels is _pykernels
    assert (kernels.POLE_TOL, kernels.MAX_PAIRS) == (gammacore.POLE_TOL, wright.MAX_PAIRS)
    bound = _backend.kernels
    modules = [mod for name, mod in sys.modules.items()
               if name.partition(".")[0] == "bsfrac" and mod is not None]
    for mod in modules:
        if vars(mod).get("kernels") is bound:
            monkeypatch.setattr(mod, "kernels", kernels)
        if "BACKEND" in vars(mod):
            monkeypatch.setattr(mod, "BACKEND", "python" if pure else "compiled")
    held = [mod.__name__ for mod in modules if vars(mod).get("kernels", kernels) is not kernels]
    assert not held, f"still bound to another kernel module: {held}"
    return kernels
