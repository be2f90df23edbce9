import contextlib
import importlib.util
import io
import os
import shutil
import subprocess
import sys
import sysconfig
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
