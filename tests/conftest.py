import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

sys.path.insert(0, os.path.dirname(__file__))

SRC = Path(__file__).resolve().parent.parent / "src"
# the flags perfbench/run.py builds the benchmark's compiled backend with
CFLAGS = ["-shared", "-fPIC", "-O2", "-fwrapv", "-fno-strict-aliasing",
          "-ffp-contract=off", "-DNDEBUG"]
EXTENSION = "_ckernels" + sysconfig.get_config_var("EXT_SUFFIX")


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
