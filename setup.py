"""Build script: compiles the hot-kernel core from ``_ckernels.c``, which
is written by hand against the CPython C API as the twin of
``_pykernels.py``; only a C compiler is needed.  The extension is optional:
when it cannot be built, the package installs pure-Python only and falls
back to its twin implementation at import time."""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension("bsfrac._ckernels", ["src/bsfrac/_ckernels.c"],
              # keep FP semantics identical to the pure-Python twin
              extra_compile_args=["-O2", "-ffp-contract=off"],
              optional=True),
])
