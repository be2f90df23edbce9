"""Per-layer tracing of bsfrac from the outside.

``Tracer.install()`` replaces the public functions of each layer, in every
bsfrac module that holds a reference to them, with wrappers that record a
span per call.  Spans are kept in memory as parallel arrays of
(name, start, end, parent, op id) and written out by ``dump``; self time
is a span's duration minus the time its child spans cover.  Nothing under
``src/`` changes, and the wrappers return the wrapped function's result
unchanged.
"""

from __future__ import annotations

import sys
import time
import types
from array import array
from pathlib import Path

# layer -> public functions timed at its boundary.  The L0 kernels are
# reached through the ``kernels`` attribute each L1/L2 module binds.
KERNEL_FUNCTIONS = ("bs_series", "wright_series", "hyp2f1_kernel", "lgamma_sign",
                    "bessel_series", "struve_series")
LAYER_FUNCTIONS = {
    "gammacore": ("gamma_ratio", "ln_gamma_signed", "is_pole"),
    "series": ("bessel_struve_kernel", "bessel_first_kind", "struve"),
    "wright": ("wright_eval",),
    "msm": ("msm_power_image", "msm_bs_closed_form", "msm_quadrature"),
    "pathway": ("pathway_power_image", "pathway_bs_closed_form", "pathway_quadrature",
                "pathway_density"),
    "quadrature": ("tanh_sinh", "exp_sinh"),
}
KERNEL_USERS = ("gammacore", "series", "wright", "msm", "pathway")
# series kernels return a convergence flag: 1 = converged, except
# wright_series whose status 0 = converged
_FLAG_OK = {"bs_series": 1, "bessel_series": 1, "struve_series": 1, "wright_series": 0}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = 0
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def count(self, key: str, n: float = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, on_result=None, wrap_args=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.start.append(0.0)
            stack.append(i)
            if wrap_args is not None:
                args = wrap_args(args)
            self.start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside one span named ``name`` as a new operation."""
        self.op_id += 1
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installation -----------------------------------------------------------
    def _replace_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("bsfrac") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        from bsfrac import _backend, checks, msm

        # a stand-in for the kernel module, seen only by the modules using it
        kernels = _backend.kernels
        proxy = types.SimpleNamespace(**{name: getattr(kernels, name) for name in dir(kernels)
                                         if not name.startswith("_")})
        for fname in KERNEL_FUNCTIONS:
            setattr(proxy, fname, self.wrap(f"kernels.{fname}", getattr(kernels, fname),
                                            self._kernel_counter(fname)))
        for modname in KERNEL_USERS:
            mod = sys.modules[f"bsfrac.{modname}"]
            self._restore.append((mod, "kernels", mod.kernels))
            mod.kernels = proxy

        for layer, fnames in LAYER_FUNCTIONS.items():
            mod = sys.modules[f"bsfrac.{layer}"]
            for fname in fnames:
                on_result = wrap_args = None
                if fname == "wright_eval":
                    on_result = self._adder("wright.wright_eval.terms")
                elif layer == "quadrature":
                    on_result = self._adder(f"quadrature.{fname}.nodes")
                    wrap_args = self._wrap_integrand
                original = getattr(mod, fname)
                self._replace_everywhere(original, self.wrap(
                    f"{layer}.{fname}", original, on_result, wrap_args))

        value_at = msm.ClosedFormImage.value_at
        self._restore.append((msm.ClosedFormImage, "value_at", value_at))
        msm.ClosedFormImage.value_at = self.wrap("msm.ClosedFormImage.value_at", value_at)

        for cid, spec in list(checks.CHECKS.items()):
            self._restore.append((checks.CHECKS, cid, spec))
            traced = type(spec)(**{**vars(spec), "runner": self.wrap(f"checks.{cid}", spec.runner)})
            checks.CHECKS[cid] = traced

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._restore.clear()

    def _adder(self, key: str):
        def add(result):
            self.count(key, result.terms_used)
        return add

    def _kernel_counter(self, fname: str):
        if fname not in ("bs_series", "wright_series", "bessel_series", "struve_series"):
            return None
        terms = f"kernels.{fname}.terms"
        ok_flag = _FLAG_OK[fname]

        def count(result):
            self.count(terms, result[2])
            self.count("kernels.series_calls")
            if result[3] != ok_flag:
                self.count("kernels.unconverged_calls")
        return count

    def _wrap_integrand(self, args):
        """The integrand, first argument of tanh_sinh/exp_sinh, gets its own span."""
        return (self.wrap("quadrature.integrand", args[0]),) + tuple(args[1:])

    # -- results ----------------------------------------------------------------
    def summary(self) -> dict:
        """Per-name calls, inclusive wall time and self time, plus the counters."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        k = len(self.names)
        calls, wall, self_s = [0] * k, [0.0] * k, [0.0] * k
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            wall[nid] += dur[i]
            self_s[nid] += dur[i] - child[i]
        return {"calls": dict(zip(self.names, calls)),
                "wall_s": dict(zip(self.names, wall)),
                "self_s": dict(zip(self.names, self_s)),
                "counts": dict(self.counts),
                "spans": n}

    def dump(self, path: Path):
        """Write the spans, one array per field, to an ``.npz`` file."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=np.array(self.name, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int32),
                 op=np.array(self.op, dtype=np.int32))
