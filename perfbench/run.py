"""Benchmark of bsfrac: the three things its users do, on both kernel
backends, and a per-layer trace.

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 50 --trace 0

Every run measures all three user operations: in-process ``bsfrac
--format json verify all``, a fixed mix of in-process ``bsfrac table``
sweeps, and fresh-interpreter ``bsfrac eval`` calls.  The workload
(README.md says why each exists and which layers it stresses) names the
one that gets the larger share of the run and that ``--trace 1`` traces:

* ``verify-all``: many parameter sets, few points each;
* ``table``: few parameter sets, many points each.

Operations run one at a time (a closed loop with one client) and are
interleaved over the whole run, so a change in machine speed during the
run hits every metric alike; timings are also scaled to a nominal host
speed (see ``calibrate``).  The pure leg runs ``src/`` with
``BSFRAC_PURE_PYTHON=1``; the compiled leg builds the shipped
``_ckernels.c`` into a copy of the package under ``.bench_build/``.
``--trace 1`` runs the named workload untraced and then under the tracer,
and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name and unit, and the run metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import threading
import time
from pathlib import Path

import workload as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
BENCH_BACKENDS = ROOT / "benchmarks" / "bench_backends.py"
WORKLOADS = ("verify-all", "table")

EXPECTED_STATUS = {cid: "PASS" for cid in (
    "L1", "L3", "T1", "T3", "T7", "e1", "e2", "r1", "W-delta", "density-norm")}
EXPECTED_STATUS.update({cid: "DOCUMENTED_MISMATCH" for cid in (
    "L2", "T2", "T4", "T5", "T6", "T8", "r2")})
# a value further than this from the mpmath reference is a wrong answer;
# the finer question, whether the claimed error bound held, is a metric
VALUE_REL_TOL = 1e-6

# Share of the run's time per operation, by workload.  Each operation
# feeds the end-to-end metric of the same name (``eval_cold`` feeds both
# percentiles, ``setup`` feeds setup_s).  Every run reports every metric,
# so every operation gets enough samples for a steady figure; the named
# workload's operations get somewhat more.
SHARES = {
    "verify-all": {"verify_all_s": 0.22, "verify_all_s.threads2": 0.24,
                   "verify_all_s.compiled": 0.17, "table_pts_per_s": 0.07,
                   "table_pts_per_s.compiled": 0.05, "eval_cold": 0.21, "setup": 0.04},
    "table": {"verify_all_s": 0.17, "verify_all_s.threads2": 0.19,
              "verify_all_s.compiled": 0.13, "table_pts_per_s": 0.16,
              "table_pts_per_s.compiled": 0.10, "eval_cold": 0.21, "setup": 0.04},
}
MIN_SAMPLES = {"verify_all_s": 6, "verify_all_s.threads2": 6, "verify_all_s.compiled": 6,
               "table_pts_per_s": 8, "table_pts_per_s.compiled": 20,
               "eval_cold": 2 * len(wl.COLD_KINDS) * wl.COLD_POINTS_PER_KIND, "setup": 9}
# The host's speed swings by up to 1.7x for seconds to minutes, and a
# 50 s run's timings swing with it.  So a fixed pure-Python loop that does
# not touch bsfrac runs between every two timed operations, and each
# sample is scaled by CAL_NOMINAL_S over the mean time of the loops within
# CAL_WINDOW_S of it: the end-to-end timings are seconds at the reference
# host's nominal speed (2-vCPU Intel Xeon at 2.0 GHz, CPython 3.11).  Wall
# times as measured are printed beside them.
CAL_LOOPS = 150_000
CAL_NOMINAL_S = 0.0178
CAL_WINDOW_S = 1.0
FLOOR_PROBES = 7
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 170.0
EVAL_CODE = "from bsfrac.cli import main; main()"


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, no manifest)."""


class WorkerError(Exception):
    """A worker child died or answered nonsense."""


# --- child processes ----------------------------------------------------------

def child_env(backend: str, compiled_dir: Path | None) -> dict:
    """The pure leg runs ``src/``; the compiled leg runs the private build."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "BSFRAC_PURE_PYTHON")}
    if backend == "pure":
        env["PYTHONPATH"] = str(SRC)
        env["BSFRAC_PURE_PYTHON"] = "1"
    else:
        env["PYTHONPATH"] = str(compiled_dir)
    return env


def _tail(text: str) -> str:
    return " ".join(text.strip().splitlines()[-2:])[-300:]


class Child:
    """A child process.

    ``Child.worker`` starts a ``worker.py`` session: ``ready_s`` is the
    time until it printed ``ready``, ``call`` sends one command and
    ``close`` ends it.  Every child is killed after CHILD_TIMEOUT_S.
    """

    def __init__(self, cmd, env, stdin=False):
        (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
        self.err = tempfile.TemporaryFile(dir=BUILD / "tmp")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, stderr=self.err, env=env, cwd=ROOT)
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.timer.daemon = True
        self.timer.start()
        self.ready_s = self.code = self.wall_s = None
        self.err_text = ""

    @classmethod
    def worker(cls, backend, compiled_dir, config) -> "Child":
        child = cls([sys.executable, str(HERE / "worker.py"), json.dumps(config)],
                    child_env(backend, compiled_dir), stdin=True)
        if child.proc.stdout.readline() != b"ready\n":
            child.finish()
            raise WorkerError(f"{backend} worker did not start: {_tail(child.err_text)}")
        child.ready_s = time.perf_counter() - child.t0
        return child

    def call(self, **cmd) -> dict:
        try:
            self.proc.stdin.write((json.dumps(cmd) + "\n").encode())
            self.proc.stdin.flush()
        except OSError:
            pass  # the worker is gone; readline below reports it
        line = self.proc.stdout.readline()
        try:
            return json.loads(line)
        except ValueError:
            self.finish()
            raise WorkerError(f"worker died during {cmd['op']}: {_tail(self.err_text)}") from None

    def finish(self) -> str:
        """Close stdin, read the rest of stdout and reap; returns that output."""
        try:
            if self.proc.stdin:
                self.proc.stdin.close()
            out = self.proc.stdout.read()
            self.code = self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
        self.wall_s = time.perf_counter() - self.t0
        self.err.seek(0)
        self.err_text = self.err.read().decode(errors="replace")
        self.err.close()
        return out.decode()

    def kill(self):
        """Stop the child if it is still running (no-op once reaped)."""
        if self.code is None:
            self.proc.kill()
            self.finish()

    def close(self) -> dict:
        """End a worker session; returns its final reply (peak RSS)."""
        try:
            self.proc.stdin.write(b'{"op": "exit"}\n')
        except OSError:
            pass
        out = self.finish()
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise WorkerError(f"worker ended without a reply: {_tail(self.err_text)}") from None


def run_child(cmd, env) -> tuple[Child, str]:
    child = Child(cmd, env)
    return child, child.finish()


# --- build of the compiled leg ------------------------------------------------

def _source_hash(extra: str = "") -> str:
    h = hashlib.sha256(extra.encode())
    for path in sorted((SRC / "bsfrac").iterdir()):
        if path.suffix in (".py", ".c", ".pyx"):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def build_compiled() -> tuple[Path | None, dict]:
    """Compile the shipped ``_ckernels.c`` into a private copy of the package.

    Returns the directory to put on PYTHONPATH (None when the leg is
    skipped) and the build metadata.  Builds are cached by source hash.
    """
    c_file = SRC / "bsfrac" / "_ckernels.c"
    cc = os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")
    if not c_file.exists():
        return None, {"status": "skipped", "reason": "src/bsfrac/_ckernels.c is missing"}
    if not cc:
        return None, {"status": "skipped", "reason": "no C compiler found"}
    flags = ["-shared", "-fPIC", "-O2", "-fwrapv", "-fno-strict-aliasing",
             "-ffp-contract=off", "-DNDEBUG", "-I" + sysconfig.get_paths()["include"]]
    dest = BUILD / f"compiled-{_source_hash(' '.join([cc] + flags))[:16]}"
    try:
        meta = json.loads((dest / "build.json").read_text())
        return dest, dict(meta, cached=True)
    except (OSError, ValueError):
        pass
    version = subprocess.run([cc, "--version"], capture_output=True, text=True).stdout
    tmp = BUILD / f"build-tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    (tmp / "bsfrac").mkdir(parents=True)
    for path in (SRC / "bsfrac").glob("*.py"):
        shutil.copy2(path, tmp / "bsfrac" / path.name)
    so = tmp / "bsfrac" / ("_ckernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    t0 = time.perf_counter()
    proc = subprocess.run([cc, *flags, str(c_file), "-o", str(so)], capture_output=True, text=True)
    build_s = time.perf_counter() - t0
    compiler = version.splitlines()[0] if version else cc
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        return None, {"status": "skipped", "reason": "compile failed: " + _tail(proc.stderr),
                      "compiler": compiler}
    meta = {"status": "built", "compiler": compiler, "build_s": build_s}
    (tmp / "build.json").write_text(json.dumps(meta))
    shutil.rmtree(dest, ignore_errors=True)
    tmp.rename(dest)
    return dest, dict(meta, cached=False)


# --- checking outputs -------------------------------------------------------------

class Tally:
    """Operations attempted and failed, and the accuracy of checked values."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checked = 0
        self.violations: dict[str, int] = {}
        self.max_rel_err = 0.0

    def op(self, ok: bool, what: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problem(what)

    def problem(self, what: str):
        if len(self.problems) < 20:
            self.problems.append(what)

    def value(self, label: str, value: float, est: float, ref) -> bool:
        """Score one returned value against its reference; False when wrong."""
        if not math.isfinite(value):
            return False
        err = wl.rel_error(value, ref)
        self.checked += 1
        self.max_rel_err = max(self.max_rel_err, err)
        if wl.abs_error(value, ref) > est:  # the claimed error bound did not hold
            self.violations[label] = self.violations.get(label, 0) + 1
        return err <= VALUE_REL_TOL


def _status_diff(statuses):
    bad = [f"{cid}={statuses.get(cid)}" for cid, want in EXPECTED_STATUS.items()
           if statuses.get(cid) != want]
    return "unexpected statuses " + ", ".join(bad)


class VerifyLeg:
    """``verify all`` in one worker; every report must match the first one
    (minus ``wall_ms``), whatever the thread count, traced or not."""

    def __init__(self, backend, compiled_dir, seed_grid, tally, dump=None):
        self.backend, self.tally = backend, tally
        self.worker = Child.worker(backend, compiled_dir,
                                   {"seed_grid": str(seed_grid), "dump": dump})
        self.first = None
        self.call(1)  # warm-up: checked, not timed

    def call(self, threads, trace=False) -> dict:
        reply = self.worker.call(op="verify", threads=threads, trace=trace)
        ok = reply["code"] == 0 and reply["statuses"] == EXPECTED_STATUS
        why = reply["error"] or _status_diff(reply["statuses"])
        if self.backend == "compiled" and reply["backend"] != "compiled":
            ok, why = False, f"backend is {reply['backend']}, not compiled"
        if ok:
            self.first = self.first or reply["digest"]
            if reply["digest"] != self.first:
                ok, why = False, f"report (threads={threads}, trace={trace}) differs from the first"
        self.tally.op(ok, f"verify {self.backend}: {why}")
        return reply


class TableLeg:
    """The table mix in one worker; the warm-up pass is checked against the
    references, later passes must reproduce it byte for byte."""

    def __init__(self, backend, compiled_dir, inputs, refs, tally, dump=None):
        self.backend, self.inputs, self.tally = backend, inputs, tally
        self.points = sum(len(row["xs"]) for row in inputs["table"])
        self.worker = Child.worker(backend, compiled_dir,
                                   {"rows": [row["args"] for row in inputs["table"]],
                                    "dump": dump})
        first = self.worker.call(op="table", outputs=True)
        self.digests = first["digests"]
        backend_ok = backend != "compiled" or first["backend"] == "compiled"
        self.row_ok = []
        for j, (row, ref) in enumerate(zip(inputs["table"], refs["table"])):
            ok = backend_ok and first["codes"][j] == 0 and self._check(
                first["outputs"][j], row, ref)
            self.row_ok.append(ok)
            self.tally.op(ok, f"table {backend} {row['case']}: "
                              f"{first['errors'][j] or 'wrong or missing values'}")

    def _check(self, text, row, ref) -> bool:
        lines = text.strip().splitlines()
        if len(lines) != len(row["xs"]) + 1 or lines[0] != "x,value,abs_error_est":
            return False
        ok = True
        for line, x, r in zip(lines[1:], row["xs"], ref):
            xs, value, est = (float(v) for v in line.split(","))
            ok &= xs == x
            ok &= self.tally.value(f"{row['case']}.{self.backend}", value, est, r)
        return ok

    def call(self, trace=False) -> dict:
        reply = self.worker.call(op="table", trace=trace)
        for j, row in enumerate(self.inputs["table"]):
            ok = (self.row_ok[j] and reply["codes"][j] == 0
                  and reply["digests"][j] == self.digests[j])
            why = reply["errors"][j] or (f"output differs from the first pass (trace={trace})"
                                         if self.row_ok[j] else "wrong values in the first pass")
            self.tally.op(ok, f"table {self.backend} {row['case']}: {why}")
        return reply


class ColdEval:
    """Fresh-interpreter ``bsfrac eval`` calls, cycling over the seed's points.

    The first call at each point is scored against its reference; later
    calls must print the same bytes.
    """

    def __init__(self, inputs, refs, tally):
        self.points, self.refs, self.tally = inputs["cold"], refs["cold"], tally
        self.env = child_env("pure", None)
        self.outputs = {}
        self.calls = 0

    def call(self) -> Child:
        k = self.calls % len(self.points)
        point = self.points[k]
        child, out = run_child([sys.executable, "-c", EVAL_CODE] + point["args"], self.env)
        ok = child.code == 0 and self._check(k, out, score=self.calls < len(self.points))
        self.tally.op(ok, f"cold eval {point['case']} x={point['x']}: exit {child.code} "
                          f"{_tail(child.err_text)}")
        self.calls += 1
        return child

    def _check(self, k, out, score) -> bool:
        lines = out.strip().splitlines()
        if len(lines) != 2 or lines[0] != "value,abs_error_est,terms_used":
            return False
        value, est, _ = (float(v) for v in lines[1].split(","))
        if self.outputs.setdefault(k, out) != out:
            return False
        if score:
            return self.tally.value(f"{self.points[k]['case']}.cold", value, est, self.refs[k])
        return math.isfinite(value) and wl.rel_error(value, self.refs[k]) <= VALUE_REL_TOL


def calibrate() -> tuple[float, float]:
    """Time a fixed pure-Python loop, a gauge of the host's speed right now;
    returns (midpoint, seconds)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc += i * i % 7
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


def local_speed(cals, start, end) -> float:
    """Mean loop time within CAL_WINDOW_S of a sample that ran from start
    to end: the loops just before and after it, and their neighbours."""
    return statistics.fmean(c for t, c in cals
                            if start - CAL_WINDOW_S <= t <= end + CAL_WINDOW_S)


def setup_probe() -> float:
    """A fresh workload process, timed until bsfrac and its CLI are imported."""
    child = Child.worker("pure", None, {})
    child.close()
    return child.ready_s


def interpreter_floor() -> float:
    """Median wall time of ``python3 -c pass``: what any cold call costs."""
    env = child_env("pure", None)
    return statistics.median(run_child([sys.executable, "-c", "pass"], env)[0].wall_s
                             for _ in range(FLOOR_PROBES))


# --- the measured run -------------------------------------------------------------

def measured_run(args, compiled_dir, inputs, refs, seed_grid, tally) -> dict:
    """Interleave every operation over the run, each at its workload's share."""
    legs = {}
    try:
        return _measured_run(args, compiled_dir, inputs, refs, seed_grid, tally, legs)
    finally:
        for leg in legs.values():
            leg.worker.kill()


def _measured_run(args, compiled_dir, inputs, refs, seed_grid, tally, legs) -> dict:
    legs["pure-verify"] = VerifyLeg("pure", compiled_dir, seed_grid, tally)
    legs["pure-table"] = TableLeg("pure", compiled_dir, inputs, refs, tally)
    if compiled_dir is not None:
        legs["compiled-verify"] = VerifyLeg("compiled", compiled_dir, seed_grid, tally)
        legs["compiled-table"] = TableLeg("compiled", compiled_dir, inputs, refs, tally)
    cold = ColdEval(inputs, refs, tally)
    ops = {  # each returns the wall seconds of one operation
        "verify_all_s": lambda: legs["pure-verify"].call(1)["wall"],
        "verify_all_s.threads2": lambda: legs["pure-verify"].call(2)["wall"],
        "verify_all_s.compiled": lambda: legs["compiled-verify"].call(1)["wall"],
        "table_pts_per_s": lambda: legs["pure-table"].call()["wall"],
        "table_pts_per_s.compiled": lambda: legs["compiled-table"].call()["wall"],
        "eval_cold": lambda: cold.call().wall_s,
        "setup": setup_probe,
    }
    if compiled_dir is None:
        del ops["verify_all_s.compiled"], ops["table_pts_per_s.compiled"]
    setup_probe()  # leaves bytecode caches warm, as for any user
    shares = SHARES[args.workload]
    spent = dict.fromkeys(ops, 0.0)
    wall = {op: [] for op in ops}
    spans = {op: [] for op in ops}  # (start, end) of each sample
    cals = [calibrate()]  # (midpoint, seconds) of each calibration loop
    t_end = time.perf_counter() + args.seconds
    while True:
        short = [op for op in ops if len(wall[op]) < MIN_SAMPLES[op]]
        if not short and time.perf_counter() >= t_end:
            break
        op = min(short or ops, key=lambda o: spent[o] / shares[o])
        t0 = time.perf_counter()
        wall[op].append(ops[op]())
        t1 = time.perf_counter()
        spent[op] += t1 - t0
        spans[op].append((t0, t1))
        cals.append(calibrate())
    norm = {op: [w * CAL_NOMINAL_S / local_speed(cals, *span)
                 for w, span in zip(wall[op], spans[op])] for op in ops}

    rss = {name: leg.worker.close()["max_rss_mb"] for name, leg in legs.items()}
    # Means, not medians: the host switches between a fast and a slow
    # state, and a median of ten samples jumps between the two, while the
    # mean moves with the share of time spent in each.
    m = {name: statistics.fmean(norm[name]) for name in
         ("verify_all_s", "verify_all_s.threads2", "verify_all_s.compiled") if name in norm}
    for name, leg in (("table_pts_per_s", "pure-table"),
                      ("table_pts_per_s.compiled", "compiled-table")):
        if name in norm:
            m[name] = legs[leg].points / statistics.fmean(norm[name])
    m["setup_s"] = statistics.median(norm["setup"])
    m["eval_cold_ms.p50"] = 1e3 * statistics.median(norm["eval_cold"])
    m["eval_cold_ms.p90"] = 1e3 * statistics.quantiles(norm["eval_cold"], n=10)[-1]
    leg = "verify" if args.workload == "verify-all" else "table"
    m["peak_rss_mb"] = max(v for k, v in rss.items() if k.endswith(leg))
    m["ok_frac"] = 1.0 - tally.failed / max(tally.attempted, 1)
    m["bound_held_frac"] = 1.0 - sum(tally.violations.values()) / max(tally.checked, 1)
    m["max_rel_err"] = tally.max_rel_err
    m["_samples"] = {"wall_s": wall, "spans": spans, "calibration": cals}
    return m


# --- the traced run ---------------------------------------------------------------

CALLS_AND_SELF = (
    "kernels.bs_series", "kernels.wright_series", "kernels.hyp2f1_kernel",
    "kernels.lgamma_sign", "kernels.bessel_series", "kernels.struve_series",
    "gammacore.gamma_ratio", "gammacore.ln_gamma_signed",
    "series.bessel_struve_kernel", "series.bessel_first_kind", "series.struve",
    "wright.wright_eval",
    "msm.msm_power_image", "msm.msm_bs_closed_form", "msm.msm_quadrature",
    "msm.ClosedFormImage.value_at",
    "pathway.pathway_power_image", "pathway.pathway_bs_closed_form",
    "pathway.pathway_quadrature", "pathway.pathway_density",
    "quadrature.tanh_sinh", "quadrature.exp_sinh",
)
COUNTERS = ("kernels.bs_series.terms", "kernels.wright_series.terms",
            "wright.wright_eval.terms", "quadrature.tanh_sinh.nodes",
            "quadrature.exp_sinh.nodes")
MIN_TRACED_PASSES = 2


def layer_metrics(passes: list[dict], tally) -> dict:
    """Per-layer numbers from the traced passes: counts from the first pass
    (every pass must repeat them exactly), times as medians over passes."""
    first = passes[0]
    for other in passes[1:]:
        if other["calls"] != first["calls"] or other["counts"] != first["counts"]:
            tally.problem("traced passes differ in call counts")

    def med(kind, name):
        return statistics.median(p[kind].get(name, 0.0) for p in passes)

    m = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = first["calls"].get(name, 0)
        m[f"{name}.self_s"] = med("self_s", name)
    m["gammacore.is_pole.calls"] = first["calls"].get("gammacore.is_pole", 0)
    m["quadrature.integrand.self_s"] = med("self_s", "quadrature.integrand")
    for name in COUNTERS:
        m[name] = first["counts"].get(name, 0)
    series_calls = first["counts"].get("kernels.series_calls", 0)
    m["kernels.unconverged_frac"] = (first["counts"].get("kernels.unconverged_calls", 0)
                                     / series_calls if series_calls else 0.0)
    for cid in EXPECTED_STATUS:
        m[f"checks.{cid}.wall_s"] = med("wall_s", f"checks.{cid}")
    m["checks.self_s"] = statistics.median(
        sum(v for k, v in p["self_s"].items() if k.startswith("checks.")) for p in passes)
    m["cli.self_s"] = med("self_s", "cli")
    return m


def traced_workload(args, inputs, refs, seed_grid, tally):
    """Untraced and traced passes of the named workload, alternating, on
    the pure leg.

    Returns (untraced seconds, traced seconds, per-pass trace summaries),
    each time a median.  A traced pass must reproduce the untraced output
    bit for bit.
    """
    t_end = time.perf_counter() + max(1.0, args.seconds / 2)
    dump = str(BUILD / "trace" / f"{args.workload}.npz")
    untraced, traced, passes = [], [], []
    if args.workload == "verify-all":
        leg = VerifyLeg("pure", None, seed_grid, tally, dump=dump)

        def run(trace):
            return leg.call(1, trace)
    else:
        leg = TableLeg("pure", None, inputs, refs, tally, dump=dump)

        def run(trace):
            return leg.call(trace)
    try:
        while len(passes) < MIN_TRACED_PASSES or time.perf_counter() < t_end:
            untraced.append(run(False)["wall"])
            reply = run(True)
            traced.append(reply["wall"])
            passes.append(reply["trace"])
        leg.worker.close()
    finally:
        leg.worker.kill()
    return statistics.median(untraced), statistics.median(traced), passes


def import_times() -> dict:
    """Cumulative ``-X importtime`` figures of the CLI, the harness and click."""
    samples = {"cli.import_s": [], "cli.import.checks_s": [], "cli.import.click_s": []}
    for _ in range(IMPORT_PROBES):
        child, _ = run_child([sys.executable, "-X", "importtime", "-c", "import bsfrac.cli"],
                             child_env("pure", None))
        cumulative, top = {}, 0.0
        for line in child.err_text.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cum, name = line[len("import time:"):].split("|")
            cumulative.setdefault(name.strip(), int(cum) * 1e-6)
            if name.strip() in ("bsfrac", "bsfrac.cli") and not name.startswith("  "):
                top += int(cum) * 1e-6  # the two top-level entries of the import
        samples["cli.import_s"].append(top)
        samples["cli.import.checks_s"].append(cumulative.get("bsfrac.checks", 0.0))
        samples["cli.import.click_s"].append(cumulative.get("click", 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


def kernel_slug(name: str) -> str:
    out = "".join(c if c.isalnum() or c in "._-" else "_" for c in name)
    while "__" in out:
        out = out.replace("__", "_")
    return out.strip("_")


def kernel_timings(compiled_dir, tally) -> dict:
    """``kernels.<workload>.<backend>.us`` for bench_backends.WORKLOADS, and
    the largest relative difference between the backends' values."""
    child = Child.worker("compiled" if compiled_dir else "pure", compiled_dir,
                         {"bench_backends": str(BENCH_BACKENDS)})
    try:
        rows = child.call(op="kernels")["kernels"]
        child.close()
    finally:
        child.kill()
    metrics, worst = {}, 0.0
    for row in rows:
        slug = kernel_slug(row["name"])
        for label, us in row["us"].items():
            metrics[f"kernels.{slug}.{label}.us"] = us
        values = list(row["values"].values())
        tally.op(all(math.isfinite(v) for v in values),
                 f"kernel workload {row['name']}: non-finite value")
        if len(values) == 2:
            a, b = values
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    if compiled_dir is not None:
        metrics["kernels.xbackend_max_rel_diff"] = worst
    return metrics


def traced_run(args, compiled_dir, inputs, refs, seed_grid, tally) -> dict:
    untraced, traced, passes = traced_workload(args, inputs, refs, seed_grid, tally)
    m = layer_metrics(passes, tally)
    m["trace.overhead_frac"] = traced / untraced - 1.0
    m.update(import_times())
    m["cli.bare_python_s"] = interpreter_floor()
    m.update(kernel_timings(compiled_dir, tally))
    return m


# --- metadata and output ----------------------------------------------------------

def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def load_manifest() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (BenchError, WorkerError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    if not (SRC / "bsfrac" / "cli.py").exists() or not BENCH_BACKENDS.exists():
        raise BenchError(f"no bsfrac source tree under {ROOT} (need src/bsfrac and "
                         "benchmarks/bench_backends.py)")
    manifest = load_manifest()
    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    BUILD.mkdir(exist_ok=True)

    compiled_dir, build_meta = build_compiled()
    inputs = wl.make_inputs(args.seed)
    t0 = time.perf_counter()
    refs, ref_source = wl.load_references(inputs, BUILD / "refs")
    ref_s = time.perf_counter() - t0
    seed_grid = BUILD / "tmp" / f"seed-grid-{args.seed}.json"
    seed_grid.parent.mkdir(parents=True, exist_ok=True)
    seed_grid.write_text(json.dumps({"density_seed": inputs["density_seed"]}))
    floor = interpreter_floor()

    tally = Tally()
    runner = traced_run if args.trace else measured_run
    metrics = runner(args, compiled_dir, inputs, refs, seed_grid, tally)
    samples = metrics.pop("_samples", None)
    if compiled_dir is None:
        tally.problem(f"compiled leg skipped: {build_meta['reason']}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in wanted})
    if missing or extra:
        tally.problem(f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}")

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": _source_hash(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "backends": ["python"] + (["compiled"] if compiled_dir is not None else []),
        "compiled_build": build_meta, "bare_python_s": floor,
        "references": {"source": ref_source, "seconds": ref_s, "dps": wl.REF_DPS},
        "density_seed": inputs["density_seed"],
        "samples": {op: len(v) for op, v in samples["wall_s"].items()} if samples else None,
        "calibration": {"loops": CAL_LOOPS, "nominal_s": CAL_NOMINAL_S,
                        "window_s": CAL_WINDOW_S, "median_s":
                        statistics.median(c for _, c in samples["calibration"])}
        if samples else None,
    }
    out = {"correct": tally.failed == 0 and not tally.problems,
           "attempted": tally.attempted, "failed": tally.failed,
           "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                       for m in wanted if m["name"] in metrics}}
    extras = {"failed_frac": tally.failed / max(tally.attempted, 1),
              "bound_violations": sum(tally.violations.values()),
              "values_checked": tally.checked,
              "bound_violations_by_case": tally.violations, "samples": samples}

    print(f"bsfrac benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, entry in out["metrics"].items():
        print(f"  {name:<56} {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"  {'failed_frac':<56} {extras['failed_frac']:.6g} ratio")
        print(f"  {'bound_violations':<56} {extras['bound_violations']} count "
              f"(of {tally.checked} values checked)")
        print("  bound violations by case: " + json.dumps(tally.violations, sort_keys=True))
        print("  median wall times as measured, before scaling to the nominal host speed:")
        for op, v in samples["wall_s"].items():
            print(f"    {op:<54} {statistics.median(v):.6g} s ({len(v)} samples)")
    for problem in tally.problems:
        print(f"problem: {problem}")
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": out, "extras": extras}, indent=1))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
