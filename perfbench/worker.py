"""One benchmark child process.  Started by run.py as

    python3 perfbench/worker.py '<config as JSON>'

with PYTHONPATH naming the bsfrac package to measure.  It imports bsfrac
and its CLI, prints ``ready`` (the parent times set-up up to that line),
then answers one JSON command per line on stdin with one JSON line on
stdout until stdin closes or an ``exit`` command arrives.

Commands (``op``): ``verify`` (one in-process ``verify all``), ``table``
(one pass over the table rows of the config), ``kernels`` (per-call kernel timings on both backends) and ``exit``
(reply with the peak RSS).  ``"trace": true`` runs the command under the
tracer and adds its summary to the reply.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer


def invoke(args, out, err):
    """Run the CLI in-process into the given buffers; returns (exit code,
    stdout, error text).  The buffers are reused across calls: click caches
    a wrapper per distinct ``sys.stdout`` object and never frees it."""
    for buf in (out, err):
        buf.seek(0)
        buf.truncate()
    code, error = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            sys.modules["bsfrac.cli"].main(args, prog_name="bsfrac")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # reported as a failed operation
            code, error = -1, f"{type(exc).__name__}: {exc}"
    if code and error is None:
        error = err.getvalue().strip()[-300:]
    return code, out.getvalue(), error


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Session:
    def __init__(self, config):
        self.config = config
        self.tracer = None
        self.dumped = False
        self.buffers = (io.StringIO(), io.StringIO())

    def cli(self, args, traced):
        if not traced:
            return invoke(args, *self.buffers)
        return self.tracer.span("cli", invoke, args, *self.buffers)

    def verify(self, cmd, traced):
        args = ["--format", "json", "--threads", str(cmd["threads"]),
                "--seed-grid", self.config["seed_grid"], "verify", "all"]
        t0 = time.perf_counter()
        code, out, error = self.cli(args, traced)
        wall = time.perf_counter() - t0
        statuses, canon = {}, ""
        if code == 0:
            doc = json.loads(out)
            doc.pop("wall_ms", None)
            statuses = {c["id"]: c["status"] for c in doc["checks"]}
            canon = json.dumps(doc, sort_keys=True)
        return {"wall": wall, "code": code, "error": error, "statuses": statuses,
                "digest": digest(canon)}

    def table(self, cmd, traced):
        wall, codes, errors, outputs = 0.0, [], [], []
        for args in self.config["rows"]:
            t0 = time.perf_counter()
            code, out, error = self.cli(args, traced)
            wall += time.perf_counter() - t0
            codes.append(code)
            errors.append(error)
            outputs.append(out)
        reply = {"wall": wall, "codes": codes, "errors": errors,
                 "digests": [digest(o) for o in outputs]}
        if cmd.get("outputs"):
            reply["outputs"] = outputs
        return reply

    def kernels(self, cmd, traced):
        return {"kernels": kernel_timings(self.config["bench_backends"])}

    OPS = ("verify", "table", "kernels")

    def handle(self, cmd):
        if cmd["op"] not in self.OPS:
            raise ValueError(f"unknown command {cmd['op']!r}")
        traced = bool(cmd.get("trace"))
        if not traced:
            return getattr(self, cmd["op"])(cmd, traced)
        self.tracer = Tracer()
        self.tracer.install()
        try:
            reply = getattr(self, cmd["op"])(cmd, traced)
        finally:
            self.tracer.uninstall()
        reply["trace"] = self.tracer.summary()
        if not self.dumped and self.config.get("dump"):
            self.tracer.dump(Path(self.config["dump"]))
            self.dumped = True
        return reply


def kernel_timings(path):
    """Per-call times of the ``WORKLOADS`` in benchmarks/bench_backends.py."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_backends", path)
    bb = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bb)
    modules = {"pure": bb.pure, "compiled": bb.compiled}
    out = []
    for name, fn in bb.WORKLOADS:
        row = {"name": name, "us": {}, "values": {}}
        for label, mod in modules.items():
            if mod is None:
                continue
            row["values"][label] = bb._value(fn(mod))
            n = 1
            while True:  # calibrate a batch of at least 10 ms
                t0 = time.perf_counter()
                for _ in range(n):
                    fn(mod)
                if time.perf_counter() - t0 >= 0.01:
                    break
                n *= 2
            batches = []
            for _ in range(7):
                t0 = time.perf_counter()
                for _ in range(n):
                    fn(mod)
                batches.append((time.perf_counter() - t0) / n * 1e6)
            row["us"][label] = sorted(batches)[3]
        out.append(row)
    return out


def main():
    config = json.loads(sys.argv[1])
    import bsfrac
    import bsfrac.cli  # noqa: F401

    print("ready", flush=True)
    session = Session(config)
    for line in sys.stdin:
        cmd = json.loads(line)
        if cmd["op"] == "exit":
            break
        reply = session.handle(cmd)
        reply["backend"] = bsfrac.BACKEND
        print(json.dumps(reply), flush=True)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"max_rss_mb": rss, "backend": bsfrac.BACKEND}), flush=True)


if __name__ == "__main__":
    main()
