"""Paired benchmark runs: a base revision against the working tree.

    python3 benchmarks/pairs.py --base <rev> --pairs N --workload W --seed S \
        [--trace 0|1] [--out BENCH_prN.json]

The base revision is checked out as a detached ``git worktree`` under
``.bench_build/``, removed again at the end.  Then ``perfbench/run.py``
runs N times on each side, base and head (this working tree)
alternating, and which side goes first alternates pair by pair, so that a
drift of the host's speed hits both sides alike.

Each metric of ``BENCHMARK.json`` (``end_to_end``, or ``per_layer`` with
``--trace 1``) gets its per-pair ratios head/base, their median, the
medians and interquartile ranges of both sides and the number of pairs
the head won (better in the metric's direction; ties are counted apart).
The set is stored under
``sets["<workload> seed <S> trace <T> base <sha> head <sha>"]`` of the
output file, with every run's result, run length, commit and host
calibration, and rewritten after every pair.  Other sets in the file are
kept, so one file collects several invocations, and a set run again on
the same head gets the new pairs added to its own.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
# what a run of perfbench/run.py reads from the working tree
READ = ("src", "perfbench", "benchmarks/bench_backends.py", "BENCHMARK.json")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def run_bench(tree: Path, args) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its last stdout line, the
    run's length and calibration from its saved metadata, and its wall
    time."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    saved = tree / ".bench_build" / "results" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    meta = json.loads(saved.read_text())["meta"] if saved.exists() else {}
    return {"result": result, "seconds": meta.get("seconds"),
            "calibration": meta.get("calibration"),
            "git_sha": meta.get("git_sha"), "src_sha256": meta.get("src_sha256"),
            "run_wall_s": wall}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(runs: list, metrics: list) -> dict:
    """Per metric: the pairs' ratios head/base, their median, each side's
    median and interquartile range, and the head's wins and ties."""
    out = {}
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        base, head = [], []
        for sides in pairs.values():
            if name in sides.get("base", {}) and name in sides.get("head", {}):
                base.append(sides["base"][name]["value"])
                head.append(sides["head"][name]["value"])
        if not base:
            continue
        ratios = [h / b if b else (1.0 if h == b else float("inf")) for b, h in zip(base, head)]
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        ties = sum(h == b for b, h in zip(base, head))
        bq, hq = quartiles(base), quartiles(head)
        out[name] = {"better": m["better"], "ratios": ratios,
                     "median_ratio": statistics.median(ratios), "head_wins": wins, "ties": ties,
                     "base_median": statistics.median(base),
                     "head_median": statistics.median(head),
                     "base_iqr": bq[1] - bq[0], "head_iqr": hq[1] - hq[0]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the base revision (a commit or ref)")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload", required=True, choices=("verify-all", "table"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="BENCH_pairs.json",
                        help="the JSON file the set is written into (relative to the repo)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    base_sha = git("rev-parse", "--verify", args.base + "^{commit}")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = manifest["per_layer" if args.trace else "end_to_end"]
    BUILD.mkdir(exist_ok=True)
    tree = BUILD / f"base-{base_sha[:12]}"
    if tree.exists():
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                       capture_output=True)
        shutil.rmtree(tree, ignore_errors=True)
    git("worktree", "add", "--detach", str(tree), base_sha)
    head = git("rev-parse", "HEAD")
    key = (f"{args.workload} seed {args.seed} trace {args.trace} "
           f"base {base_sha[:7]} head {head[:7]}")
    out_path = ROOT / args.out
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    entry = doc.setdefault("sets", {}).setdefault(key, {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "base": base_sha, "head": head, "pairs": 0, "summary": {}, "runs": []})
    # uncommitted changes to the tracked files a run reads, except the output
    # file this run rewrites
    entry["head_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no", "--", *READ,
                                   f":(exclude){args.out}"))
    first = entry["pairs"]
    try:
        for pair in range(first, first + args.pairs):
            sides = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in sides:
                run = run_bench(tree if side == "base" else ROOT, args)
                run.update(pair=pair, side=side, order=len(entry["runs"]))
                entry["runs"].append(run)
                value = run["result"]["metrics"].get(metrics[0]["name"], {}).get("value")
                print(f"pair {pair} {side}: correct={run['result']['correct']} "
                      f"{metrics[0]['name']}={value}", flush=True)
            # written after every pair, so a cut run keeps its finished pairs
            entry.update(pairs=pair + 1, summary=summarize(entry["runs"], metrics))
            out_path.write_text(json.dumps(doc, indent=1) + "\n")
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                       capture_output=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)

    for name, s in entry["summary"].items():
        print(f"  {name:<48} median ratio {s['median_ratio']:.4f}  "
              f"head wins {s['head_wins']}/{entry['pairs']}  ties {s['ties']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
