#!/usr/bin/env python3
"""Paired benchmark runs: a base revision against the working tree.

    python3 tools/bench_pairs.py --base HEAD --pairs 10 --seconds 10 \\
        --workloads repeater montecarlo-deep link --seeds 11 12 13 \\
        --out BENCH.json

The base revision is exported with ``git archive`` into a temporary
directory. Each side runs its own ``perfbench/run.py --trace 0``, which
imports that side's ``src/``. Pair i runs both sides on the i-th seed (the
seeds repeat if there are fewer than pairs), and the side that runs first
alternates from pair to pair. The last line of each run's stdout is its
result. The output file holds the environment and, per workload and
end-to-end metric of ``BENCHMARK.json``, both sides' medians and
interquartile ranges, the pairs the change won and the failed ops.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          check=True).stdout


def export(rev: str, dest: Path) -> None:
    """The files of ``rev``, unpacked under ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run, or ``{"error": ...}``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                              timeout=4 * seconds + 600)
    except subprocess.TimeoutExpired as exc:
        return {"error": f"timed out after {exc.timeout} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip()[-500:]
        return {"error": f"exit {done.returncode}: {tail}"}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """One workload's summary from its runs, parent and change alternating.

    ``runs`` holds {"parent": result, "change": result} per pair; a result
    is a run's last line or {"error": ...}. Pairs with an errored run count
    as failed runs and are left out of the medians and of the pairs won.
    """
    whole = [r for r in runs if not any("error" in r[s] for s in SIDES)]
    out = {"pairs": len(runs), "complete_pairs": len(whole),
           "failed_runs": {s: sum("error" in r[s] for r in runs)
                           for s in SIDES},
           "failed_ops": {s: sum(r[s].get("failed", 0) for r in runs)
                          for s in SIDES},
           "attempted_ops": {s: sum(r[s].get("attempted", 0) for r in runs)
                             for s in SIDES},
           "metrics": {}}
    if not whole:
        return out
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        values = {s: [r[s]["metrics"][name]["value"] for r in whole]
                  for s in SIDES}
        row = {"unit": m["unit"], "better": m["better"]}
        for s in SIDES:
            q1, median, q3 = quartiles(values[s])
            row[s] = {"median": median, "iqr": q3 - q1}
        base = row["parent"]["median"]
        row["change_over_parent"] = (row["change"]["median"] / base
                                     if base else None)
        row["pairs_won"] = sum(sign * (c - p) < 0 for p, c in
                               zip(values["parent"], values["change"]))
        out["metrics"][name] = row
    return out


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "RNPM_THREADS": os.environ.get("RNPM_THREADS")}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git revision of the parent")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    head = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain").strip())
    report = {"base": git("rev-parse", args.base).decode().strip(),
              "change": head + (" plus uncommitted changes" if dirty else ""),
              "environment": environment(), "pairs": args.pairs,
              "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export(args.base, trees["parent"])
        for workload in args.workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.seeds[i % len(args.seeds)]
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                runs.append({s: run_once(trees[s], workload, seed,
                                         args.seconds) for s in order})
                print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: "
                      + ", ".join(f"{s} {runs[-1][s].get('error', 'ok')}"
                                  for s in SIDES), file=sys.stderr)
            report["workloads"][workload] = summarize(runs, metrics)
    summaries = report["workloads"].values()
    report["failed"] = any(sum(w["failed_ops"].values())
                           + sum(w["failed_runs"].values()) for w in summaries)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if report["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
