#!/usr/bin/env python3
"""rnpm benchmark: one workload per process, through ``rnpm.cli.run``.

    python3 perfbench/run.py --workload repeater --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The run

* times a fresh interpreter's ``import rnpm.cli`` several times (set-up),
* runs one warm-up pass of the workload, then timed passes for
  ``--seconds`` (a pass starts only if it should end within them), and
  checks every op's output,
* prints each metric by name and unit and, as its last line, one JSON object
  with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
untraced and traced passes alternate on the same inputs and the metrics are
the per-layer ones from `tracer.Tracer`; the spans go to ``perfbench/out/``.
``METRICS.md`` says which end-to-end metric each per-layer one should move.

``--record`` rewrites ``reference.json`` from the program in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer
from workloads import DEEP_CHAINS, REPEATER_CONFIG, WORKLOADS, CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
#: lists the metrics a run reports, with their units
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_SAMPLES = 3
#: seconds one set-up sample may take before the run is abandoned
SETUP_TIMEOUT = 120
#: benchmark seed whose Monte Carlo outputs reference.json holds byte for byte
RECORDED_SEED = 0
#: passes of RECORDED_SEED recorded per workload
RECORDED_PASSES = {"montecarlo-deep": 12, "link": 40}
#: trials of the long runs that center the deep-chain checks
REFERENCE_TRIALS = {"mc-n6": 2048, "mc-n4": 9600}

IMPORT_SECONDS = ("import time; t = time.perf_counter(); import rnpm.cli; "
                  "print(time.perf_counter() - t)")
IMPORT_MODULES = ("import sys; before = set(sys.modules); import rnpm.cli; "
                  "print(len(set(sys.modules) - before))")


def rnpm_threads() -> int:
    """CPUs this process may run on, never more than the machine has."""
    return max(1, min(len(os.sched_getaffinity(0)), os.cpu_count() or 1))


def fresh_interpreter(code: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports from src/."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]]
                         if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True,
                          timeout=SETUP_TIMEOUT)
    return done.stdout


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    seconds: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)


def run_op(cli, op, config_path: Path, ref: dict) -> tuple[float, str | None]:
    """(seconds inside cli.run, failure message or None).

    A raised exception, an exit code other than 0 or 3, or a failed check
    each count as a failure; none of them stops the benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.run(op.argv(str(config_path)), stdout=out)
    except (Exception, SystemExit) as exc:
        seconds = time.perf_counter() - t0
        last = traceback.extract_tb(exc.__traceback__)[-1]
        return seconds, (f"{op.name}: {type(exc).__name__}: {exc} "
                         f"({Path(last.filename).name}:{last.lineno})")
    seconds = time.perf_counter() - t0
    if code not in (0, 3):
        return seconds, (f"{op.name}: exit code {code}: "
                         f"{err.getvalue().strip()}")
    try:
        op.check(op, out.getvalue(), ref)
    except (CheckError, ValueError, KeyError, TypeError) as exc:
        return seconds, f"{op.name}: check failed: {exc}"
    return seconds, None


def run_pass(cli, ops, pass_index: int, ref: dict, config_dir: Path,
             tracer=None) -> PassResult:
    """Run the ops in order; the pass time is the sum of their cli.run times."""
    paths = []
    for op in ops:
        path = config_dir / f"p{pass_index}-{op.name}.json"
        path.write_text(json.dumps(op.config))
        paths.append(path)
    result = PassResult()
    for op, path in zip(ops, paths):
        if tracer is not None:
            tracer.trace_id = f"{pass_index}:{op.name}"
        seconds, failure = run_op(cli, op, path, ref)
        result.seconds += seconds
        result.attempted += 1
        if failure:
            result.failures.append(failure)
    return result


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(stats: dict, spans: list) -> dict:
    """Per-layer metrics of one traced pass (all but set-up and overhead)."""
    m = {}
    for name, (calls, seconds, _) in stats.items():
        m[f"{name}.calls"] = calls
        m[f"{name}.s"] = seconds
    m["cli.self_s"] = stats["cli.run"][2]
    m["optimize.self_s"] = stats["optimize.optimize_chain"][2]
    points = stats["optimize.optimize_chain"][0]
    m["optimize.evals_per_point"] = (
        stats["chain.generation_perf"][0] / points if points else 0)
    mc_seconds = stats["chain.simulate_waiting_time"][1]
    trials = sum(s["trials"] for s in spans
                 if s["name"] == "chain.simulate_waiting_time")
    m["chain.mc.trials_per_s"] = trials / mc_seconds if mc_seconds else 0.0
    return m


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def environment(seed: int, workload: str, trace: int) -> dict:
    import numpy
    import scipy
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "rnpm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": seed, "trace": trace,
            "git_rev": rev, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "RNPM_THREADS": os.environ["RNPM_THREADS"]}


def measure(cli, ops_of, seed: int, seconds: float, trace: bool,
            ref: dict, config_dir: Path) -> dict:
    """Warm-up pass, then timed passes; returns pass times and failures.

    With tracing, each timed pass is run again traced on the same inputs.
    """
    passes = [run_pass(cli, ops_of(seed, 0), 0, ref, config_dir)]
    untraced, traced, layers, spans = [], [], [], []
    tracer = None
    if trace:
        tracer = Tracer()
    start = time.perf_counter()
    index = 1
    while True:
        ops = ops_of(seed, index)
        result = run_pass(cli, ops, index, ref, config_dir)
        passes.append(result)
        untraced.append(result.seconds)
        if tracer is not None:
            # the same inputs again, traced
            tracer.reset()
            tracer.install()
            try:
                result = run_pass(cli, ops, index, ref, config_dir, tracer)
            finally:
                tracer.uninstall()
            passes.append(result)
            traced.append(result.seconds)
            stats, pass_spans = tracer.collect()
            layers.append(layer_metrics(stats, pass_spans))
            spans.extend(pass_spans)
        elapsed = time.perf_counter() - start
        # start no pass that should end after the window
        if elapsed * (index + 1) / index > seconds:
            break
        index += 1
    return {"passes": passes, "untraced": untraced, "traced": traced,
            "layers": layers, "spans": spans}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite reference.json and exit")
    args = ap.parse_args(argv)

    if not (SRC / "rnpm" / "cli.py").is_file():
        print(f"error: no rnpm sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        os.environ["RNPM_THREADS"] = str(rnpm_threads())
        return record()
    if args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    for path in (REFERENCE, BENCHMARK):
        if not path.is_file():
            print(f"error: {path.name} is missing", file=sys.stderr)
            return 2
    ref = json.loads(REFERENCE.read_text())
    spec = json.loads(BENCHMARK.read_text())
    os.environ["RNPM_THREADS"] = str(rnpm_threads())

    # set-up: a fresh interpreter per sample, before this process grows
    if args.trace:
        modules = int(fresh_interpreter(IMPORT_MODULES))
    else:
        setup = [float(fresh_interpreter(IMPORT_SECONDS))
                 for _ in range(SETUP_SAMPLES)]

    sys.path.insert(0, str(SRC))
    import rnpm.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "rnpm":
        print(f"error: imported rnpm from {cli.__file__}", file=sys.stderr)
        return 2

    config_dir = OUT / f"configs-{args.workload}-seed{args.seed}"
    config_dir.mkdir(parents=True, exist_ok=True)
    run = measure(cli, WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), ref, config_dir)
    passes = run["passes"]
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    env = environment(args.seed, args.workload, args.trace)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    if args.trace:
        values = {name: statistics.median(layer[name]
                                          for layer in run["layers"])
                  for name in run["layers"][0]}
        values["setup.modules"] = modules
        values["trace.overhead_s"] = (statistics.median(run["traced"])
                                      - statistics.median(run["untraced"]))
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans_path.write_text("".join(json.dumps(span) + "\n"
                                      for span in run["spans"]))
        notes = {"trace.overhead_s": f"{len(run['traced'])} traced and "
                                     f"{len(run['untraced'])} untraced passes"}
    else:
        values = {"setup_s": statistics.median(setup),
                  "wall_s": statistics.median(run["untraced"]),
                  "peak_rss_mb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        # A 25 s run holds 3 to about 30 passes: too few for a percentile
        # well above the median to have ten samples beyond it. The slowest
        # pass stands in for the tail, in every run alike.
        values["wall_s.tail"] = max(run["untraced"])
        notes = {"setup_s": f"median of {len(setup)} fresh imports",
                 "wall_s": f"median of {len(run['untraced'])} passes "
                           f"after 1 warm-up",
                 "wall_s.tail": f"slowest of {len(run['untraced'])} passes",
                 "peak_rss_mb": "ru_maxrss of this process"}
    listed = spec["per_layer" if args.trace else "end_to_end"]
    report = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
              for m in listed}
    for name, value in report.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<34} {value['value']:.6g} {value['unit']}{note}")
    print(f"{'error_rate':<34} {len(failures) / attempted:.6g}  "
          f"({len(failures)} failed of {attempted} ops)")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({
         "env": env, "metrics": report, "failures": failures,
         "untraced_pass_s": run["untraced"], "traced_pass_s": run["traced"]},
         indent=1))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": report}))
    return 0


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------

def record() -> int:
    """Write reference.json from the program in this checkout."""
    sys.path.insert(0, str(SRC))
    import rnpm.cli as cli

    def stdout_of(config: dict, command: str) -> str:
        path = OUT / "record.json"
        path.write_text(json.dumps(config))
        buf = io.StringIO()
        code = cli.run([command, "--config", str(path)], stdout=buf)
        if code != 0:
            raise RuntimeError(f"{command} exited {code}")
        return buf.getvalue()

    OUT.mkdir(exist_ok=True)
    ref = {"recorded_seed": RECORDED_SEED,
           "repeater_csv": stdout_of(REPEATER_CONFIG, "repeater"),
           "distill_csv": stdout_of({}, "distill"),
           "mc_mean": {}, "mc_stdout": {}}
    for name, block in DEEP_CHAINS.items():
        out = stdout_of({"montecarlo": dict(block,
                                            trials=REFERENCE_TRIALS[name],
                                            seed=12345)}, "montecarlo")
        row = next(r for r in out.splitlines()
                   if r.startswith("waiting_time_units,"))
        cols = out.splitlines()[0].split(",")
        values = dict(zip(cols, row.split(",")))
        ref["mc_mean"][name] = {"mean": float(values["empirical_mean"]),
                                "std_error": float(values["std_error"]),
                                "trials": REFERENCE_TRIALS[name],
                                "seed": 12345}
    for workload, count in RECORDED_PASSES.items():
        for index in range(count):
            for op in WORKLOADS[workload](RECORDED_SEED, index):
                if op.command == "montecarlo":
                    key = f"{op.name}:{op.config['montecarlo']['seed']}"
                    ref["mc_stdout"][key] = stdout_of(op.config, "montecarlo")
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}: "
          f"{len(ref['mc_stdout'])} Monte Carlo outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
