"""Tests of the benchmark harness itself: failure accounting and tracing.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import rnpm  # noqa: E402
import rnpm.cli as cli  # noqa: E402
from rnpm import chain, distill, formulas, optimize  # noqa: E402

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Op, check_perf, check_repeater  # noqa: E402

REF = json.loads((HERE / "reference.json").read_text())


def test_failed_ops_count_and_do_not_stop_the_pass(tmp_path):
    ops = [
        # OverflowError in direct_transmission_time
        Op("repeater-far", "repeater", {"repeater": {"L_km": [20000]}},
           check_repeater),
        # TypeError from float(None)
        Op("perf-null", "perf", {"perf": {"beta_sq": [None]}}, check_perf,
           fmt="json"),
        # exit code 2: unknown key
        Op("perf-typo", "perf", {"perf": {"beta": [0.1]}}, check_perf),
        # wrong output: a perf table with the wrong number of rows
        Op("perf-short", "perf",
           {"perf": {"beta_sq": [0.04], "detectors": ["threshold"]}},
           lambda op, out, ref: check_perf(
               Op(op.name, op.command, {"perf": {"beta_sq": [0.04, 0.1],
                                                 "detectors": ["threshold"]}},
                  check_perf), out, ref),
           fmt="json"),
        Op("perf-ok", "perf",
           {"perf": {"beta_sq": [0.04, 0.1], "detectors": ["threshold"]}},
           check_perf, fmt="json"),
    ]
    result = run.run_pass(cli, ops, 0, REF, tmp_path)
    assert result.attempted == 5
    assert len(result.failures) == 4
    assert "OverflowError" in result.failures[0]
    assert "TypeError" in result.failures[1]
    assert "exit code 2" in result.failures[2]
    assert "check failed" in result.failures[3]
    assert result.seconds > 0


def test_tracer_wraps_every_binding_and_restores_them():
    originals = {(m, a): getattr(m, a) for m, a in (
        (chain, "performance"), (distill, "performance"),
        (cli, "performance"), (optimize, "generation_perf"),
        (cli, "simulate_waiting_time"), (formulas, "performance"))}
    tracer = Tracer()
    tracer.install()
    try:
        for (mod, attr), fn in originals.items():
            assert getattr(mod, attr) is not fn
            assert getattr(mod, attr).__wrapped__ is fn
        assert rnpm.performance.__wrapped__ is originals[(formulas, "performance")]
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn


def test_tracer_counts_are_exact_under_thread_contention():
    hw = chain.Hardware(0.98, formulas.DetectorModel(
        formulas.DetectorKind.SINGLE_PHOTON, 0.95))
    threads, calls = 8, 500
    tracer = Tracer()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    tracer.install()
    try:
        def work():
            for _ in range(calls):
                optimize.generation_perf(0.1, hw, 20.0,
                                         chain.GeometryKind.MIDPOINT)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in pool)
    finally:
        tracer.uninstall()
        sys.setswitchinterval(switch)
    stats, _ = tracer.collect()
    calls_gen, seconds_gen, self_gen = stats["chain.generation_perf"]
    calls_perf, seconds_perf, _ = stats["formulas.performance"]
    assert calls_gen == calls_perf == threads * calls
    assert 0 < self_gen < seconds_gen
    assert seconds_perf < seconds_gen


def test_spans_nest_under_the_op(tmp_path):
    ops = [Op("repeater-one", "repeater",
              {"repeater": {"L_km": [100.0, 200.0], "F_targets": [0.9]}},
              lambda op, out, ref: None)]
    tracer = Tracer()
    tracer.install()
    try:
        result = run.run_pass(cli, ops, 3, REF, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert not result.failures
    stats, spans = tracer.collect()
    root = [s for s in spans if s["name"] == "cli.run"]
    points = [s for s in spans if s["name"] == "optimize.optimize_chain"]
    assert len(root) == 1 and len(points) == 2
    assert all(s["parent"] == root[0]["span"] for s in points)
    assert {s["trace"] for s in spans} == {"3:repeater-one"}
    metrics = run.layer_metrics(stats, spans)
    assert metrics["optimize.evals_per_point"] == (
        stats["chain.generation_perf"][0] / 2)


def test_exits_nonzero_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    shutil.copy(HERE / "reference.json", bench)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "link", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
