"""Record the CLI output contract into tests/golden/corpus.json.

    PYTHONPATH=src python tests/record_golden.py

Each case is a config and an argv. The corpus stores, per case, the stdout,
the exit code and the first stderr line of one in-process ``cli.run``;
``tests/test_golden.py`` replays every case and compares the strings exactly.
Re-record only in a change that states which outputs it changes and why: the
script prints each case whose output differs from the corpus it replaces,
with per-column counts of the moved cells and the largest move, and then the
totals per column.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "golden" / "corpus.json"

DETECTORS = ("number_resolving", "single_photon", "threshold")
GEOMETRIES = ("midpoint", "endpoint")
#: (tau, eta) hardware points: typical, lossless, blind detector
HARDWARE = ({"tau": 0.98, "eta": 0.95}, {"tau": 1.0, "eta": 1.0},
            {"tau": 0.9, "eta": 0.0})


def _grid_cases() -> list[tuple[str, list[str], dict]]:
    """Every subcommand x format x detector x geometry, over the hardware."""
    cases = []
    for i, (det, geom) in enumerate((d, g) for d in DETECTORS for g in GEOMETRIES):
        hw = dict(HARDWARE[i % len(HARDWARE)], detector=det)
        top = {"hardware": hw, "geometry": {"kind": geom}}
        variant = "central" if geom == "midpoint" else "local"
        blocks = {
            "perf": {"perf": {"beta_sq": [0.01, 0.1], "L_A_km": 5,
                              "L_B_km": 15}},
            "repeater": {"repeater": {"L_km": [50, 400, 1500],
                                      "F_targets": [0.6, 0.99]}},
            "distill": {"distill": {"F_grid": [0.6, 0.8, 0.95],
                                    "beta_sq": [0.04, 0.1]}},
            "montecarlo": {"montecarlo": {"n": 2, "trials": 300, "seed": 1}},
            "montecarlo-rnpm": {"montecarlo": {
                "mode": "rnpm", "beta_sq": 0.05, "L_A_km": 4, "L_B_km": 9,
                "trials": 3000, "seed": 2}},
            "optics": {"optics": {"beta_sq": 0.005, "L_A_km": 5, "L_B_km": 15,
                                  "variant": variant}},
        }
        for name, block in blocks.items():
            command = name.split("-")[0]
            for fmt in ("csv", "json"):
                cases.append((f"{name}-{det}-{geom}-{fmt}",
                              [command, "--format", fmt], {**top, **block}))
    return cases


def _extra_cases() -> list[tuple[str, list[str], dict]]:
    waiting = [(f"waiting-n{n}", ["montecarlo"],
                {"montecarlo": {"n": n, "p_g": 0.3, "p_s": 0.6, "trials": 200,
                                "seed": 5}}) for n in (0, 1, 3, 4)]
    ok = [
        ("defaults-perf", ["perf"], {}),
        ("defaults-distill", ["distill"], {}),
        ("defaults-optics", ["optics"], {}),
        ("perf-all-detectors", ["perf", "--format", "json"],
         {"perf": {"beta_sq": [0.04], "detectors": list(DETECTORS)}}),
        # an arm photon-number mean of 102: the oracle's K is about 190
        ("perf-beta_sq-100", ["perf"], {"perf": {"beta_sq": [100]}}),
        ("repeater-detectors", ["repeater"],
         {"repeater": {"L_km": [300], "detectors": list(DETECTORS)}}),
        ("montecarlo-overrides", ["montecarlo", "--seed", "7", "--trials", "400"],
         {"montecarlo": {"n": 1, "p_g": 0.2, "trials": 5, "seed": 1}}),
        ("montecarlo-L_km", ["montecarlo", "--format", "json"],
         {"montecarlo": {"n": 1, "L_km": 30, "beta_g_sq": 0.1,
                         "beta_s_sq": 0.2, "trials": 100}}),
        ("optics-alpha-theta", ["optics"],
         {"optics": {"alpha": 0.35, "theta": 1.7, "variant": "local"}}),
        ("optics-initial-vector", ["optics"],
         {"optics": {"initial_state": ["1+1j", 0, 0, 1]}}),
        ("optics-initial-matrix", ["optics"],
         {"optics": {"initial_state": [[0.5, 0, 0, 0], [0, 0, 0, 0],
                                       [0, 0, 0, 0], [0, 0, 0, 0.5]]}}),
    ]
    infeasible = [
        ("repeater-F1", ["repeater"],
         {"repeater": {"L_km": [100], "F_targets": [1.0]}}),
        ("repeater-blind-json", ["repeater", "--format", "json"],
         {"hardware": {"eta": 0.0}, "repeater": {"L_km": [100]}}),
    ]
    bad = [
        ("perf", {"nope": 1}), ("perf", {"perf": {"bogus": 1}}),
        ("perf", {"perf": []}), ("perf", {"hardware": {"detector": "psychic"}}),
        ("perf", {"hardware": {"tau": 0}}), ("perf", {"hardware": {"eta": True}}),
        ("perf", {"hardware": {"f_hz": "1e10"}}),
        ("perf", {"hardware": {"f_hz": 10 ** 400}}),
        ("perf", {"perf": {"L_A_km": None}}), ("perf", {"perf": {"L_B_km": -1}}),
        ("perf", {"perf": {"beta_sq": 5}}), ("perf", {"perf": {"beta_sq": [1e6]}}),
        ("perf", {"perf": {"detectors": "threshold"}}),
        ("repeater", {"repeater": {"L_km": []}}),
        ("repeater", {"repeater": {"L_km": [None]}}),
        ("repeater", {"repeater": {"L_km": [100], "F_targets": 5}}),
        ("repeater", {"geometry": {"kind": "ring"}, "repeater": {"L_km": [100]}}),
        ("distill", {"distill": {"F_grid": ["0.9"]}}),
        ("distill", {"distill": {"F_grid": [1.5]}}),
        ("distill", {"distill": {"beta_sq": [True]}}),
        ("montecarlo", {"montecarlo": {"n": 1, "p_g": 0.1}}),
        ("montecarlo", {"montecarlo": {"n": 1.5, "p_g": 0.5, "trials": 10}}),
        ("montecarlo", {"montecarlo": {"mode": "bogus", "trials": 10}}),
        ("montecarlo", {"montecarlo": {"n": 40, "p_g": 1, "trials": 10}}),
        ("montecarlo", {"montecarlo": {"p_g": None, "trials": 10}}),
        ("montecarlo", {"montecarlo": {"n": 1, "p_g": 0.5, "L_km": -5,
                                       "trials": 10}}),
        ("montecarlo", {"montecarlo": {"mode": "rnpm", "L_A_km": 1e5,
                                       "trials": 10}}),
        ("optics", {"optics": {"alpha": 0.3}}),
        ("optics", {"optics": {"beta_sq": -0.1}}),
        ("optics", {"optics": {"variant": "bogus"}}),
        ("optics", {"optics": {"initial_state": [0, 0, 0, 0]}}),
        ("optics", {"optics": {"initial_state": [1, 0]}}),
        # exit 2 since the field table: exit 3, or internal messages, before
        ("repeater", {"repeater": {"L_km": [-5]}}),
        ("repeater", {"repeater": {"L_km": [100], "F_targets": [1.5]}}),
        ("distill", {"distill": {"beta_sq": [-1]}}),
        ("montecarlo", {"montecarlo": {"p_g": 0, "trials": 10}}),
        ("montecarlo", {"montecarlo": {"mode": 3, "trials": 10}}),
        ("montecarlo", {"montecarlo": {"n": -1, "p_g": 0.5, "trials": 10}}),
        ("montecarlo", {"montecarlo": {"L_km": 1e308, "trials": 10}}),
        ("optics", {"optics": {"initial_state": "x"}}),
        ("perf", {"perf": {"L_A_km": 1e5}}),
        ("perf", {"perf": {"beta_sq": [1e308]}}),
        # exit 2 since the fields are named: wrong rows or unnamed faults before
        ("montecarlo", {"montecarlo": {"n": 1, "p_g": 1e-300, "p_s": 0.3,
                                       "trials": 64}}),
        ("optics", {"optics": {"alpha": 1e200, "theta": 1e-200}}),
        ("optics", {"hardware": {"detector": "number_resolving"},
                    "optics": {"beta_sq": 1e300}}),
    ]
    errors = [(f"error-{i:02d}-{command}", [command], cfg)
              for i, (command, cfg) in enumerate(bad)]
    return waiting + ok + infeasible + errors


CASES = _grid_cases() + _extra_cases()


def run_case(cli, argv: list[str], config: dict, tmp: Path) -> tuple[str, int, str]:
    """(stdout, exit code, first stderr line) of one in-process run."""
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run([argv[0], "--config", str(path), *argv[1:]], stdout=out)
    return out.getvalue(), code, (err.getvalue().splitlines() or [""])[0]


def cells(stdout: str) -> list[tuple[str, object]]:
    """(column, value) of every cell of a CSV or JSON output, in order; a
    JSON value's column is the key it sits under."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        rows = list(csv.reader(io.StringIO(stdout)))
        return [pair for row in rows[1:] for pair in zip(rows[0], row)]
    found = []

    def walk(value, key):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, k)
        elif isinstance(value, list):
            for v in value:
                walk(v, key)
        else:
            found.append((key, value))

    walk(doc, "")
    return found


def moved_cells(old: str, new: str) -> dict[str, tuple[int, float]] | None:
    """Column -> (cells that differ, largest absolute move) between two
    outputs; None when their shape differs. A non-numeric move counts as inf."""
    a, b = cells(old), cells(new)
    if [c for c, _ in a] != [c for c, _ in b]:
        return None
    moved = {}
    for (col, x), (_, y) in zip(a, b):
        if x != y:
            try:
                move = abs(float(x) - float(y))
            except (TypeError, ValueError):
                move = math.inf
            count, largest = moved.get(col, (0, 0.0))
            moved[col] = (count + 1, max(largest, move))
    return moved


def report_changes(old_cases: list[dict], new_cases: list[dict], out) -> None:
    """Print each case whose record differs from ``old_cases``, then the
    per-column totals of the moved cells."""
    old = {c["name"]: c for c in old_cases}
    totals = {}
    for case in new_cases:
        before = old.pop(case["name"], None)
        if before is None:
            print(f"{case['name']}: new, exit {case['exit']}", file=out)
            continue
        notes = [f"{key} {before[key]!r} -> {case[key]!r}"
                 for key in ("argv", "config", "exit", "stderr")
                 if before[key] != case[key]]
        moved = moved_cells(before["stdout"], case["stdout"])
        if moved is None:
            notes.append("stdout changed shape")
        for col, (count, largest) in sorted((moved or {}).items()):
            notes.append(f"{col} {count} cells, largest move {largest:.3g}")
            n_cases, n_cells, top = totals.get(col, (0, 0, 0.0))
            totals[col] = (n_cases + 1, n_cells + count, max(top, largest))
        if notes:
            print(f"{case['name']}: " + "; ".join(notes), file=out)
    for name in old:
        print(f"{name}: removed", file=out)
    for col, (n_cases, n_cells, top) in sorted(totals.items()):
        print(f"total {col}: {n_cells} cells in {n_cases} cases, largest move "
              f"{top:.3g}", file=out)


def main() -> None:
    from rnpm import cli

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, config in CASES:
            stdout, code, stderr = run_case(cli, argv, config, Path(tmp))
            records.append({"name": name, "argv": argv, "config": config,
                            "exit": code, "stdout": stdout, "stderr": stderr})
    doc = {"python": platform.python_version(), "numpy": np.__version__,
           "cases": records}
    if CORPUS.exists():
        report_changes(json.loads(CORPUS.read_text())["cases"], records,
                       sys.stdout)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(doc, indent=1) + "\n")
    codes = sorted({r["exit"] for r in records})
    print(f"{len(records)} cases, exit codes {codes}, "
          f"{CORPUS.stat().st_size // 1024} KiB -> {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
