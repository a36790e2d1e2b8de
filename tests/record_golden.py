"""Record the CLI output contract into tests/golden/corpus.json.

    PYTHONPATH=src python tests/record_golden.py

Each case is a config and an argv. The corpus stores, per case, the stdout,
the exit code and the first stderr line of one in-process ``cli.run``;
``tests/test_golden.py`` replays every case and compares the strings exactly.
Re-record only in a change that states which outputs it changes and why.
"""

from __future__ import annotations

import contextlib
import io
import json
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
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(doc, indent=1) + "\n")
    codes = sorted({r["exit"] for r in records})
    print(f"{len(records)} cases, exit codes {codes}, "
          f"{CORPUS.stat().st_size // 1024} KiB -> {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    main()
