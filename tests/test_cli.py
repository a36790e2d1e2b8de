"""CLI contract: schemas, exit codes, formats, determinism."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import traceback
import warnings

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rnpm.cli import FIELDS, parse_hardware, run
from rnpm.formulas import InteractionParams, LinkGeometry
from rnpm.optics import (ProtocolConfig, outcome_parity, phase_error_split,
                         run_protocol)

PERF_COLS = ["detector", "beta_sq", "T_A", "T_B", "eta", "p", "epsilon",
             "p_oracle", "epsilon_oracle"]
REPEATER_COLS = ["L_km", "F_target", "detector", "geometry", "n_opt",
                 "beta_g_sq", "beta_s_sq", "T_seconds", "F", "direct_seconds",
                 "errors"]
DISTILL_COLS = ["F", "beta_sq", "P_s", "F_prime"]
MC_COLS = ["quantity", "n", "p_g", "p_s", "trials", "seed",
           "empirical_mean", "std_error", "predicted"]


def invoke(tmp_path, command, config, *extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = io.StringIO()
    code = run([command, "--config", str(path), *extra], stdout=out)
    return code, out.getvalue()


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    header = text.splitlines()[0].split(",")
    return header, rows


class TestPerf:
    def test_schema_and_oracle_agreement(self, tmp_path):
        cfg = {"hardware": {"tau": 0.98, "eta": 0.95},
               "perf": {"beta_sq": [0.02, 0.04], "L_A_km": 10, "L_B_km": 10,
                        "detectors": ["single_photon", "threshold",
                                      "number_resolving"]}}
        code, text = invoke(tmp_path, "perf", cfg)
        assert code == 0
        header, rows = parse_csv(text)
        assert header == PERF_COLS
        assert len(rows) == 6
        for row in rows:
            assert abs(float(row["p"]) - float(row["p_oracle"])) < 1e-9
            assert abs(float(row["epsilon"]) - float(row["epsilon_oracle"])) < 1e-9

    def test_zero_beta_gives_zero_p(self, tmp_path):
        cfg = {"perf": {"beta_sq": [0.0]}}
        code, text = invoke(tmp_path, "perf", cfg)
        assert code == 0
        _, rows = parse_csv(text)
        assert float(rows[0]["p"]) == 0.0

    def test_json_format(self, tmp_path):
        cfg = {"perf": {"beta_sq": [0.04]}}
        code, text = invoke(tmp_path, "perf", cfg, "--format", "json")
        assert code == 0
        data = json.loads(text)
        assert isinstance(data[0]["p"], float)


class TestRepeater:
    def test_schema(self, tmp_path):
        cfg = {"repeater": {"L_km": [100], "F_targets": [0.9]}}
        code, text = invoke(tmp_path, "repeater", cfg)
        assert code == 0
        header, rows = parse_csv(text)
        assert header == REPEATER_COLS
        assert rows[0]["errors"] == ""

    def test_empty_grid_is_config_error(self, tmp_path):
        cfg = {"repeater": {"L_km": []}}
        code, _ = invoke(tmp_path, "repeater", cfg)
        assert code == 2

    def test_all_infeasible_exit_3(self, tmp_path):
        cfg = {"repeater": {"L_km": [100], "F_targets": [1.0]}}
        code, text = invoke(tmp_path, "repeater", cfg)
        assert code == 3
        _, rows = parse_csv(text)
        assert rows[0]["errors"] != ""

    @pytest.mark.parametrize("detector", ["number_resolving", "single_photon",
                                          "threshold"])
    def test_zero_efficiency_is_infeasible(self, tmp_path, detector):
        cfg = {"hardware": {"eta": 0.0, "detector": detector},
               "repeater": {"L_km": [100]}}
        code, text = invoke(tmp_path, "repeater", cfg)
        assert code == 3
        _, rows = parse_csv(text)
        assert rows and all(row["errors"] for row in rows)
        assert {row["direct_seconds"] for row in rows} == {"inf"}

    def test_zero_efficiency_json_is_strict(self, tmp_path):
        cfg = {"hardware": {"eta": 0.0}, "repeater": {"L_km": [100]}}
        code, text = invoke(tmp_path, "repeater", cfg, "--format", "json")
        assert code == 3

        def no_constants(name):
            raise ValueError(f"non-standard JSON constant {name}")

        rows = json.loads(text, parse_constant=no_constants)
        assert rows and all(row["direct_seconds"] is None for row in rows)

    def test_json_extras(self, tmp_path):
        cfg = {"repeater": {"L_km": [100, 600], "F_targets": [0.9, 1.0]}}
        code, text = invoke(tmp_path, "repeater", cfg, "--format", "json")
        assert code == 0
        rows = json.loads(text)
        assert [row["n_opt"] for row in rows] == [0, "", 2, ""]
        for row in rows:
            extras = row["extras"]
            if row["n_opt"] == "":
                assert extras == {"feasible_n": []}
                continue
            assert row["n_opt"] in extras["feasible_n"]
            assert extras["n_at_max"] is False
            assert extras["beta_g_sq_at_hi"] is False
            assert extras["beta_g_sq_at_peak"] is False
            assert extras["beta_s_sq_at_grid_edge"] is False
            # n = 0 has no swap to refine; an interior bracket of two grid
            # steps needs 14 golden-section steps to fall below 1e-3
            assert extras["refine_steps"] == (14 if row["n_opt"] else 0)
        code, text = invoke(tmp_path, "repeater", cfg)
        assert parse_csv(text)[0] == REPEATER_COLS

    @pytest.mark.parametrize("block", [
        [], {"L_km": [100], "F_targets": 5}, {"L_km": [100], "detectors": 5},
        {"L_km": [100], "F_targets": [None]}, {"L_km": [None]},
        {"L_km": [-5]}, {"L_km": [math.nan]},
        {"L_km": [100], "F_targets": [1.5]}])
    def test_bad_block_is_config_error(self, tmp_path, capsys, block):
        code, text = invoke(tmp_path, "repeater", {"repeater": block})
        assert code == 2 and text == ""
        assert capsys.readouterr().err.count("\n") == 1


class TestDistill:
    def test_default_beta_grid(self, tmp_path):
        cfg = {"distill": {"F_grid": [0.5, 0.85, 1.0]}}
        code, text = invoke(tmp_path, "distill", cfg)
        assert code == 0
        header, rows = parse_csv(text)
        assert header == DISTILL_COLS
        assert sorted({row["beta_sq"] for row in rows}) == ["0.04", "0.08", "0.12"]

    def test_boundary_F_half_ok(self, tmp_path):
        cfg = {"distill": {"F_grid": [0.5]}}
        code, _ = invoke(tmp_path, "distill", cfg)
        assert code == 0

    def test_default_hardware_reports_every_fidelity(self, tmp_path):
        code, text = invoke(tmp_path, "distill", {})
        assert code == 0
        _, rows = parse_csv(text)
        assert len(rows) == 63
        assert all(float(row["P_s"]) > 0.0 and row["F_prime"] for row in rows)

    def test_zero_efficiency_blanks_fidelity(self, tmp_path):
        cfg = {"hardware": {"eta": 0.0}, "distill": {"F_grid": [0.6, 0.9]}}
        code, text = invoke(tmp_path, "distill", cfg)
        assert code == 0
        _, rows = parse_csv(text)
        assert rows and all(row["P_s"] == "0.0" and row["F_prime"] == ""
                            for row in rows)
        code, text = invoke(tmp_path, "distill", cfg, "--format", "json")
        assert code == 0
        assert all(row["P_s"] == 0.0 and row["F_prime"] is None
                   for row in json.loads(text))

    @pytest.mark.parametrize("block", [{"beta_sq": 5}, {"beta_sq": [None]},
                                       {"F_grid": []}, {"F_grid": ["0.9"]},
                                       {"F_grid": [True]}])
    def test_non_numeric_grid_is_config_error(self, tmp_path, capsys, block):
        code, text = invoke(tmp_path, "distill", {"distill": block})
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "must be a nonempty list of numbers" in err


class TestMontecarlo:
    def test_waiting_mode(self, tmp_path):
        cfg = {"montecarlo": {"mode": "waiting", "n": 0, "p_g": 0.05}}
        code, text = invoke(tmp_path, "montecarlo", cfg,
                            "--seed", "7", "--trials", "50000")
        assert code == 0
        header, rows = parse_csv(text)
        assert header == MC_COLS
        row = rows[0]
        assert abs(float(row["empirical_mean"]) - float(row["predicted"])) < \
            5 * float(row["std_error"])

    def test_rnpm_mode_within_error_bars(self, tmp_path):
        cfg = {"hardware": {"tau": 0.98, "eta": 0.95},
               "montecarlo": {"mode": "rnpm", "beta_sq": 0.04,
                              "L_A_km": 5, "L_B_km": 5}}
        code, text = invoke(tmp_path, "montecarlo", cfg,
                            "--seed", "3", "--trials", "40000")
        assert code == 0
        _, rows = parse_csv(text)
        for row in rows:
            assert abs(float(row["empirical_mean"]) - float(row["predicted"])) \
                < 5 * float(row["std_error"])

    def test_rnpm_mode_zero_beta(self, tmp_path):
        # every outcome but the failure (0, 0) has probability 0 and no state
        cfg = {"montecarlo": {"mode": "rnpm", "beta_sq": 0.0}}
        code, text = invoke(tmp_path, "montecarlo", cfg,
                            "--seed", "1", "--trials", "5000")
        assert code == 0
        _, rows = parse_csv(text)
        assert [float(row["empirical_mean"]) for row in rows] == [0.0, 0.0]

    def test_rnpm_mode_matches_per_trial_loop(self, tmp_path):
        cfg = {"hardware": {"detector": "number_resolving"},
               "montecarlo": {"mode": "rnpm", "beta_sq": 0.3,
                              "L_A_km": 5, "L_B_km": 5}}
        seed, trials = 4, 9000
        code, text = invoke(tmp_path, "montecarlo", cfg, "--seed", str(seed),
                            "--trials", str(trials))
        assert code == 0
        _, rows = parse_csv(text)
        # reference: one Python step per trial over the same RNG blocks
        hw = parse_hardware(cfg)
        geom = LinkGeometry(5.0, 5.0, hw.L_att_km, hw.tau)
        ens = run_protocol(ProtocolConfig(InteractionParams(math.sqrt(0.3)),
                                          geom, hw.detector))
        keys = sorted(ens.entries)
        probs = np.clip([ens.entries[k].probability for k in keys], 0.0, None)
        probs = probs / probs.sum()
        eps_of = {k: phase_error_split(ens.entries[k].state,
                                       outcome_parity(*k))[0]
                  for k in keys if outcome_parity(*k) is not None}
        succ = errs = 0
        for b, done in enumerate(range(0, trials, 4096)):
            rng = np.random.default_rng([seed, b])
            cnt = min(4096, trials - done)
            draws = rng.choice(len(keys), size=cnt, p=probs)
            for d, u in zip(draws, rng.random(cnt)):
                if keys[d] in eps_of:
                    succ += 1
                    errs += u < eps_of[keys[d]]
        assert float(rows[0]["empirical_mean"]) == succ / trials
        assert float(rows[1]["empirical_mean"]) == errs / succ

    @pytest.mark.parametrize("n, p_g, p_s, predicted", [
        (4, 0.15, 0.12, "162760.41666666672"),
        (6, 0.2, 0.2, "889892.5781249995")])
    def test_waiting_prediction_is_pinned(self, tmp_path, n, p_g, p_s,
                                          predicted):
        # the benchmark's reference outputs hold these bytes
        cfg = {"montecarlo": {"n": n, "p_g": p_g, "p_s": p_s, "trials": 1}}
        code, text = invoke(tmp_path, "montecarlo", cfg)
        assert code == 0
        assert parse_csv(text)[1][0]["predicted"] == predicted

    def test_negative_level_is_config_error(self, tmp_path):
        cfg = {"montecarlo": {"n": -1, "p_g": 0.5, "trials": 10}}
        code, _ = invoke(tmp_path, "montecarlo", cfg)
        assert code == 2

    def test_too_deep_chain_is_config_error(self, tmp_path, capsys):
        # n = 2000 with no L_km: the default 20 km * 2^n would overflow
        for n in (40, 2000):
            cfg = {"montecarlo": {"mode": "waiting", "n": n, "p_g": 1,
                                  "p_s": 1, "trials": 10}}
            code, text = invoke(tmp_path, "montecarlo", cfg)
            assert code == 2 and text == ""
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith("config error: chain too deep to sample")

    def test_trials_required(self, tmp_path):
        cfg = {"montecarlo": {"mode": "waiting", "n": 0, "p_g": 0.1}}
        code, _ = invoke(tmp_path, "montecarlo", cfg)
        assert code == 2

    def test_byte_identical_across_threads(self, tmp_path):
        path = tmp_path / "mc.json"
        path.write_text(json.dumps(
            {"montecarlo": {"mode": "waiting", "n": 2, "p_g": 0.3,
                            "p_s": 0.5}}))
        outputs = []
        for threads in ("1", "4"):
            env = dict(os.environ, RNPM_THREADS=threads)
            r = subprocess.run(
                [sys.executable, "-m", "rnpm.cli", "montecarlo", "--config",
                 str(path), "--seed", "11", "--trials", "3000"],
                env=env, capture_output=True, check=False)
            assert r.returncode == 0, r.stderr
            outputs.append(r.stdout)
        assert outputs[0] == outputs[1]


class TestOptics:
    def test_outcome_dump(self, tmp_path):
        cfg = {"hardware": {"tau": 1.0, "eta": 1.0,
                            "detector": "number_resolving"},
               "optics": {"beta_sq": 0.04}}
        code, text = invoke(tmp_path, "optics", cfg)
        assert code == 0
        doc = json.loads(text)
        total = sum(o["probability"] for o in doc["outcomes"])
        assert abs(total - 1.0) < 1e-9
        assert {"m", "n", "probability", "parity"} <= set(doc["outcomes"][0])

    def test_alpha_theta_pair(self, tmp_path):
        cfg = {"optics": {"alpha": 0.3, "theta": 2.0}}
        code, text = invoke(tmp_path, "optics", cfg)
        assert code == 0
        cfg_bad = {"optics": {"alpha": 0.3}}
        code, _ = invoke(tmp_path, "optics", cfg_bad)
        assert code == 2

    def test_initial_state_takes_complex_strings(self, tmp_path):
        # JSON has no complex type; "1+1j" is |00> up to a global phase
        code, text = invoke(tmp_path, "optics",
                            {"optics": {"initial_state": ["1+1j", 0, 0, 0]}})
        assert code == 0
        code, plain = invoke(tmp_path, "optics",
                             {"optics": {"initial_state": [1, 0, 0, 0]}})
        assert code == 0
        for o, p in zip(json.loads(text)["outcomes"],
                        json.loads(plain)["outcomes"]):
            assert o["probability"] == pytest.approx(p["probability"],
                                                     abs=1e-15)

    def test_malformed_initial_state_names_the_field(self, tmp_path, capsys):
        code, text = invoke(tmp_path, "optics", {"optics": {"initial_state": "x"}})
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("config error: optics.initial_state must be")
        assert "complex() arg" not in err


class TestConfigHandling:
    def test_unknown_top_level_key(self, tmp_path):
        code, _ = invoke(tmp_path, "perf", {"nope": 1})
        assert code == 2

    def test_unknown_block_key(self, tmp_path):
        code, _ = invoke(tmp_path, "perf", {"perf": {"bogus": 1}})
        assert code == 2

    def test_unknown_detector(self, tmp_path):
        code, _ = invoke(tmp_path, "perf", {"hardware": {"detector": "psychic"}})
        assert code == 2

    @pytest.mark.parametrize("command, cfg", [
        ("distill", {"hardware": {"tau": None}}),
        ("perf", {"hardware": {"tau": 0}}),
        ("perf", {"hardware": {"eta": True}}),
        ("perf", {"hardware": {"eta": 1.5}}),
        ("perf", {"hardware": {"f_hz": "1e10"}}),
        ("perf", {"hardware": {"f_hz": 10 ** 400}}),
        ("repeater", {"hardware": {"L_att_km": 0}, "repeater": {"L_km": [100]}}),
        ("repeater", {"hardware": {"c_m_per_s": 0},
                      "repeater": {"L_km": [100]}}),
        ("montecarlo", {"montecarlo": {"n": None, "p_g": 0.5, "trials": 10}}),
        ("montecarlo", {"montecarlo": {"n": 1.5, "p_g": 0.5, "trials": 10}}),
        ("montecarlo", {"montecarlo": {"n": 1, "p_g": 0.5, "trials": 10.0}}),
        ("montecarlo", {"montecarlo": {"n": 1, "p_g": 0.5, "trials": 10,
                                       "seed": True}}),
        ("optics", {"optics": []}),
        ("perf", {"perf": {"L_A_km": None}}),
        ("perf", {"perf": {"L_A_km": "10"}}),
        ("perf", {"perf": {"L_B_km": -1}}),
        ("optics", {"optics": {"alpha": None, "theta": 1.0}}),
        ("optics", {"optics": {"beta_sq": -0.1}}),
        ("optics", {"optics": {"L_A_km": 1e5}}),
        ("optics", {"optics": {"variant": "bogus"}}),
        ("optics", {"optics": {"initial_state": [0, 0, 0, 0]}}),
        ("optics", {"optics": {"initial_state": [[0] * 4] * 4}}),
        ("montecarlo", {"montecarlo": {"p_g": None, "trials": 10}}),
        ("montecarlo", {"montecarlo": {"n": 1, "p_g": 0.5, "L_km": -5,
                                       "trials": 10}}),
        ("montecarlo", {"montecarlo": {"beta_g_sq": True, "trials": 10}}),
        ("montecarlo", {"montecarlo": {"mode": "rnpm", "L_A_km": 1e5,
                                       "trials": 10}}),
        ("distill", {"distill": {"beta_sq": [-1]}}),
        ("montecarlo", {"montecarlo": {"p_g": 0, "trials": 10}}),
        ("montecarlo", {"montecarlo": {"p_g": 1.5, "trials": 10}}),
        ("montecarlo", {"montecarlo": {"p_g": 0.5, "p_s": 0, "trials": 10}}),
        ("montecarlo", {"montecarlo": {"mode": 3, "trials": 10}}),
        ("montecarlo", {"montecarlo": {"n": -1, "p_g": 0.5, "trials": 10}}),
        ("montecarlo", {"montecarlo": {"p_g": 0.5, "seed": -1, "trials": 10}}),
        ("montecarlo", {"montecarlo": {"L_km": 1e308, "trials": 10}}),
        ("optics", {"optics": {"initial_state": "x"}}),
        ("optics", {"optics": {"initial_state": ["x", 0, 0, 0]}}),
        ("optics", {"optics": {"initial_state": {}}}),
        ("optics", {"optics": {"beta_sq": 1e308}}),
        ("optics", {"optics": {"alpha": 1e308, "theta": 1.0}}),
        ("perf", {"perf": {"L_A_km": 1e5}}),
        ("perf", {"perf": {"beta_sq": [1e308]}}),
    ])
    def test_bad_scalar_is_config_error(self, tmp_path, capsys, command, cfg):
        code, text = invoke(tmp_path, command, cfg)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("config error:")

    @pytest.mark.parametrize("command, cfg, named", [
        ("repeater", {"repeater": {"L_km": [-5]}}, "repeater.L_km"),
        ("repeater", {"repeater": {"L_km": [math.nan]}}, "repeater.L_km"),
        ("repeater", {"repeater": {"L_km": [100], "F_targets": [1.5]}},
         "repeater.F_targets"),
        ("distill", {"distill": {"beta_sq": [-1]}}, "distill.beta_sq"),
        ("montecarlo", {"montecarlo": {"p_g": 0, "trials": 10}},
         "montecarlo.p_g"),
        ("montecarlo", {"montecarlo": {"p_g": 0.5, "p_s": 1.5, "trials": 10}},
         "montecarlo.p_s"),
        ("montecarlo", {"montecarlo": {"mode": 3, "trials": 10}},
         "montecarlo.mode"),
        ("montecarlo", {"montecarlo": {"n": -1, "p_g": 0.5, "trials": 10}},
         "montecarlo.n"),
        ("perf", {"perf": {"L_A_km": 1e5}}, "arm A: transmittance T_A = 0.0"),
        ("perf", {"perf": {"L_B_km": 1e5}}, "arm B: transmittance T_B = 0.0"),
        ("montecarlo", {"montecarlo": {"L_km": 1e308, "trials": 10}},
         "arm A: transmittance T_A = 0.0"),
        # command-line overrides are checked by their field's rule
        ("montecarlo --seed -1", {"montecarlo": {"p_g": 0.5, "trials": 10}},
         "montecarlo.seed must be an integer >= 0"),
        (f"montecarlo --trials {10 ** 400}", {"montecarlo": {"p_g": 0.5}},
         "montecarlo.trials must be an integer"),
        ("optics", {"optics": {"alpha": -1, "theta": 1}},
         "optics.alpha must be a number >= 0"),
        ("optics", {"optics": {"alpha": 1, "theta": -1}},
         "optics.alpha * sin(optics.theta / 2) must be >= 0"),
        ("optics", {"optics": {"alpha": 1, "theta": math.nan}},
         "optics.theta must be a finite number"),
    ])
    def test_message_names_the_field(self, tmp_path, capsys, command, cfg,
                                     named):
        command, *extra = command.split()
        code, text = invoke(tmp_path, command, cfg, *extra)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"config error: {named}")

    def test_truncation_is_config_error(self, tmp_path, capsys):
        code, text = invoke(tmp_path, "perf", {"perf": {"beta_sq": [1e6]}})
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "k_max" in err

    def test_missing_config_file(self):
        out = io.StringIO()
        assert run(["perf", "--config", "/nonexistent.json"], stdout=out) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        out = io.StringIO()
        assert run(["perf", "--config", str(path)], stdout=out) == 2

    def test_out_flag_writes_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"perf": {"beta_sq": [0.04]}}))
        dest = tmp_path / "table.csv"
        out = io.StringIO()
        code = run(["perf", "--config", str(path), "--out", str(dest)],
                   stdout=out)
        assert code == 0
        assert out.getvalue() == ""
        assert dest.read_text().splitlines()[0] == ",".join(PERF_COLS)

    def test_config_roundtrip(self, tmp_path):
        cfg = {"hardware": {"tau": 0.9, "eta": 0.8,
                            "detector": "threshold"},
               "geometry": {"kind": "endpoint"},
               "perf": {"beta_sq": [0.01]}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert json.loads(path.read_text()) == cfg
        out = io.StringIO()
        assert run(["perf", "--config", str(path)], stdout=out) == 0


def test_import_loads_no_scipy():
    code = ("import sys, rnpm.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True)
    assert r.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Tracebacks that stay: perfbench/test_perfbench.py uses both as failure
# fixtures, and perfbench/ changes only with ROADMAP item 9. Each test states
# the wanted exit code and is expected to fail with the pinned exception.
# ---------------------------------------------------------------------------

@pytest.mark.xfail(strict=True, raises=TypeError,
                   reason="perf.beta_sq elements are unchecked until ROADMAP "
                          "item 9 replaces the perf-null fixture")
def test_pinned_perf_beta_sq_null_element(tmp_path):
    assert invoke(tmp_path, "perf", {"perf": {"beta_sq": [None]}})[0] == 2


@pytest.mark.xfail(strict=True, raises=OverflowError,
                   reason="direct_transmission_time overflows until ROADMAP "
                          "item 9 replaces the repeater-far fixture")
@pytest.mark.parametrize("cfg", [
    {"repeater": {"L_km": [16000]}}, {"repeater": {"L_km": [20000]}},
    # the same overflow: L / L_att_km past log(float max)
    {"hardware": {"L_att_km": 1e-300}, "repeater": {"L_km": [100]}}])
def test_pinned_repeater_far_overflow(tmp_path, cfg):
    assert invoke(tmp_path, "repeater", cfg)[0] == 2


#: (exception, command, function raising it) of the pinned tracebacks above
PINNED = {(TypeError, "perf", "cmd_perf"),
          (OverflowError, "repeater", "direct_transmission_time")}
DETECTORS = ["number_resolving", "single_photon", "threshold"]
# ROADMAP item 5 will bound the cost of montecarlo.trials, and of
# optics.beta_sq / alpha with number-resolving detectors: the base trials
# stay small, and no edge value lies between 1 and 1e306, where beta_sq is
# still accepted and the outcome grid grows as beta^4.
#: case -> (command, blocks it reads, base config)
EDGE_CASES = {
    "perf": ("perf", ("hardware", "perf"), {}),
    "repeater": ("repeater", ("hardware", "geometry", "repeater"),
                 {"repeater": {"L_km": [100], "F_targets": [0.9]}}),
    "distill": ("distill", ("hardware", "distill"),
                {"distill": {"F_grid": [0.9], "beta_sq": [0.04]}}),
    "waiting": ("montecarlo", ("hardware", "geometry", "montecarlo"),
                {"montecarlo": {"trials": 64}}),
    "rnpm": ("montecarlo", ("hardware", "montecarlo"),
             {"montecarlo": {"mode": "rnpm", "trials": 64}}),
    "optics": ("optics", ("hardware", "optics"), {}),
    "optics-local": ("optics", ("hardware", "optics"),
                     {"optics": {"variant": "local"}}),
}
EDGE = [None, True, False, "x", {}, 0, -1, 0.5, 1e-300, math.nan, 1e308]


def assert_exit_code(tmp_path, capsys, command, config):
    """Exit 0, 2 or 3 with at most one stderr line and strict JSON output,
    or one of the pinned tracebacks."""
    capsys.readouterr()
    try:
        # the CLI prints each warning as two more stderr lines
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, text = invoke(tmp_path, command, config, "--format", "json")
    except (TypeError, OverflowError) as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1].name
        assert (type(exc), command, where) in PINNED, (config, repr(exc))
        return
    err = capsys.readouterr().err
    assert not caught, (config, [str(w.message) for w in caught])
    assert code in (0, 2, 3) and err.count("\n") <= 1, (config, err)
    if code != 2:
        def no_constants(name):
            raise ValueError(f"non-standard JSON constant {name}")

        json.loads(text, parse_constant=no_constants)


def edge_config(case: str, detector: str, values: dict) -> dict:
    config = json.loads(json.dumps(EDGE_CASES[case][2]))
    config["hardware"] = {"detector": detector}
    for (block, field), value in values.items():
        config.setdefault(block, {})[field] = value
    return config


@pytest.mark.parametrize("case, block, field", [
    (case, block, field) for case, (_, blocks, _) in EDGE_CASES.items()
    for block in blocks for field in FIELDS[block]])
def test_each_field_edge_value_ends_in_an_exit_code(tmp_path, capsys, case,
                                                    block, field):
    for i, value in enumerate(EDGE + [[v] for v in EDGE]):
        config = edge_config(case, DETECTORS[i % 3], {(block, field): value})
        assert_exit_code(tmp_path, capsys, EDGE_CASES[case][0], config)


@st.composite
def edge_combinations(draw):
    case = draw(st.sampled_from(sorted(EDGE_CASES)))
    fields = [(b, f) for b in EDGE_CASES[case][1] for f in FIELDS[b]]
    chosen = draw(st.lists(st.sampled_from(fields), min_size=2, max_size=3,
                           unique=True))
    value = st.sampled_from(EDGE) | st.lists(st.sampled_from(EDGE), max_size=3)
    return EDGE_CASES[case][0], edge_config(
        case, draw(st.sampled_from(DETECTORS)),
        {key: draw(value) for key in chosen})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=edge_combinations())
def test_edge_value_combinations_end_in_an_exit_code(tmp_path, capsys, case):
    assert_exit_code(tmp_path, capsys, *case)


def test_readme_table_matches_the_field_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| .* \| (.+) \|$", readme,
                      re.MULTILINE)
    assert {(b, f): rule for b, f, rule in rows} == {
        (b, f): text for b, fields in FIELDS.items()
        for f, (_, (text, _)) in fields.items()}
    assert len(rows) == sum(map(len, FIELDS.values()))
