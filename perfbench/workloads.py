"""The benchmark's workloads: the configs each op runs and the checks on its
output.

An op is one ``rnpm`` invocation on a generated config file. A pass is one
workload's ops run in order by a single client (a closed loop). Monte Carlo
ops get a seed derived from the benchmark seed, the pass index and the op
name; everything else is fixed, so the same benchmark seed always gives the
same sequence of inputs.

Checks raise `CheckError`. Reference values come from ``reference.json``,
which ``run.py --record`` writes from the program at the commit that
defined the benchmark.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

#: relative tolerance of the optimized time; mirrors rnpm.optimize.GOLDEN_REL_TOL
T_REL_TOL = 1e-4
#: |p - p_oracle| and |eps - eps_oracle| of acceptance criterion 1
ORACLE_TOL = 1e-9
#: probabilities of an outcome ensemble must sum to 1 within this
PROB_SUM_TOL = 1e-9
#: distillation rows may differ from the reference by this much
DISTILL_TOL = 1e-12
#: Monte Carlo means must lie within this many standard errors
MC_SIGMAS = 5.0


class CheckError(Exception):
    """An op's output is wrong."""


@dataclass(frozen=True)
class Op:
    name: str
    command: str
    config: dict
    check: Callable[["Op", str, dict], None]
    fmt: str = "csv"

    def argv(self, config_path: str) -> list[str]:
        return [self.command, "--config", config_path, "--format", self.fmt]


def op_seed(seed: int, pass_index: int, name: str) -> int:
    """Seed of one Monte Carlo op, independent of every other op's."""
    digest = hashlib.sha256(f"{seed}:{pass_index}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# repeater: the paper's optimized time-vs-distance sweep (demos/repeater_sweep.py)
# ---------------------------------------------------------------------------

REPEATER_CONFIG = {
    "hardware": {"tau": 0.98, "eta": 0.95, "detector": "single_photon"},
    "geometry": {"kind": "midpoint"},
    "repeater": {"L_km": [float(L) for L in range(100, 1301, 200)],
                 "F_targets": [0.9, 0.7]},
}


def check_repeater(op: Op, out: str, ref: dict) -> None:
    rows, want = _rows(out), _rows(ref["repeater_csv"])
    if len(rows) != len(want):
        raise CheckError(f"{len(rows)} rows, reference has {len(want)}")
    for got, exp in zip(rows, want):
        where = f"L={got['L_km']} F_target={got['F_target']}"
        if (got["L_km"], got["F_target"]) != (exp["L_km"], exp["F_target"]):
            raise CheckError(f"row order differs at {where}")
        if got["n_opt"] != exp["n_opt"]:
            raise CheckError(f"{where}: n_opt {got['n_opt']} != {exp['n_opt']}")
        if not _close(float(got["T_seconds"]), float(exp["T_seconds"]),
                      T_REL_TOL):
            raise CheckError(f"{where}: T {got['T_seconds']} != "
                             f"{exp['T_seconds']}")
        if float(got["F"]) < float(got["F_target"]) - 1e-9:
            raise CheckError(f"{where}: F {got['F']} below target")


def repeater_ops(seed: int, pass_index: int) -> list[Op]:
    return [Op("repeater", "repeater", REPEATER_CONFIG, check_repeater)]


# ---------------------------------------------------------------------------
# Monte Carlo checks
# ---------------------------------------------------------------------------

def _check_recorded(op: Op, out: str, ref: dict) -> None:
    """Byte-identical stdout where the reference holds this op's seed."""
    key = f"{op.name}:{op.config['montecarlo']['seed']}"
    want = ref["mc_stdout"].get(key)
    if want is not None and out != want:
        raise CheckError(f"stdout differs from the reference at seed "
                         f"{op.config['montecarlo']['seed']}")


def _mc_row(out: str, quantity: str) -> dict:
    for row in _rows(out):
        if row["quantity"] == quantity:
            return row
    raise CheckError(f"no {quantity} row")


def _within(name: str, value: float, center: float, se: float) -> None:
    if not abs(value - center) <= MC_SIGMAS * se:
        raise CheckError(f"{name}: {value} is {abs(value - center) / se:.1f} "
                         f"standard errors from {center}")


def check_mc_max_geometric(op: Op, out: str, ref: dict) -> None:
    _check_recorded(op, out, ref)
    row = _mc_row(out, "max_of_two_geometrics")
    _within(op.name, float(row["empirical_mean"]), float(row["predicted"]),
            float(row["std_error"]))


def check_mc_rnpm(op: Op, out: str, ref: dict) -> None:
    _check_recorded(op, out, ref)
    for quantity in ("rnpm_success_probability", "rnpm_phase_error"):
        row = _mc_row(out, quantity)
        _within(f"{op.name} {quantity}", float(row["empirical_mean"]),
                float(row["predicted"]), float(row["std_error"]))


def check_mc_deep(op: Op, out: str, ref: dict) -> None:
    """Mean within 5 combined standard errors of the recorded reference.

    The 3/2-rule prediction is only an approximation here (the n=6 mean is
    about 0.91 of it), so the center is a long Monte Carlo run recorded with
    the program at the commit that defined the benchmark.
    """
    _check_recorded(op, out, ref)
    row = _mc_row(out, "waiting_time_units")
    center = ref["mc_mean"][op.name]
    se = math.hypot(float(row["std_error"]), center["std_error"])
    _within(op.name, float(row["empirical_mean"]), center["mean"], se)


# ---------------------------------------------------------------------------
# montecarlo-deep: the exponential-cost waiting-time sampler
# ---------------------------------------------------------------------------

#: the two deepest chains of acceptance criterion 6
DEEP_CHAINS = {
    "mc-n6": {"mode": "waiting", "n": 6, "p_g": 0.2, "p_s": 0.2,
              "trials": 128},
    "mc-n4": {"mode": "waiting", "n": 4, "p_g": 0.15, "p_s": 0.12,
              "trials": 600},
}


def deep_ops(seed: int, pass_index: int) -> list[Op]:
    return [Op(name, "montecarlo",
               {"montecarlo": dict(block,
                                   seed=op_seed(seed, pass_index, name))},
               check_mc_deep)
            for name, block in DEEP_CHAINS.items()]


# ---------------------------------------------------------------------------
# link: many cheap ops over the link-level layers
# ---------------------------------------------------------------------------

def check_perf(op: Op, out: str, ref: dict) -> None:
    rows = json.loads(out)
    block = op.config["perf"]
    if len(rows) != len(block["detectors"]) * len(block["beta_sq"]):
        raise CheckError(f"{len(rows)} rows")
    for row in rows:
        if not (abs(row["p"] - row["p_oracle"]) < ORACLE_TOL
                and abs(row["epsilon"] - row["epsilon_oracle"]) < ORACLE_TOL):
            raise CheckError(f"{row['detector']} beta_sq={row['beta_sq']}: "
                             f"closed form disagrees with its oracle")


def check_optics(op: Op, out: str, ref: dict) -> None:
    outcomes = json.loads(out)["outcomes"]
    total = math.fsum(o["probability"] for o in outcomes)
    if not outcomes or abs(total - 1.0) > PROB_SUM_TOL:
        raise CheckError(f"outcome probabilities sum to {total!r}")


def check_distill(op: Op, out: str, ref: dict) -> None:
    rows, want = _rows(out), _rows(ref["distill_csv"])
    if len(rows) != len(want):
        raise CheckError(f"{len(rows)} rows, reference has {len(want)}")
    for got, exp in zip(rows, want):
        for key in exp:
            if abs(float(got[key]) - float(exp[key])) > DISTILL_TOL:
                raise CheckError(f"F={exp['F']} beta_sq={exp['beta_sq']}: "
                                 f"{key} {got[key]} != {exp[key]}")


LINK_OPTICS_GEOMETRY = {"beta_sq": 0.2, "L_A_km": 5, "L_B_km": 15}


def link_ops(seed: int, pass_index: int) -> list[Op]:
    def mc(name, block, hardware=None):
        config = {"montecarlo": dict(block, trials=200_000,
                                     seed=op_seed(seed, pass_index, name))}
        if hardware:
            config["hardware"] = hardware
        return config

    return [
        Op("mc-n1", "montecarlo",
           mc("mc-n1", {"mode": "waiting", "n": 1, "p_g": 0.01}),
           check_mc_max_geometric),
        # the threshold-detector config of acceptance criterion 10
        Op("mc-rnpm", "montecarlo",
           mc("mc-rnpm", {"mode": "rnpm", "beta_sq": 0.05, "L_A_km": 4,
                          "L_B_km": 9},
              {"tau": 0.95, "eta": 0.9, "detector": "threshold"}),
           check_mc_rnpm),
        Op("perf", "perf",
           {"perf": {"beta_sq": [0.01, 0.04, 0.1, 0.3, 1.0],
                     "L_A_km": 10, "L_B_km": 10,
                     "detectors": ["threshold", "single_photon",
                                   "number_resolving"]}},
           check_perf, fmt="json"),
        Op("optics-nr", "optics",
           {"hardware": {"detector": "number_resolving"},
            "optics": LINK_OPTICS_GEOMETRY},
           check_optics),
        Op("optics-local", "optics",
           {"hardware": {"detector": "single_photon"},
            "optics": dict(LINK_OPTICS_GEOMETRY, variant="local")},
           check_optics),
        Op("distill", "distill", {}, check_distill),
    ]


#: the ops of one pass of each workload, from (seed, pass index)
WORKLOADS = {
    "repeater": repeater_ops,
    "montecarlo-deep": deep_ops,
    "link": link_ops,
}
