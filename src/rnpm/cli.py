"""Command-line front end: JSON config in, CSV/JSON data out.

Subcommands
-----------
perf        closed-form (p, epsilon) table with brute-force oracle columns
repeater    optimized time-vs-distance sweep with the direct baseline
distill     recurrence-method distillation curves
montecarlo  waiting-time / measurement-outcome sampling with predictions
optics      full outcome ensemble of one protocol attempt, as JSON

Exit codes: 0 success, 2 configuration error, 3 every sweep point infeasible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import distill, optics, optimize
from .chain import (GeometryKind, Hardware, ChainConfig, check_chain_depth,
                    expected_max_geometric, generation_perf,
                    simulate_waiting_time, swap_perf, waiting_time_stats)
from .formulas import (DetectorKind, DetectorModel, InteractionParams,
                       LinkGeometry, TruncationError, link_transmittance,
                       performance, performance_oracle)

DEFAULT_HARDWARE = {
    "tau": 0.98, "eta": 0.95, "detector": "single_photon",
    "L_att_km": 22.0, "c_m_per_s": 2.0e8, "f_hz": 1.0e10,
}

DEFAULT_DISTILL_BETA_SQ = [0.04, 0.08, 0.12]


class ConfigError(ValueError):
    pass


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _check_keys(block: dict, allowed: set[str], where: str):
    unknown = set(block) - allowed
    _require(not unknown, f"unknown keys in {where}: {sorted(unknown)}")


def _block(config: dict, name: str, allowed: set[str]) -> dict:
    block = config.get(name, {})
    _require(isinstance(block, dict), f"{name} must be an object")
    _check_keys(block, allowed, name)
    return block


def _is_number(v) -> bool:
    """A JSON number that converts to a float: no bool, no huge integer."""
    return isinstance(v, float) or (isinstance(v, int) and not isinstance(v, bool)
                                    and abs(v) <= sys.float_info.max)


def _number_list(block: dict, key: str, default: list, where: str) -> list[float]:
    values = block.get(key, default)
    _require(isinstance(values, list) and values
             and all(_is_number(v) for v in values),
             f"{where}.{key} must be a nonempty list of numbers")
    return [float(v) for v in values]


def _detector_list(block: dict, where: str) -> list[DetectorKind]:
    names = block.get("detectors", [])
    _require(isinstance(names, list) and all(isinstance(d, str) for d in names),
             f"{where}.detectors must be a list of detector names")
    return [_parse_detector(d) for d in names]


def _integer(block: dict, key: str, default: int, where: str) -> int:
    value = block.get(key, default)
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{where}.{key} must be an integer")
    return value


def _number(block: dict, key: str, default: float, where: str,
            nonnegative: bool = False) -> float:
    value = block.get(key, default)
    _require(_is_number(value) and (value >= 0.0 or not nonnegative),
             f"{where}.{key} must be a number" + (" >= 0" if nonnegative else ""))
    return float(value)


def _link_geometry(block: dict, hw: Hardware, where: str) -> LinkGeometry:
    """Arm lengths L_A_km, L_B_km (default 0) on the hardware's fibre."""
    return LinkGeometry(_number(block, "L_A_km", 0.0, where, True),
                        _number(block, "L_B_km", 0.0, where, True),
                        hw.L_att_km, hw.tau)


def _parse_detector(name: str) -> DetectorKind:
    try:
        return DetectorKind(name)
    except ValueError:
        raise ConfigError(
            f"unknown detector {name!r}; expected one of "
            f"{[k.value for k in DetectorKind]}") from None


#: (hardware field, rule, test) for the numeric hardware fields
HARDWARE_RANGES = (
    ("tau", "a number in (0, 1]", lambda x: 0.0 < x <= 1.0),
    ("eta", "a number in [0, 1]", lambda x: 0.0 <= x <= 1.0),
    ("L_att_km", "a finite number > 0", lambda x: 0.0 < x < math.inf),
    ("c_m_per_s", "a finite number > 0", lambda x: 0.0 < x < math.inf),
    ("f_hz", "a finite number > 0", lambda x: 0.0 < x < math.inf),
)


def parse_hardware(config: dict) -> Hardware:
    block = dict(DEFAULT_HARDWARE)
    block.update(_block(config, "hardware", set(DEFAULT_HARDWARE)))
    for key, rule, ok in HARDWARE_RANGES:
        _require(_is_number(block[key]) and ok(block[key]),
                 f"hardware.{key} must be {rule}")
    det = DetectorModel(_parse_detector(block["detector"]), float(block["eta"]))
    return Hardware(float(block["tau"]), det, float(block["L_att_km"]),
                    float(block["c_m_per_s"]), float(block["f_hz"]))


def parse_geometry(config: dict) -> GeometryKind:
    block = _block(config, "geometry", {"kind"})
    try:
        return GeometryKind(block.get("kind", "midpoint"))
    except ValueError:
        raise ConfigError(f"unknown geometry kind {block.get('kind')!r}") from None


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _emit(rows: list[dict], columns: list[str], fmt: str, out) -> None:
    if fmt == "json":
        # strict JSON has no inf/nan; CSV keeps repr()'s "inf"
        rows = [{k: None if isinstance(v, float) and not math.isfinite(v)
                 else v for k, v in row.items()} for row in rows]
        json.dump(rows, out, indent=2, allow_nan=False)
        out.write("\n")
        return
    w = csv.DictWriter(out, fieldnames=columns, lineterminator="\n")
    w.writeheader()
    for row in rows:
        w.writerow({k: _fmt(row.get(k)) for k in columns})


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_perf(config: dict, args) -> tuple[int, list[dict], list[str]]:
    hw = parse_hardware(config)
    block = _block(config, "perf", {"beta_sq", "L_A_km", "L_B_km", "detectors"})
    beta_sq = block.get("beta_sq", [0.04])
    _require(isinstance(beta_sq, list) and beta_sq, "perf.beta_sq must be a nonempty list")
    T_A, T_B = link_transmittance(_link_geometry(block, hw, "perf"))
    kinds = _detector_list(block, "perf") or [hw.detector.kind]
    rows = []
    for kind in kinds:
        det = DetectorModel(kind, hw.detector.efficiency)
        for b2 in beta_sq:
            par = InteractionParams(math.sqrt(float(b2)))
            pf = performance(det, par, T_A, T_B)
            po = performance_oracle(det, par, T_A, T_B)
            rows.append({
                "detector": kind.value, "beta_sq": float(b2),
                "T_A": T_A, "T_B": T_B,
                "eta": det.efficiency,
                "p": pf.p, "epsilon": pf.epsilon,
                "p_oracle": po.p, "epsilon_oracle": po.epsilon,
            })
    cols = ["detector", "beta_sq", "T_A", "T_B", "eta", "p", "epsilon",
            "p_oracle", "epsilon_oracle"]
    return 0, rows, cols


def cmd_repeater(config: dict, args) -> tuple[int, list[dict], list[str]]:
    hw = parse_hardware(config)
    geometry = parse_geometry(config)
    block = _block(config, "repeater", {"L_km", "F_targets", "detectors"})
    L_grid = _number_list(block, "L_km", [], "repeater")
    F_targets = _number_list(block, "F_targets", [0.9, 0.7], "repeater")
    detectors = tuple(_detector_list(block, "repeater")) or (hw.detector.kind,)
    spec = optimize.SweepSpec(tuple(L_grid), tuple(F_targets), hw, geometry,
                              detectors)
    recs = optimize.sweep(spec)
    rows = []
    for r in recs:
        rows.append({
            "L_km": r.L_km, "F_target": r.F_target,
            "detector": r.detector.value, "geometry": r.geometry.value,
            "n_opt": r.n if r.feasible else "",
            "beta_g_sq": r.beta_g_sq if r.feasible else "",
            "beta_s_sq": r.beta_s_sq if r.feasible else "",
            "T_seconds": r.T_seconds if r.feasible else "",
            "F": r.F_achieved if r.feasible else "",
            "direct_seconds": r.direct_seconds,
            "errors": "" if r.feasible else (r.message or "infeasible"),
            "extras": r.extras,  # JSON only: not a CSV column
        })
    cols = ["L_km", "F_target", "detector", "geometry", "n_opt", "beta_g_sq",
            "beta_s_sq", "T_seconds", "F", "direct_seconds", "errors"]
    code = 3 if recs and not any(r.feasible for r in recs) else 0
    return code, rows, cols


def cmd_distill(config: dict, args) -> tuple[int, list[dict], list[str]]:
    hw = parse_hardware(config)
    block = _block(config, "distill", {"F_grid", "beta_sq"})
    F_grid = _number_list(block, "F_grid",
                          [round(0.5 + 0.025 * i, 4) for i in range(21)],
                          "distill")
    beta_sq = _number_list(block, "beta_sq", DEFAULT_DISTILL_BETA_SQ, "distill")
    rows = []
    for b2 in beta_sq:
        for F in F_grid:
            res = distill.recurrence_step(F, math.sqrt(b2), hw.tau,
                                          hw.detector)
            # no fidelity for a state that is never produced
            rows.append({
                "F": F, "beta_sq": b2, "P_s": res.P_s,
                "F_prime": res.F_prime if res.P_s > 0.0 else None,
            })
    return 0, rows, ["F", "beta_sq", "P_s", "F_prime"]


MC_COLS = ["quantity", "n", "p_g", "p_s", "trials", "seed",
           "empirical_mean", "std_error", "predicted"]


def _mc_row(quantity: str, head: tuple, mean, se, predicted) -> dict:
    """One montecarlo row; ``head`` is (n, p_g, p_s, trials, seed)."""
    return dict(zip(MC_COLS, (quantity, *head, mean, se, predicted)))


def _montecarlo_waiting(block: dict, hw: Hardware, geometry: GeometryKind,
                        seed: int, trials: int) -> list[dict]:
    n = _integer(block, "n", 1, "montecarlo")
    # reject a chain that no p_s could sample before 2 ** n is formed
    check_chain_depth(n, 1.0)
    L_km = _number(block, "L_km", 20.0 * 2 ** n, "montecarlo")
    _require(L_km > 0.0, "montecarlo.L_km must be > 0")
    if "p_g" in block:
        p_g = _number(block, "p_g", None, "montecarlo")
        p_s = _number(block, "p_s", 1.0, "montecarlo")
    else:
        bg = math.sqrt(_number(block, "beta_g_sq", 0.04, "montecarlo", True))
        bs = math.sqrt(_number(block, "beta_s_sq", 0.04, "montecarlo", True))
        cfg = ChainConfig(L_km, n, bg, bs, hw, geometry)
        p_g = generation_perf(bg, hw, cfg.l0_km, geometry)[0]
        p_s = swap_perf(bs, hw)[0] if n else 1.0
    samples = simulate_waiting_time(n, p_g, p_s, seed, trials)
    mean, se = waiting_time_stats(samples)
    unit = (L_km / 2 ** n) * 1e3 / hw.c_m_per_s
    predicted = 1.5 ** n / (p_g * p_s ** n) if n else 1.0 / p_g
    head = (n, p_g, p_s, trials, seed)
    rows = [_mc_row("waiting_time_units", head, mean, se, predicted),
            _mc_row("waiting_time_seconds", head, mean * unit, se * unit,
                    predicted * unit)]
    if n == 1 and p_s == 1.0:
        rows.append(_mc_row("max_of_two_geometrics", head, mean, se,
                            expected_max_geometric(p_g)))
    return rows


def _montecarlo_rnpm(block: dict, hw: Hardware, seed: int,
                     trials: int) -> list[dict]:
    b2 = _number(block, "beta_sq", 0.04, "montecarlo", True)
    geom = _link_geometry(block, hw, "montecarlo")
    cfg = optics.ProtocolConfig(InteractionParams(math.sqrt(b2)), geom,
                                hw.detector)
    ens = optics.run_protocol(cfg)
    keys = sorted(ens.entries)
    probs = np.clip([ens.entries[k].probability for k in keys], 0.0, None)
    probs = probs / probs.sum()
    # phase error per outcome; -1 marks failures and stateless (p ~ 0) ones
    eps_of = np.full(len(keys), -1.0)
    for i, key in enumerate(keys):
        par = optics.outcome_parity(*key)
        state = ens.entries[key].state
        if par is not None and state is not None:
            eps_of[i], _ = optics.phase_error_split(state, par)
    # fixed-block sampling for worker-count-independent determinism
    block_sz = 4096
    succ = errs = 0
    for b_idx, done in enumerate(range(0, trials, block_sz)):
        cnt = min(block_sz, trials - done)
        rng = np.random.default_rng([seed, b_idx])
        eps = eps_of[rng.choice(len(keys), size=cnt, p=probs)]
        u = rng.random(cnt)
        succ += int(np.count_nonzero(eps >= 0.0))
        errs += int(np.count_nonzero(u < eps))
    T_A, T_B = link_transmittance(geom)
    pf = performance(hw.detector, InteractionParams(math.sqrt(b2)), T_A, T_B)
    p_hat = succ / trials
    p_se = math.sqrt(max(p_hat * (1 - p_hat), 1e-300) / trials)
    e_hat = errs / succ if succ else 0.0
    e_se = math.sqrt(max(e_hat * (1 - e_hat), 1e-300) / max(succ, 1))
    head = ("", "", "", trials, seed)
    return [_mc_row("rnpm_success_probability", head, p_hat, p_se, pf.p),
            _mc_row("rnpm_phase_error", head, e_hat, e_se, pf.epsilon)]


def cmd_montecarlo(config: dict, args) -> tuple[int, list[dict], list[str]]:
    hw = parse_hardware(config)
    geometry = parse_geometry(config)
    block = _block(config, "montecarlo", {
        "mode", "n", "L_km", "p_g", "p_s", "beta_g_sq", "beta_s_sq", "beta_sq",
        "L_A_km", "L_B_km", "trials", "seed"})
    trials = (args.trials if args.trials is not None
              else _integer(block, "trials", 0, "montecarlo"))
    _require(trials > 0, "montecarlo requires trials > 0")
    seed = (args.seed if args.seed is not None
            else _integer(block, "seed", 0, "montecarlo"))
    mode = block.get("mode", "waiting")
    _require(mode in ("waiting", "rnpm"), f"unknown montecarlo mode {mode!r}")
    if mode == "waiting":
        rows = _montecarlo_waiting(block, hw, geometry, seed, trials)
    else:
        rows = _montecarlo_rnpm(block, hw, seed, trials)
    return 0, rows, MC_COLS


def cmd_optics(config: dict, args, out) -> int:
    hw = parse_hardware(config)
    block = _block(config, "optics", {"beta_sq", "alpha", "theta", "L_A_km",
                                      "L_B_km", "variant", "initial_state"})
    geom = _link_geometry(block, hw, "optics")
    if "alpha" in block or "theta" in block:
        _require("alpha" in block and "theta" in block,
                 "optics.alpha and optics.theta must be given together")
        alpha = _number(block, "alpha", None, "optics")
        theta = _number(block, "theta", None, "optics")
        par = InteractionParams(alpha * math.sin(theta / 2.0), alpha, theta)
    else:
        par = InteractionParams(
            math.sqrt(_number(block, "beta_sq", 0.04, "optics", True)))
    variant = block.get("variant", "central")
    variants = [v.value for v in optics.Variant]
    _require(variant in variants,
             f"optics.variant must be one of {variants}, got {variant!r}")
    initial = block.get("initial_state")
    if initial is not None:
        initial = np.asarray(initial, dtype=complex)
    cfg = optics.ProtocolConfig(par, geom, hw.detector,
                                optics.Variant(variant), initial)
    ens = optics.run_protocol(cfg)
    doc = {"outcomes": []}
    for (m, n) in sorted(ens.entries):
        e = ens.entries[(m, n)]
        rec = {"m": m, "n": n, "probability": e.probability,
               "parity": optics.outcome_parity(m, n)}
        if e.state is not None:
            rec["state_re"] = e.state.real.tolist()
            rec["state_im"] = e.state.imag.tolist()
        doc["outcomes"].append(rec)
    json.dump(doc, out, indent=2, allow_nan=False)
    out.write("\n")
    return 0


# ---------------------------------------------------------------------------

TOP_LEVEL_KEYS = {"hardware", "geometry", "perf", "repeater", "distill",
                  "montecarlo", "optics"}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rnpm",
        description="Remote-parity-measurement link, repeater and "
                    "distillation calculations")
    ap.add_argument("command", choices=["perf", "repeater", "distill",
                                        "montecarlo", "optics"])
    ap.add_argument("--config", required=True, help="JSON configuration file")
    ap.add_argument("--out", default=None, help="output path (default stdout)")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--trials", type=int, default=None)
    ap.add_argument("--format", choices=["csv", "json"], default="csv")
    return ap


def run(argv: list[str], stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        _require(isinstance(config, dict), "config must be a JSON object")
        _check_keys(config, TOP_LEVEL_KEYS, "config")
        buf = io.StringIO()
        if args.command == "optics":
            code = cmd_optics(config, args, buf)
        else:
            handler = {"perf": cmd_perf, "repeater": cmd_repeater,
                       "distill": cmd_distill,
                       "montecarlo": cmd_montecarlo}[args.command]
            code, rows, cols = handler(config, args)
            _emit(rows, cols, args.format, buf)
    except (ValueError, TruncationError) as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(buf.getvalue())
    else:
        stdout.write(buf.getvalue())
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
