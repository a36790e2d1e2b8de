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

from . import optimize
from .chain import (GeometryKind, Hardware, ChainConfig, block_rngs,
                    check_chain_depth, expected_max_geometric, generation_perf,
                    simulate_waiting_time, swap_perf, waiting_time_stats)
from .formulas import (DetectorKind, DetectorModel, InteractionParams,
                       LinkGeometry, TruncationError, link_transmittance,
                       performance, performance_oracle)


class ConfigError(ValueError):
    pass


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _is_number(v) -> bool:
    """A JSON number that converts to a float: no bool, no huge integer."""
    return isinstance(v, float) or (isinstance(v, int) and not isinstance(v, bool)
                                    and abs(v) <= sys.float_info.max)


def _is_entry(v) -> bool:
    """A state entry: a JSON number, or a string that complex() parses."""
    try:
        return _is_number(v) or isinstance(v, str) and isinstance(complex(v), complex)
    except ValueError:
        return False


def _is_state(v) -> bool:
    """A list of 4 entries, or 4 such lists."""
    matrix = isinstance(v, list) and len(v) == 4 and all(isinstance(r, list) for r in v)
    return all(isinstance(r, list) and len(r) == 4 and all(map(_is_entry, r))
               for r in (v if matrix else [v]))


def _num(text: str, ok=lambda x: True):
    return (text, lambda v: _is_number(v) and ok(v))


def _nums(text: str, ok):
    return (f"a nonempty list of numbers, each {text}", lambda v: isinstance(v, list)
            and bool(v) and all(_is_number(x) and ok(x) for x in v))


def _one_of(values: list):
    return (f"one of {values}", lambda v: v in values)


_COUNT = _num("an integer >= 0", lambda x: isinstance(x, int) and x >= 0)
_NONNEG = _num("a number >= 0", lambda x: x >= 0.0)
_FINITE = _num("a finite number", math.isfinite)
_POSITIVE = _num("a finite number > 0", lambda x: 0.0 < x < math.inf)
_PROBABILITY = _num("a number in (0, 1]", lambda x: 0.0 < x <= 1.0)
_DETECTORS = [k.value for k in DetectorKind]
_DETECTOR_LIST = (f"a list of detector names in {_DETECTORS}", lambda v:
                  isinstance(v, list) and all(d in _DETECTORS for d in v))

#: block -> field -> (default, (rule text, test)). A None default marks an
#: optional field with no default; every other value, a default included,
#: must pass its test.
FIELDS = {
    "hardware": {
        "tau": (0.98, _PROBABILITY),
        "eta": (0.95, _num("a number in [0, 1]", lambda x: 0.0 <= x <= 1.0)),
        "L_att_km": (22.0, _POSITIVE),
        "c_m_per_s": (2.0e8, _POSITIVE), "f_hz": (1.0e10, _POSITIVE),
        "detector": ("single_photon", _one_of(_DETECTORS)),
    },
    "geometry": {"kind": ("midpoint", _one_of([k.value for k in GeometryKind]))},
    "perf": {
        # elements unchecked: [null] is a failure fixture of the benchmark
        "beta_sq": ([0.04], ("a nonempty list",
                             lambda v: isinstance(v, list) and bool(v))),
        "L_A_km": (0.0, _NONNEG), "L_B_km": (0.0, _NONNEG),
        "detectors": ([], _DETECTOR_LIST),
    },
    "repeater": {
        "L_km": ([], _nums("finite and > 0", lambda x: 0.0 < x < math.inf)),
        "F_targets": ([0.9, 0.7], _nums("in [0, 1]", lambda x: 0.0 <= x <= 1.0)),
        "detectors": ([], _DETECTOR_LIST),
    },
    "distill": {
        "F_grid": ([round(0.5 + 0.025 * i, 4) for i in range(21)],
                   _nums("in [0, 1]", lambda x: 0.0 <= x <= 1.0)),
        "beta_sq": ([0.04, 0.08, 0.12], _nums(">= 0", lambda x: x >= 0.0)),
    },
    "montecarlo": {
        "mode": ("waiting", _one_of(["waiting", "rnpm"])),
        "n": (1, _COUNT),
        "L_km": (None, _POSITIVE),  # default 20 km * 2^n
        # p_g given: sample p_g and p_s directly, not from beta_g_sq, beta_s_sq
        "p_g": (None, _PROBABILITY), "p_s": (1.0, _PROBABILITY),
        "beta_g_sq": (0.04, _NONNEG), "beta_s_sq": (0.04, _NONNEG),
        "beta_sq": (0.04, _NONNEG),
        "L_A_km": (0.0, _NONNEG), "L_B_km": (0.0, _NONNEG),
        "trials": (0, _num("an integer", lambda x: isinstance(x, int))),
        "seed": (0, _COUNT),
    },
    "optics": {
        "beta_sq": (0.04, _NONNEG),
        "alpha": (None, _num("a finite number >= 0", lambda x: 0.0 <= x < math.inf)),
        "theta": (None, _FINITE),
        "L_A_km": (0.0, _NONNEG), "L_B_km": (0.0, _NONNEG),
        "variant": ("central", _one_of(["central", "local"])),  # optics.Variant
        "initial_state": (None, ("a list of 4 entries or 4 lists of 4 entries, "
                                 "each a number or a complex string", _is_state)),
    },
}


def _read_block(config: dict, name: str, **overrides) -> dict:
    """The block's value for every field of FIELDS[name], checked. A non-None
    override, from a command-line option, replaces the block's value."""
    block = config.get(name, {})
    _require(isinstance(block, dict), f"{name} must be an object")
    unknown = set(block) - set(FIELDS[name])
    _require(not unknown, f"unknown keys in {name}: {sorted(unknown)}")
    block = {**block, **{k: v for k, v in overrides.items() if v is not None}}
    values = {}
    for key, (default, (text, ok)) in FIELDS[name].items():
        value = values[key] = block.get(key, default)
        _require((key not in block and default is None) or ok(value),
                 f"{name}.{key} must be {text}")
    return values


def _link_geometry(b: dict, hw: Hardware) -> LinkGeometry:
    return LinkGeometry(float(b["L_A_km"]), float(b["L_B_km"]), hw.L_att_km, hw.tau)


def parse_hardware(config: dict) -> Hardware:
    b = _read_block(config, "hardware")
    det = DetectorModel(DetectorKind(b["detector"]), float(b["eta"]))
    return Hardware(float(b["tau"]), det, float(b["L_att_km"]),
                    float(b["c_m_per_s"]), float(b["f_hz"]))


def _fmt(x) -> str:
    return "" if x is None else repr(x) if isinstance(x, float) else str(x)


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
    w.writerows({k: _fmt(row.get(k)) for k in columns} for row in rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_perf(config: dict, args) -> tuple[int, list[dict], list[str]]:
    hw = parse_hardware(config)
    b = _read_block(config, "perf")
    T_A, T_B = link_transmittance(_link_geometry(b, hw))
    rows = []
    for kind in map(DetectorKind, b["detectors"] or [hw.detector.kind.value]):
        det = DetectorModel(kind, hw.detector.efficiency)
        for b2 in b["beta_sq"]:
            par = InteractionParams(math.sqrt(float(b2)))
            pf = performance(det, par, T_A, T_B)
            po = performance_oracle(det, par, T_A, T_B)
            rows.append({
                "detector": kind.value, "beta_sq": float(b2), "T_A": T_A,
                "T_B": T_B, "eta": det.efficiency, "p": pf.p,
                "epsilon": pf.epsilon, "p_oracle": po.p,
                "epsilon_oracle": po.epsilon})
    cols = ["detector", "beta_sq", "T_A", "T_B", "eta", "p", "epsilon",
            "p_oracle", "epsilon_oracle"]
    return 0, rows, cols


def cmd_repeater(config: dict, args) -> tuple[int, list[dict], list[str]]:
    hw = parse_hardware(config)
    geometry = GeometryKind(_read_block(config, "geometry")["kind"])
    b = _read_block(config, "repeater")
    detectors = tuple(map(DetectorKind, b["detectors"])) or (hw.detector.kind,)
    recs = optimize.sweep(optimize.SweepSpec(
        tuple(map(float, b["L_km"])), tuple(map(float, b["F_targets"])), hw,
        geometry, detectors))
    rows = [{
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
    } for r in recs]
    cols = ["L_km", "F_target", "detector", "geometry", "n_opt", "beta_g_sq",
            "beta_s_sq", "T_seconds", "F", "direct_seconds", "errors"]
    code = 3 if recs and not any(r.feasible for r in recs) else 0
    return code, rows, cols


def cmd_distill(config: dict, args) -> tuple[int, list[dict], list[str]]:
    from . import distill
    hw = parse_hardware(config)
    b = _read_block(config, "distill")
    rows = []
    for b2 in map(float, b["beta_sq"]):
        for F in map(float, b["F_grid"]):
            res = distill.recurrence_step(F, math.sqrt(b2), hw.tau, hw.detector)
            # no fidelity for a state that is never produced
            rows.append({"F": F, "beta_sq": b2, "P_s": res.P_s,
                         "F_prime": res.F_prime if res.P_s > 0.0 else None})
    return 0, rows, ["F", "beta_sq", "P_s", "F_prime"]


MC_COLS = ["quantity", "n", "p_g", "p_s", "trials", "seed",
           "empirical_mean", "std_error", "predicted"]


def _mc_row(quantity: str, head: tuple, mean, se, predicted) -> dict:
    """One montecarlo row; ``head`` is (n, p_g, p_s, trials, seed)."""
    return dict(zip(MC_COLS, (quantity, *head, mean, se, predicted)))


def _montecarlo_waiting(b: dict, hw: Hardware, geometry: GeometryKind,
                        seed: int, trials: int) -> list[dict]:
    n = b["n"]
    # reject a chain that no p_s could sample before 2 ** n is formed
    check_chain_depth(n, 1.0)
    L_km = float(b["L_km"] if b["L_km"] is not None else 20.0 * 2 ** n)
    named = "montecarlo.p_g and montecarlo.p_s"
    if b["p_g"] is not None:
        p_g, p_s = float(b["p_g"]), float(b["p_s"])
    else:
        bg, bs = math.sqrt(float(b["beta_g_sq"])), math.sqrt(float(b["beta_s_sq"]))
        cfg = ChainConfig(L_km, n, bg, bs, hw, geometry)
        p_g = generation_perf(bg, hw, cfg.l0_km, geometry)[0]
        p_s = swap_perf(bs, hw)[0] if n else 1.0
        named = "montecarlo.beta_g_sq and montecarlo.beta_s_sq"
    # draws clamp at 2^63 - 1 and int64 slot sums wrap: keep 2^7 of headroom
    _require(not p_g > 0.0 < p_s or 1.5 ** n < 2.0 ** 56 * p_g * p_s ** n,
             f"{named} give a predicted time 1.5^n/(p_g p_s^n) of 2^56 or more")
    samples = simulate_waiting_time(n, p_g, p_s, seed, trials)
    mean, se = waiting_time_stats(samples)
    unit = (L_km / 2 ** n) * 1e3 / hw.c_m_per_s
    # not chain.nested_time: its order moves a last digit the benchmark pins
    predicted = 1.5 ** n / (p_g * p_s ** n)
    head = (n, p_g, p_s, trials, seed)
    rows = [_mc_row("waiting_time_units", head, mean, se, predicted),
            _mc_row("waiting_time_seconds", head, mean * unit, se * unit,
                    predicted * unit)]
    if n == 1 and p_s == 1.0:
        rows.append(_mc_row("max_of_two_geometrics", head, mean, se,
                            expected_max_geometric(p_g)))
    return rows


def _montecarlo_rnpm(b: dict, hw: Hardware, seed: int, trials: int) -> list[dict]:
    from . import optics
    beta = InteractionParams(math.sqrt(float(b["beta_sq"])))
    geom = _link_geometry(b, hw)
    ens = optics.run_protocol(optics.ProtocolConfig(beta, geom, hw.detector))
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
    starts = range(0, trials, block_sz)
    for done, rng in zip(starts, block_rngs(seed, range(len(starts)))):
        cnt = min(block_sz, trials - done)
        eps = eps_of[rng.choice(len(keys), size=cnt, p=probs)]
        u = rng.random(cnt)
        succ += int(np.count_nonzero(eps >= 0.0))
        errs += int(np.count_nonzero(u < eps))
    T_A, T_B = link_transmittance(geom)
    pf = performance(hw.detector, beta, T_A, T_B)
    p_hat = succ / trials
    p_se = math.sqrt(max(p_hat * (1 - p_hat), 1e-300) / trials)
    e_hat = errs / succ if succ else 0.0
    e_se = math.sqrt(max(e_hat * (1 - e_hat), 1e-300) / max(succ, 1))
    head = ("", "", "", trials, seed)
    return [_mc_row("rnpm_success_probability", head, p_hat, p_se, pf.p),
            _mc_row("rnpm_phase_error", head, e_hat, e_se, pf.epsilon)]


def cmd_montecarlo(config: dict, args) -> tuple[int, list[dict], list[str]]:
    hw = parse_hardware(config)
    geometry = GeometryKind(_read_block(config, "geometry")["kind"])
    b = _read_block(config, "montecarlo", trials=args.trials, seed=args.seed)
    trials, seed = b["trials"], b["seed"]
    _require(trials > 0, "montecarlo requires trials > 0")
    if b["mode"] == "rnpm":
        return 0, _montecarlo_rnpm(b, hw, seed, trials), MC_COLS
    return 0, _montecarlo_waiting(b, hw, geometry, seed, trials), MC_COLS


def cmd_optics(config: dict, args, out) -> int:
    from . import optics
    hw = parse_hardware(config)
    b = _read_block(config, "optics")
    alpha, theta = b["alpha"], b["theta"]
    if alpha is not None or theta is not None:
        _require(alpha is not None and theta is not None,
                 "optics.alpha and optics.theta must be given together")
        alpha, theta = float(alpha), float(theta)
        beta = alpha * math.sin(theta / 2.0)
        _require(beta >= 0.0, "optics.alpha * sin(optics.theta / 2) must be >= 0")
        _require(alpha < 1e153, "optics.alpha must be < 1e153, so alpha^2 is finite")
        par = InteractionParams(beta, alpha, theta)
    else:
        par = InteractionParams(math.sqrt(float(b["beta_sq"])))
    # a mode's mean count is <= 2 beta^2, and the number-resolving outcome
    # grid grows as beta^4: 2.8e5 outcomes and 3 s at beta^2 = 200
    _require(hw.detector.kind is not DetectorKind.NUMBER_RESOLVING
             or par.beta ** 2 <= 1e4, "optics.beta_sq, or (optics.alpha * "
             "sin(optics.theta / 2))^2, must be <= 1e4 for number_resolving")
    initial = b["initial_state"]
    initial = None if initial is None else np.asarray(initial, dtype=complex)
    cfg = optics.ProtocolConfig(par, _link_geometry(b, hw), hw.detector,
                                optics.Variant(b["variant"]), initial)
    ens = optics.run_protocol(cfg)
    doc = {"outcomes": []}
    for (m, n), e in sorted(ens.entries.items()):
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
        unknown = set(config) - set(FIELDS)
        _require(not unknown, f"unknown keys in config: {sorted(unknown)}")
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
