"""Minimize total communication time at fixed final fidelity.

For each nesting level n the fidelity constraint ties the generation
amplitude to the swap amplitude, leaving a one-dimensional minimization over
beta_s^2 which is solved by a coarse log-grid scan refined with golden
section search; beta_g^2 follows from the constraint through the closed-form
inverse of the generation phase error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import (ChainConfig, GeometryKind, Hardware, chain_closed_form,
                    direct_transmission_time, generation_perf,
                    generation_transmittances, swap_perf)
from .formulas import DetectorKind, beta_sq_for_epsilon

N_MAX = 20
BETA_SQ_LO = 1e-6
BETA_SQ_HI = 2.0
GOLDEN_REL_TOL = 1e-4     # relative tolerance in T
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepSpec:
    L_grid_km: tuple[float, ...]
    F_targets: tuple[float, ...]
    hardware: Hardware
    geometry: GeometryKind = GeometryKind.MIDPOINT
    detectors: tuple[DetectorKind, ...] = ()

    def __post_init__(self):
        if not self.L_grid_km:
            raise ValueError("L grid must be nonempty")
        if list(self.L_grid_km) != sorted(self.L_grid_km):
            raise ValueError("L grid must be ascending")
        if not self.F_targets:
            raise ValueError("F target list must be nonempty")


@dataclass
class OptimumRecord:
    L_km: float
    F_target: float
    detector: DetectorKind
    geometry: GeometryKind
    feasible: bool
    n: int = 0
    beta_g_sq: float = 0.0
    beta_s_sq: float = 0.0
    T_seconds: float = math.inf
    F_achieved: float = 0.0
    direct_seconds: float = math.inf
    message: str = ""
    extras: dict = field(default_factory=dict)


def _beta_g_candidates(eps_allowed: float, hardware: Hardware, l0_km: float,
                       geometry: GeometryKind) -> float | None:
    """Largest useful beta_g^2 with eps0 <= eps_allowed."""
    if eps_allowed <= 0.0:
        return None
    T_A, T_B = generation_transmittances(hardware, l0_km, geometry)
    bound = min(beta_sq_for_epsilon(hardware.detector, eps_allowed, T_A, T_B),
                BETA_SQ_HI)
    if bound <= 0.0:
        return None
    eta = hardware.detector.efficiency
    if hardware.detector.kind is DetectorKind.SINGLE_PHOTON and eta > 0.0:
        # p peaks at beta^2 = 1/(2 eta); pushing beta past the peak only hurts
        bound = min(bound, 1.0 / (2.0 * eta))
    return bound


def _time_for(n: int, L_km: float, F_target: float, hardware: Hardware,
              geometry: GeometryKind, beta_s_sq: float):
    """T (seconds) and the matching beta_g^2, or None when infeasible."""
    l0 = L_km / 2 ** n
    N = 2 ** n
    target = 2.0 * F_target - 1.0
    if target <= 0.0:
        target = 1e-15
    if n == 0:
        ratio = target
        p_s = 1.0
    else:
        p_s, eps_s = swap_perf(math.sqrt(beta_s_sq), hardware)
        denom = (1.0 - 2.0 * eps_s) ** (N - 1)
        if denom <= 0.0 or p_s <= 0.0:
            return None
        ratio = target / denom
        if ratio >= 1.0:
            return None
    eps_allowed = 0.5 * (1.0 - ratio ** (1.0 / N))
    bg2 = _beta_g_candidates(eps_allowed, hardware, l0, geometry)
    if bg2 is None:
        return None
    p_g, _ = generation_perf(math.sqrt(bg2), hardware, l0, geometry)
    if p_g <= 0.0:
        return None
    T = (l0 * 1e3 / hardware.c_m_per_s) * 1.5 ** n / (p_g * p_s ** n)
    return T, bg2


def _golden_refine(fun, a: float, b: float) -> tuple[float, float]:
    """Golden-section minimization of fun over [a, b] (log beta_s^2 axis)."""
    c = b - (b - a) * _INV_PHI
    d = a + (b - a) * _INV_PHI
    fc, fd = fun(c), fun(d)
    for _ in range(200):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * _INV_PHI
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * _INV_PHI
            fd = fun(d)
        fbest = min(fc, fd)
        if math.isfinite(fbest) and (b - a) < 1e-3:
            # log-axis width 1e-3 resolves T to well below GOLDEN_REL_TOL
            break
    x = c if fc < fd else d
    return x, min(fc, fd)


def optimize_chain(L_km: float, F_target: float, hardware: Hardware,
                   geometry: GeometryKind = GeometryKind.MIDPOINT,
                   n_max: int = N_MAX) -> OptimumRecord:
    """Best (n, beta_g, beta_s) subject to F >= F_target; deterministic."""
    rec = OptimumRecord(L_km=L_km, F_target=F_target,
                        detector=hardware.detector.kind, geometry=geometry,
                        feasible=False, message="infeasible")
    rec.direct_seconds = direct_transmission_time(
        L_km, hardware.f_hz, hardware.detector.efficiency, hardware.L_att_km)
    for n in range(0, n_max + 1):
        if n == 0:
            got = _time_for(0, L_km, F_target, hardware, geometry, 0.0)
            if got is None:
                continue
            T, bg2 = got
            bs2 = 0.0
        else:
            grid = np.logspace(math.log10(BETA_SQ_LO), math.log10(BETA_SQ_HI), 48)
            vals = []
            for b2 in grid:
                got = _time_for(n, L_km, F_target, hardware, geometry, b2)
                vals.append(math.inf if got is None else got[0])
            best_i = int(np.argmin(vals))
            if not math.isfinite(vals[best_i]):
                continue
            lo = math.log(grid[max(best_i - 1, 0)])
            hi = math.log(grid[min(best_i + 1, len(grid) - 1)])

            def fun(x):
                got = _time_for(n, L_km, F_target, hardware, geometry,
                                math.exp(x))
                return math.inf if got is None else got[0]

            x, T = _golden_refine(fun, lo, hi)
            if not math.isfinite(T):
                continue
            bs2 = math.exp(x)
            T, bg2 = _time_for(n, L_km, F_target, hardware, geometry, bs2)
        if T < rec.T_seconds:
            rec.feasible = True
            rec.message = ""
            rec.n, rec.beta_g_sq, rec.beta_s_sq, rec.T_seconds = n, bg2, bs2, T
    if rec.feasible:
        cfg = ChainConfig(L_km, rec.n, math.sqrt(rec.beta_g_sq),
                          math.sqrt(rec.beta_s_sq) if rec.n else 0.0,
                          hardware, geometry)
        rec.F_achieved = chain_closed_form(cfg).F
    return rec


def sweep(spec: SweepSpec) -> list[OptimumRecord]:
    """optimize_chain over the full grid; infeasible points are flagged."""
    hw, det = spec.hardware, spec.hardware.detector
    detectors = spec.detectors or (det.kind,)
    return [optimize_chain(L, F_t, replace(hw, detector=replace(det, kind=kind)),
                           spec.geometry)
            for L in spec.L_grid_km for F_t in spec.F_targets
            for kind in detectors]


def brute_force_chain(L_km: float, F_target: float, hardware: Hardware,
                      geometry: GeometryKind = GeometryKind.MIDPOINT,
                      n_max: int = 12, grid_size: int = 40) -> float:
    """Reference minimum of T over a raw (n, beta_g^2, beta_s^2) grid.

    Independent of the constrained solve: evaluates the closed-form chain at
    every grid point and keeps the feasible minimum.
    """
    best = math.inf
    grid = np.logspace(math.log10(BETA_SQ_LO), math.log10(BETA_SQ_HI), grid_size)
    for n in range(0, n_max + 1):
        bs_values = np.array([1e-3]) if n == 0 else grid
        for bg2 in grid:
            for bs2 in bs_values:
                cfg = ChainConfig(L_km, n, math.sqrt(bg2), math.sqrt(bs2),
                                  hardware, geometry)
                res = chain_closed_form(cfg)
                if res.F >= F_target - 1e-9:
                    best = min(best, res.T_avg)
    return best
