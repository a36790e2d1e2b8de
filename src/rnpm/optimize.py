"""Minimize total communication time at fixed final fidelity.

For each nesting level n the fidelity constraint fixes the generation
amplitude beta_g^2 in closed form given the swap amplitude, leaving a
one-dimensional minimization over beta_s^2.  It is solved for every n at
once, as numpy arrays: a coarse log-grid scan, then golden-section search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import (ChainConfig, GeometryKind, Hardware, chain_closed_form,
                    direct_transmission_time, generation_transmittances,
                    nested_time)
from .chain import generation_perf  # noqa: F401  (kept importable here)
from .formulas import (DetectorKind, epsilon_rate, success_peak,
                       success_probability)

N_MAX = 20
BETA_SQ_LO = 1e-6
BETA_SQ_HI = 2.0
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_LOG_WIDTH = 1e-3         # golden-section stop in ln beta_s^2; resolves T
                          # to well below 1e-4 relative
_GRID = np.logspace(math.log10(BETA_SQ_LO), math.log10(BETA_SQ_HI), 48)
_LOG_GRID = np.log(_GRID)


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


def time_kernel(ns, L_km: float, F_target: float, hardware: Hardware,
                geometry: GeometryKind):
    """T(beta_s^2) of the chains of nesting levels ``ns`` at fidelity F_target.

    Returns ``T_of(beta_s_sq) -> (T, beta_g_sq)`` on arrays that broadcast
    against ``ns``; T is inf where F_target is out of reach.  With
    1 - 2 eps = exp(-2 beta^2 c) for both steps, the constraint
    (1 - 2 eps_0)^N (1 - 2 eps_s)^(N-1) = 2 F_target - 1, N = 2^n, gives
    beta_g^2 = -ln(ratio) / (2 c_g N) with
    ln(ratio) = ln(2 F_target - 1) + 2 (N - 1) c_s beta_s^2, capped at
    BETA_SQ_HI and, for single-photon detectors, at the success peak
    1/(2 eta), past which beta_g only hurts.
    """
    n = np.asarray(ns)
    N = 2.0 ** n
    det = hardware.detector
    eta = det.efficiency
    c_s = epsilon_rate(det, hardware.tau, hardware.tau)
    c_g = np.reshape([epsilon_rate(det, *generation_transmittances(
        hardware, L_km / m, geometry)) for m in N.ravel()], N.shape)
    cap = min(BETA_SQ_HI, success_peak(det))
    log_target = math.log(max(2.0 * F_target - 1.0, 1e-15))
    unit = L_km / N * 1e3 / hardware.c_m_per_s  # l0 / c
    slope, scale = 2.0 * (N - 1.0) * c_s, -2.0 * c_g * N

    def T_of(beta_s_sq):
        log_ratio = log_target + slope * beta_s_sq
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            bg2 = np.minimum(log_ratio / scale, cap)
            T = nested_time(unit / success_probability(det.kind, eta, bg2),
                            success_probability(det.kind, eta, beta_s_sq), n)
        return np.where(log_ratio < 0.0, T, math.inf), bg2

    return T_of


def _golden(fun, a: np.ndarray, b: np.ndarray):
    """Golden-section minimum of ``fun`` in every lane's [a, b] at once.

    The bracket shrinks by 1/phi per step whatever the values, so a lane's
    step count is fixed by its initial width; it stops below _LOG_WIDTH.
    Returns (x, steps).
    """
    c, d = b - (b - a) * _INV_PHI, a + (b - a) * _INV_PHI
    fc, fd = fun(c), fun(d)
    steps = np.zeros(np.shape(a), dtype=int)
    while (live := b - a >= _LOG_WIDTH).any():
        left, right = live & (fc < fd), live & ~(fc < fd)
        a, b = np.where(right, c, a), np.where(left, d, b)
        x = np.where(left, b - (b - a) * _INV_PHI, a + (b - a) * _INV_PHI)
        fx = fun(x)
        c, d = np.where(left, x, np.where(right, d, c)), \
            np.where(left, c, np.where(right, x, d))
        fc, fd = np.where(left, fx, np.where(right, fd, fc)), \
            np.where(left, fc, np.where(right, fx, fd))
        steps += live
    return np.where(fc < fd, c, d), steps


def optimize_chain(L_km: float, F_target: float, hardware: Hardware,
                   geometry: GeometryKind = GeometryKind.MIDPOINT,
                   n_max: int = N_MAX) -> OptimumRecord:
    """Best (n, beta_g, beta_s) subject to F >= F_target; deterministic.

    All n = 0..n_max are scanned on the log beta_s^2 grid and refined by
    golden section together.  T and F are those of
    ``chain_closed_form`` at the optimum.
    """
    rec = OptimumRecord(L_km=L_km, F_target=F_target,
                        detector=hardware.detector.kind, geometry=geometry,
                        feasible=False, message="infeasible")
    rec.direct_seconds = direct_transmission_time(
        L_km, hardware.f_hz, hardware.detector.efficiency, hardware.L_att_km)
    T_of = time_kernel(np.arange(n_max + 1)[:, None], L_km, F_target,
                       hardware, geometry)
    i = T_of(_GRID)[0].argmin(axis=1)[:, None]
    x, steps = _golden(lambda x: T_of(np.exp(x))[0],
                       _LOG_GRID[np.maximum(i - 1, 0)],
                       _LOG_GRID[np.minimum(i + 1, len(_GRID) - 1)])
    bs2 = np.exp(x)
    bs2[0] = 0.0  # n = 0 has no swap; its T does not depend on beta_s^2
    T, bg2 = T_of(bs2)
    n = int(T.argmin())
    rec.extras["feasible_n"] = np.flatnonzero(np.isfinite(T[:, 0])).tolist()
    if not math.isfinite(T[n, 0]):
        return rec
    bg2, bs2 = float(bg2[n, 0]), float(bs2[n, 0])
    res = chain_closed_form(ChainConfig(L_km, n, math.sqrt(bg2),
                                        math.sqrt(bs2), hardware, geometry))
    rec.feasible, rec.message = True, ""
    rec.n, rec.beta_g_sq, rec.beta_s_sq = n, bg2, bs2
    rec.T_seconds, rec.F_achieved = res.T_avg, res.F
    rec.extras.update(
        n_at_max=n == n_max, beta_g_sq_at_hi=bg2 == BETA_SQ_HI,
        beta_g_sq_at_peak=bg2 == success_peak(hardware.detector),
        beta_s_sq_at_grid_edge=bool(n and i[n, 0] in (0, len(_GRID) - 1)),
        refine_steps=int(steps[n, 0]) if n else 0)
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
