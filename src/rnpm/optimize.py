"""Minimize total communication time at fixed final fidelity.

For each nesting level n the fidelity constraint fixes the generation
amplitude beta_g^2 in closed form given the swap amplitude, leaving a
one-dimensional minimization over beta_s^2.  ln T is convex in beta_s^2,
so its slope g never decreases, and the optimum is the root of g or a bound
of [BETA_SQ_LO, BETA_SQ_HI].  A fixed-length bisection on the sign of g in
ln beta_s^2 finds it for every n at once, as numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import (ChainConfig, GeometryKind, Hardware, chain_closed_form,
                    direct_transmission_time, generation_transmittances,
                    nested_time)
from .chain import generation_perf  # noqa: F401  (kept importable here)
from .formulas import (DetectorKind, epsilon_rate, success_log_slope,
                       success_peak, success_probability)

N_MAX = 20
BETA_SQ_LO = 1e-6
BETA_SQ_HI = 2.0
_HALVINGS = 30            # ln(HI/LO) / 2^30 < 2e-8 in ln beta_s^2


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
    """T(beta_s^2) and g = d ln T / d beta_s^2 at levels ``ns`` and F_target.

    Returns ``T_of(beta_s_sq) -> (T, beta_g_sq)`` and ``g_of(beta_s_sq) -> g``
    on arrays that broadcast against ``ns``; T and g are inf where F_target
    is out of reach.  With 1 - 2 eps = exp(-2 beta^2 c) for both steps, the
    constraint (1 - 2 eps_0)^N (1 - 2 eps_s)^(N-1) = 2 F_target - 1, N = 2^n,
    gives beta_g^2 = -ln(ratio) / (2 c_g N) with
    ln(ratio) = ln(2 F_target - 1) + 2 (N - 1) c_s beta_s^2, capped at
    BETA_SQ_HI and, for single-photon detectors, at the success peak
    1/(2 eta), past which beta_g only hurts.  So g = k rho(beta_g^2) -
    n rho(beta_s^2) with rho = ``success_log_slope`` and
    k = (N - 1) c_s / (c_g N); the first term is 0 where beta_g^2 is capped.
    """
    n = np.asarray(ns)
    N = 2.0 ** n
    det = hardware.detector
    kind, eta = det.kind, det.efficiency
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
            T = nested_time(unit / success_probability(kind, eta, bg2),
                            success_probability(kind, eta, beta_s_sq), n)
        return np.where(log_ratio < 0.0, T, math.inf), bg2

    def g_of(beta_s_sq):
        log_ratio = log_target + slope * beta_s_sq
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            bg2 = log_ratio / scale
            gen = np.where(bg2 < cap, -slope / scale
                           * success_log_slope(kind, eta, bg2), 0.0)
            g = gen - n * success_log_slope(kind, eta, beta_s_sq)
        return np.where(log_ratio < 0.0, g, math.inf)

    return T_of, g_of


def optimize_chain(L_km: float, F_target: float, hardware: Hardware,
                   geometry: GeometryKind = GeometryKind.MIDPOINT
                   ) -> OptimumRecord:
    """Best (n, beta_g, beta_s) subject to F >= F_target; deterministic.

    For every n at once, beta_s^2 is BETA_SQ_HI where g <= 0 there, and
    otherwise the lower, feasible end of the bracket of g's sign change
    after _HALVINGS bisections.  T and F are those of ``chain_closed_form``.
    """
    rec = OptimumRecord(L_km=L_km, F_target=F_target,
                        detector=hardware.detector.kind, geometry=geometry,
                        feasible=False, message="infeasible")
    rec.direct_seconds = direct_transmission_time(
        L_km, hardware.f_hz, hardware.detector.efficiency, hardware.L_att_km)
    T_of, g_of = time_kernel(np.arange(N_MAX + 1), L_km, F_target, hardware,
                             geometry)
    lo, hi = np.full(N_MAX + 1, BETA_SQ_LO), np.full(N_MAX + 1, BETA_SQ_HI)
    for _ in range(_HALVINGS):
        mid = np.sqrt(lo * hi)
        down = g_of(mid) <= 0.0
        lo, hi = np.where(down, mid, lo), np.where(down, hi, mid)
    bs2 = np.where(g_of(BETA_SQ_HI) <= 0.0, BETA_SQ_HI, lo)
    bs2[0] = 0.0  # n = 0 has no swap; its T does not depend on beta_s^2
    T, bg2 = T_of(bs2)
    n = int(T.argmin())
    rec.extras["feasible_n"] = np.flatnonzero(np.isfinite(T)).tolist()
    if not math.isfinite(T[n]):
        return rec
    bg2, bs2 = float(bg2[n]), float(bs2[n])
    res = chain_closed_form(ChainConfig(L_km, n, math.sqrt(bg2),
                                        math.sqrt(bs2), hardware, geometry))
    rec.feasible, rec.message = True, ""
    rec.n, rec.beta_g_sq, rec.beta_s_sq = n, bg2, bs2
    rec.T_seconds, rec.F_achieved = res.T_avg, res.F
    rec.extras.update(
        n_at_max=n == N_MAX, beta_g_sq_at_hi=bg2 == BETA_SQ_HI,
        beta_g_sq_at_peak=bg2 == success_peak(hardware.detector),
        beta_s_sq_at_bound=bs2 in (BETA_SQ_LO, BETA_SQ_HI))
    return rec


def sweep(spec: SweepSpec) -> list[OptimumRecord]:
    """optimize_chain over the full grid; infeasible points are flagged."""
    hw, det = spec.hardware, spec.hardware.detector
    detectors = spec.detectors or (det.kind,)
    return [optimize_chain(L, F_t, replace(hw, detector=replace(det, kind=kind)),
                           spec.geometry)
            for L in spec.L_grid_km for F_t in spec.F_targets
            for kind in detectors]
