"""Closed-form performance of the remote parity measurement link.

The protocol attaches a weak coherent pulse to each memory qubit, sends both
pulses through lossy channels to a midpoint, interferes them on a half beam
splitter and counts photons.  The success probability ``p`` and the
conditional phase-error probability ``epsilon`` of one attempt are fully
determined by the joint distribution Q(k, l) of the total photon number k
emitted and the total count l announced by the detectors.  This module holds
the closed forms for the three detector types, an independent oracle that
builds Q's parity classes from per-arm parity sums in O(K^2) for a photon
cutoff K <= ORACLE_K_CAP, and the Poisson tail and cutoff helpers that size
every truncated sum in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class DetectorKind(Enum):
    NUMBER_RESOLVING = "number_resolving"
    SINGLE_PHOTON = "single_photon"
    THRESHOLD = "threshold"


@dataclass(frozen=True)
class DetectorModel:
    """A photon detector: counting behaviour plus quantum efficiency.

    Dark counts are assumed to be zero throughout.
    """

    kind: DetectorKind
    efficiency: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(f"efficiency must lie in [0, 1], got {self.efficiency}")


@dataclass(frozen=True)
class LinkGeometry:
    """Channel lengths (km), attenuation length (km) and local loss tau."""

    L_A: float
    L_B: float
    L_att: float
    tau: float = 1.0

    def __post_init__(self):
        if self.L_A < 0 or self.L_B < 0:
            raise ValueError("channel lengths must be nonnegative")
        if self.L_att <= 0:
            raise ValueError("attenuation length must be positive")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")


@dataclass(frozen=True)
class InteractionParams:
    """Signal amplitude beta = alpha * sin(theta/2) of the qubit-pulse coupling.

    ``alpha`` and ``theta`` may be given explicitly when the full pulse
    amplitude matters (e.g. for the exact optics simulation); they must then
    be consistent with ``beta``.
    """

    beta: float
    alpha: float | None = None
    theta: float | None = None

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if (self.alpha is None) != (self.theta is None):
            raise ValueError("alpha and theta must be given together")
        if self.alpha is not None:
            if self.alpha < 0:
                raise ValueError("alpha must be nonnegative")
            if not math.isclose(self.beta, self.alpha * math.sin(self.theta / 2),
                                rel_tol=1e-12, abs_tol=1e-12):
                raise ValueError("beta must equal alpha*sin(theta/2)")

    def resolved(self) -> tuple[float, float]:
        """Return (alpha, theta), defaulting to theta = pi (alpha = beta)."""
        if self.alpha is not None:
            return self.alpha, self.theta
        return self.beta, math.pi


@dataclass(frozen=True)
class PerfPoint:
    """Success probability and conditional phase-error probability."""

    p: float
    epsilon: float


class TruncationError(RuntimeError):
    """A truncated summation did not reach the requested tail tolerance."""


def poisson_pmf(lam: float, k: int) -> float:
    """P_lam(k) = e^{-lam} lam^k / k!, evaluated in log space."""
    if lam < 0 or not math.isfinite(lam):
        raise ValueError(f"lambda must be finite and nonnegative, got {lam}")
    if k < 0:
        return 0.0
    if lam == 0.0:
        return 1.0 if k == 0 else 0.0
    if k < 16 or k < 1e-15 * lam:  # for k << lam this underflows to 0.0
        return math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
    # Loader's saddle-point form: the Stirling remainder of lgamma and the
    # deviance k log(k/lam) + lam - k, so no large logs cancel
    kk = k * k
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kk))
                                     / kk) / kk) / kk) / k
    bd0 = k * math.log1p((k - lam) / lam) - (k - lam)
    return math.exp(-stirlerr - bd0) / math.sqrt(2.0 * math.pi * k)


def poisson_sf(k: int, lam: float) -> float:
    """Upper tail P(X > k) of a Poisson(lam) variable.

    Sums the smaller side, scaled by its largest term: 1 - sum_{j<=k} when
    k + 1 < lam (the tail is then about 1/2 or more), else the upward tail.
    Terms stop below 1e-17 of the largest, so a call sums O(1 + sqrt(lam)).
    """
    if k < 0:
        return 1.0
    if lam == 0.0:
        return 0.0
    lower = k + 1 < lam
    j = k if lower else k + 1
    anchor = poisson_pmf(lam, j)
    t, terms = 1.0, [1.0]
    while t > 1e-17 and j > 0:
        t *= j / lam if lower else lam / (j + 1)
        j += -1 if lower else 1
        terms.append(t)
    tail = anchor * math.fsum(terms)
    return 1.0 - tail if lower else tail


def poisson_cutoff(lam: float, tail: float, start: int,
                   cap: float = math.inf) -> int:
    """Smallest k >= start with poisson_sf(k, lam) <= tail, or ``cap``."""
    k = start
    while k < cap and poisson_sf(k, lam) > tail:
        k += 1
    return k


def binomial_pmf(q: float, l: int, k: int) -> float:
    """B_q(l|k) = C(k, l) q^l (1-q)^(k-l); zero for l > k."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if l < 0 or l > k:
        return 0.0
    if q == 0.0:
        return 1.0 if l == 0 else 0.0
    if q == 1.0:
        return 1.0 if l == k else 0.0
    return math.exp(math.lgamma(k + 1) - math.lgamma(l + 1) - math.lgamma(k - l + 1)
                    + l * math.log(q) + (k - l) * math.log1p(-q))


def link_transmittance(geometry: LinkGeometry) -> tuple[float, float]:
    """Overall channel transmittances (T_A, T_B) = tau * exp(-L_X / L_att)."""
    T_A = geometry.tau * math.exp(-geometry.L_A / geometry.L_att)
    T_B = geometry.tau * math.exp(-geometry.L_B / geometry.L_att)
    return T_A, T_B


def _check_transmittances(T_A: float, T_B: float, eta: float):
    for arm, T in (("A", T_A), ("B", T_B)):
        if not 0.0 < T <= 1.0:
            raise ValueError(f"arm {arm}: transmittance T_{arm} = {T!r} must "
                             f"lie in (0, 1]")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")


def epsilon_rate(detector: DetectorModel, T_A: float, T_B: float) -> float:
    """c in eps = -expm1(-2 beta^2 c)/2; 1/(eta T) >= 1 keeps it nonnegative."""
    eta = detector.efficiency
    _check_transmittances(T_A, T_B, eta)
    if detector.kind is DetectorKind.THRESHOLD:
        return 1.0 / T_A + 1.0 / T_B - eta
    return 1.0 / T_A + 1.0 / T_B - 2.0 * eta


def success_probability(kind: DetectorKind, eta, beta_sq):
    """p of one attempt, x e^{-x} for single-photon detectors and 1 - e^{-x}
    otherwise, with x = 2 beta^2 eta; broadcasts over arrays."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = 2.0 * beta_sq * eta
        return x * np.exp(-x) if kind is DetectorKind.SINGLE_PHOTON else -np.expm1(-x)


def success_log_slope(kind: DetectorKind, eta, beta_sq):
    """d ln p / d beta^2 of ``success_probability``: 1/beta^2 - 2 eta for
    single-photon detectors and 2 eta / (e^x - 1) otherwise, x = 2 beta^2 eta.
    Decreasing in beta^2; on arrays, the caller silences the 1/0 at 0."""
    if kind is DetectorKind.SINGLE_PHOTON:
        return 1.0 / beta_sq - 2.0 * eta
    return 2.0 * eta / np.expm1(2.0 * beta_sq * eta)


def success_peak(detector: DetectorModel) -> float:
    """beta^2 of the single-photon success peak 1/(2 eta); inf otherwise."""
    if detector.kind is DetectorKind.SINGLE_PHOTON and detector.efficiency > 0.0:
        return 1.0 / (2.0 * detector.efficiency)
    return math.inf


def performance(detector: DetectorModel, params: InteractionParams,
                T_A: float, T_B: float) -> PerfPoint:
    """Closed-form (p, epsilon) of one attempt for the given detector type."""
    b2 = params.beta ** 2
    eps = -0.5 * math.expm1(-2.0 * b2 * epsilon_rate(detector, T_A, T_B))
    p = float(success_probability(detector.kind, detector.efficiency, b2))
    return PerfPoint(p=p, epsilon=eps)


#: largest cutoff K of ``performance_oracle``: O(K^2) time, O(K) memory
ORACLE_K_CAP = 2000


def k_max_for(lam: float, tail: float = 1e-12, cap: int = ORACLE_K_CAP) -> int:
    """Smallest k with Poisson upper-tail mass <= tail, capped at ``cap``."""
    if lam <= 0:
        return 1
    return poisson_cutoff(lam, tail, max(1, int(lam)), cap)


def _arm_parity_sums(arm: str, b2: float, T: float, eta: float) -> np.ndarray:
    """Rows k even and odd of sum_k B_q(l | k) P_lam(k), by l, for lam =
    b2/T, q = eta T and k up to the Poisson tail 1e-16 min(1, lam)^2: the
    arm's terms of p epsilon scale as lam^2. B_q(. | k) follows by Pascal's
    rule, with 1 - q to a few ulp even where eta T is near 1; q + (1 - q)
    rounds to 1 + d, so row k is divided by (1 + d)^k lest the mass drift."""
    lam, q, r = b2 / T, eta * T, (1.0 - eta) + eta * (1.0 - T)
    tail = 1e-16 * min(1.0, lam) ** 2
    if not lam <= ORACLE_K_CAP or poisson_sf(K := k_max_for(lam, tail), lam) > tail:
        raise TruncationError(f"arm {arm}: photon-number mean beta^2/T_{arm} = "
                              f"{lam!r} needs an oracle k_max > {ORACLE_K_CAP}")
    w = np.array([poisson_pmf(lam, k) for k in range(K + 1)])
    w *= np.exp(-np.arange(K + 1) * math.log1p(math.fsum((q, r, -1.0))))
    sums, row = np.zeros((2, K + 1)), np.zeros(K + 2)
    row[0] = 1.0
    for k in range(K + 1):  # row holds B_q(. | k), zero past l = k
        sums[k % 2, :k + 1] += w[k] * row[:k + 1]
        row[1:k + 2] = r * row[1:k + 2] + q * row[:k + 1]
        row[0] *= r
    return sums


def performance_oracle(detector: DetectorModel, params: InteractionParams,
                       T_A: float, T_B: float) -> PerfPoint:
    """(p, epsilon) by finite sums over the Poisson-binomial photon model.

    Arm X sends Poisson(beta^2/T_X) photons and counts Binomial(k_X, eta T_X)
    of them. An attempt errs when the photon number k minus the announced
    count is odd, so each arm reduces to sums by k_X parity and count l_X,
    and the totals are 1-D convolutions: O(K^2) for the cutoffs K of the
    arms, which raise TruncationError past ORACLE_K_CAP.
    """
    eta = detector.efficiency
    _check_transmittances(T_A, T_B, eta)
    b2 = params.beta ** 2
    (even_a, odd_a), (even_b, odd_b) = (_arm_parity_sums(arm, b2, T, eta)
                                        for arm, T in (("A", T_A), ("B", T_B)))
    even = np.convolve(even_a, even_b) + np.convolve(odd_a, odd_b)  # k even, by l
    odd = np.convolve(even_a, odd_b) + np.convolve(odd_a, even_b)
    if detector.kind is DetectorKind.SINGLE_PHOTON:  # announces l = 1 only
        p, err = even[1] + odd[1], even[1]
    else:  # a threshold detector announces any l >= 1 as 1
        p = even[1:].sum() + odd[1:].sum()
        err = (even[1::2].sum() + odd[2::2].sum()
               if detector.kind is DetectorKind.NUMBER_RESOLVING else even[1:].sum())
    return PerfPoint(p=float(p), epsilon=float(err / p) if p > 0 else 0.0)
