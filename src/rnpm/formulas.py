"""Closed-form performance of the remote parity measurement link.

The protocol attaches a weak coherent pulse to each memory qubit, sends both
pulses through lossy channels to a midpoint, interferes them on a half beam
splitter and counts photons.  The success probability ``p`` and the
conditional phase-error probability ``epsilon`` of one attempt are fully
determined by the joint distribution Q(k, l) of the total photon number k
emitted and the total count l announced by the detectors.  This module holds
the closed forms for the three detector types together with an independent
brute-force summation oracle over the Q(k, l) table, and the Poisson tail
and cutoff helpers that size every truncated sum in the package.
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
    if k < 16:
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


def k_max_for(lam: float, tail: float = 1e-12, cap: int = 200) -> int:
    """Smallest k with Poisson upper-tail mass <= tail, capped at ``cap``."""
    if lam <= 0:
        return 1
    return poisson_cutoff(lam, tail, max(1, int(lam)), cap)


def _q_table(params: InteractionParams, T_A: float, T_B: float, eta: float,
             k_max: int) -> np.ndarray:
    """Q(k, l) for 0 <= l <= k <= k_max via the per-arm double-sum definition.

    The direct 2D convolution of the per-arm joint tables
    A[k_a, l_a] = B_{eta T_A}(l_a | k_a) P_{beta^2/T_A}(k_a) (same for arm B),
    deliberately avoiding the closed form so this stays an independent oracle.
    Every term is a nonnegative product, so exact zeros stay exactly zero.
    """
    b2 = params.beta ** 2
    n = range(k_max + 1)
    A, B = (np.array([[binomial_pmf(eta * T, l, k) for l in n] for k in n])
            * np.array([poisson_pmf(b2 / T, k) for k in n])[:, None]
            for T in (T_A, T_B))
    # row k_a of A shifts B by k_a photons; S[l_b, l] = A[k_a, l - l_b]
    lag = np.arange(k_max + 1)[None, :] - np.arange(k_max + 1)[:, None]
    Q = np.zeros((k_max + 1, k_max + 1))
    for ka in n:
        S = np.where(lag >= 0, A[ka][np.maximum(lag, 0)], 0.0)
        Q[ka:] += (B @ S)[: k_max + 1 - ka]
    return Q


def performance_oracle(detector: DetectorModel, params: InteractionParams,
                       T_A: float, T_B: float, k_max: int | None = None,
                       tail: float = 1e-16) -> PerfPoint:
    """(p, epsilon) by finite summation over the Q(k, l) table.

    Truncation point is chosen so that the Poisson tail of the total photon
    number beyond ``k_max`` is below ``tail``; a TruncationError is raised if
    the table mass falls short of that.
    """
    eta = detector.efficiency
    _check_transmittances(T_A, T_B, eta)
    b2 = params.beta ** 2
    lam = b2 * (1.0 / T_A + 1.0 / T_B)
    if not lam <= 1e8:  # a tail check sums O(sqrt(lam)) terms; no k_max fits
        raise TruncationError(f"total photon-number mean {lam} must be <= 1e8")
    if k_max is None:
        k_max = k_max_for(lam, tail)
    if poisson_sf(k_max, lam) > tail:
        raise TruncationError(
            f"k_max={k_max} leaves Poisson tail above {tail}; "
            f"need k_max >= {k_max_for(lam, tail, cap=10_000)}")
    Q = _q_table(params, T_A, T_B, eta, k_max)
    mass = Q.sum()
    if mass < 1.0 - 100 * tail:
        raise TruncationError(f"Q table mass {mass} too far below 1")

    ks = np.arange(k_max + 1)[:, None]
    ls = np.arange(k_max + 1)[None, :]
    signs = np.where((ks - ls) % 2 == 0, 1.0, -1.0)

    if detector.kind is DetectorKind.NUMBER_RESOLVING:
        chi_plus = Q.sum(axis=0)
        chi_minus = (signs * Q).sum(axis=0)
        p = chi_plus[1:].sum()
        num = (chi_plus[1:] - chi_minus[1:]).sum()
    else:
        # single photon: only l = 1 is announced, everything else reads l = 0;
        # threshold: any l >= 1 collapses to the announced count 1
        if detector.kind is DetectorKind.SINGLE_PHOTON:
            col = Q[:, 1]
        else:
            col = np.tril(Q)[:, 1:].sum(axis=1)
        p = col.sum()
        num = p - (np.where(ks[:, 0] % 2 == 1, 1.0, -1.0) * col).sum()

    eps = num / (2.0 * p) if p > 0 else 0.0
    return PerfPoint(p=float(p), epsilon=float(eps))
