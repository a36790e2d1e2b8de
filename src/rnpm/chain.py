"""Nested repeater chain built from the remote parity measurement.

Entanglement is generated over elementary links of length l0 = L / 2^n and
connected by local Bell measurements at the middle stations.  The phase
error and the average waiting time obey simple recursions; this module holds
the recursions, their closed forms, the secret-key rate, the direct
transmission baseline and a discrete-event Monte Carlo of the waiting time.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .formulas import (DetectorModel, InteractionParams, LinkGeometry,
                       link_transmittance, performance)


class GeometryKind(Enum):
    MIDPOINT = "midpoint"   # L_A = L_B = l0/2
    ENDPOINT = "endpoint"   # L_A = l0, L_B = 0


@dataclass(frozen=True)
class Hardware:
    """Station hardware: local loss, detector, fiber constants."""

    tau: float
    detector: DetectorModel
    L_att_km: float = 22.0
    c_m_per_s: float = 2.0e8
    f_hz: float = 1.0e10  # repetition rate of the direct-transmission source


@dataclass(frozen=True)
class ChainConfig:
    L_km: float
    n: int
    beta_g: float
    beta_s: float
    hardware: Hardware
    geometry: GeometryKind = GeometryKind.MIDPOINT

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("nesting level must be nonnegative")
        if self.L_km <= 0:
            raise ValueError("total length must be positive")

    @property
    def l0_km(self) -> float:
        return self.L_km / 2 ** self.n


@dataclass
class ChainResult:
    T_avg: float                     # seconds
    F: float
    eps_levels: list[float] = field(default_factory=list)
    t_levels: list[float] = field(default_factory=list)


def generation_transmittances(hardware: Hardware, l0_km: float,
                              geometry: GeometryKind) -> tuple[float, float]:
    """(T_A, T_B) of the two arms of one elementary link."""
    L_A = l0_km / 2.0 if geometry is GeometryKind.MIDPOINT else l0_km
    return link_transmittance(LinkGeometry(L_A, l0_km - L_A, hardware.L_att_km,
                                           hardware.tau))


def generation_perf(beta_g: float, hardware: Hardware, l0_km: float,
                    geometry: GeometryKind):
    """(p, eps0) of elementary entanglement generation over one link."""
    T_A, T_B = generation_transmittances(hardware, l0_km, geometry)
    perf = performance(hardware.detector, InteractionParams(beta_g), T_A, T_B)
    return perf.p, perf.epsilon


def swap_perf(beta_s: float, hardware: Hardware):
    """(p, eps) of the local Bell measurement; both arms see only tau."""
    perf = performance(hardware.detector, InteractionParams(beta_s),
                       hardware.tau, hardware.tau)
    return perf.p, perf.epsilon


def generation_step(config: ChainConfig) -> tuple[float, float]:
    """(eps_0, t_0): elementary-link error and average generation time (s)."""
    p, eps0 = generation_perf(config.beta_g, config.hardware, config.l0_km,
                              config.geometry)
    if p <= 0.0:
        raise ValueError("generation success probability is zero; "
                         "infeasible configuration")
    t0 = (config.l0_km * 1e3 / config.hardware.c_m_per_s) / p
    return eps0, t0


def connect_step(eps_j: float, t_j: float, beta_s: float,
                 hardware: Hardware) -> tuple[float, float]:
    """One entanglement connection: error and time recursions."""
    if not 0.0 <= eps_j <= 0.5:
        raise ValueError(f"eps_j must lie in [0, 1/2], got {eps_j}")
    p_s, eps_s = swap_perf(beta_s, hardware)
    eps_next = 0.5 * (1.0 - (1.0 - 2.0 * eps_j) ** 2 * (1.0 - 2.0 * eps_s))
    t_next = 1.5 * t_j / p_s
    return eps_next, t_next


def chain_iterated(config: ChainConfig) -> ChainResult:
    """Iterate generation + n connection steps."""
    eps, t = generation_step(config)
    eps_levels, t_levels = [eps], [t]
    for _ in range(config.n):
        eps, t = connect_step(eps, t, config.beta_s, config.hardware)
        eps_levels.append(eps)
        t_levels.append(t)
    return ChainResult(T_avg=t, F=1.0 - eps, eps_levels=eps_levels,
                       t_levels=t_levels)


def nested_time(t0, p_s, n):
    """Average time t0 (3/2)^n / p_s^n of a chain of nesting level n whose
    elementary links take t0 on average; broadcasts over arrays."""
    return t0 * 1.5 ** n / p_s ** n


def chain_closed_form(config: ChainConfig) -> ChainResult:
    """Closed-form total time and final fidelity of the nested chain."""
    eps0, t0 = generation_step(config)
    p_s, eps_s = swap_perf(config.beta_s, config.hardware)
    levels = range(config.n + 1)
    # 2F - 1 = (1 - 2 eps0)^N (1 - 2 eps_s)^(N - 1) at level j, N = 2^j
    two_f = [(1.0 - 2.0 * eps0) ** 2 ** j * (1.0 - 2.0 * eps_s) ** (2 ** j - 1)
             for j in levels]
    t_levels = [nested_time(t0, p_s, j) for j in levels]
    return ChainResult(T_avg=t_levels[-1], F=(1.0 + two_f[-1]) / 2.0,
                       eps_levels=[eps0] + [0.5 * (1.0 - q) for q in two_f[1:]],
                       t_levels=t_levels)


def binary_entropy(x: float) -> float:
    """h(x) with the h(0) = h(1) = 0 convention."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"argument must lie in [0, 1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def key_rate(F: float) -> float:
    """Secret-key fraction 1 - h(F) of the one-error-type final state."""
    return 1.0 - binary_entropy(F)


def direct_transmission_time(L_km: float, f_hz: float, eta: float,
                             L_att_km: float) -> float:
    """Average time (f eta T_L)^{-1} of direct transmission; inf at eta = 0."""
    if f_hz <= 0:
        raise ValueError("source rate must be positive")
    rate = f_hz * eta
    if rate == 0.0:  # eta = 0, or the product underflows
        return math.inf
    return math.exp(L_km / L_att_km) / rate


def expected_max_geometric(p: float) -> float:
    """E[max(G1, G2)] for iid geometric(p) variables: 2/p - 1/(2p - p^2)."""
    return 2.0 / p - 1.0 / (2.0 * p - p * p)


# ---------------------------------------------------------------------------
# Waiting-time Monte Carlo
# ---------------------------------------------------------------------------

_BLOCK = 64  # trials per RNG block; fixed so results are worker-independent
_CHUNK = 1 << 20  # level-0 pairs drawn at once by the streaming level-1 kernel
#: log2 of the cap on one block's expected level-1 count: 2^26 is about 10x
#: the n=6, p_s=0.2 chain, and the level-1 arrays are what fills memory
_MAX_LEVEL1_LOG2 = 26
#: log2 of the cap on one block's expected level-0 pair count, which sets
#: the run time: the n=6, p_s=0.2 chain expects 2^24.9
_MAX_LEVEL0_LOG2 = 28
#: numpy draws geometric(p) by inversion below this p and by search above it
_GEOMETRIC_SEARCH_P = 1.0 / 3.0
_INT64_MAX = np.iinfo(np.int64).max
_INT64_LIMIT = 2.0 ** 63  # numpy's inversion returns INT64_MAX from here up


def _pair_max_chunks(rng: np.random.Generator, p: float, pairs: int):
    """Yield the max of each consecutive pair of ``2 * pairs`` geometric(p)
    draws, ``_CHUNK`` pairs at a time, bit for bit as ``rng.geometric``.

    Below ``_GEOMETRIC_SEARCH_P`` numpy's geometric is
    ``ceil(-standard_exponential() / log1p(-p))``, clamped to INT64_MAX.
    Division by a positive constant and ceil are monotone, so the max is
    taken on the exponentials and the log1p division runs once per pair.
    """
    for start in range(0, pairs, _CHUNK):
        size = min(_CHUNK, pairs - start)
        if p >= _GEOMETRIC_SEARCH_P:
            g = rng.geometric(p, size=2 * size)
            yield np.maximum(g[0::2], g[1::2])
            continue
        e = rng.standard_exponential(2 * size)
        z = np.ceil(np.maximum(e[0::2], e[1::2]) / -math.log1p(-p))
        if z.max() < _INT64_LIMIT:
            yield z.astype(np.int64)
            continue
        big = z >= _INT64_LIMIT
        z[big] = 0.0
        pm = z.astype(np.int64)
        pm[big] = _INT64_MAX
        yield pm


def _slot_sums(pair_maxes, attempts: np.ndarray) -> np.ndarray:
    """Sum a stream of pair maxima over slots of ``attempts`` values each.

    A running int64 cumsum, carried across chunks, is read at each slot's
    last index and differenced; it wraps like ``np.add.reduceat`` would, so
    the sums are bit-identical.
    """
    ends = attempts.cumsum()
    ends -= 1
    sums = np.empty(len(ends), dtype=np.int64)
    carry = done = lo = 0
    for chunk in pair_maxes:
        cs = chunk.cumsum()
        cs += carry
        hi = ends.searchsorted(done + len(chunk))
        sums[lo:hi] = cs[ends[lo:hi] - done]
        carry, done, lo = cs[-1], done + len(chunk), hi
    sums[1:] -= sums[:-1]  # numpy buffers the overlapping operands
    return sums


def _sample_block(seed: int, block: int, count: int, n: int, p_g: float,
                  p_s: float) -> np.ndarray:
    """Completion times of ``count`` chains of nesting level ``n``.

    Level j >= 1 retries geometric(p_s) times; each attempt waits for the
    max of two level-(j-1) times.  All attempts are drawn top down first,
    then the level-0 draws, which is the order of a depth-first recursion;
    only the level-0 draws, the bulk of the work, are streamed.
    """
    rng = np.random.default_rng([seed, block])
    if n == 0:
        return rng.geometric(p_g, size=count)
    attempts = [rng.geometric(p_s, size=count)]
    for _ in range(n - 1):
        attempts.append(rng.geometric(p_s, size=2 * int(attempts[-1].sum())))
    pairs = int(attempts[-1].sum())
    times = _slot_sums(_pair_max_chunks(rng, p_g, pairs), attempts.pop())
    while attempts:
        times = _slot_sums([np.maximum(times[0::2], times[1::2])],
                           attempts.pop())
    return times


def worker_count() -> int:
    env = os.environ.get("RNPM_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def check_chain_depth(n: int, p_s: float) -> None:
    """Refuse a chain whose 64-trial block is too large to sample.

    One block expects 64 (2/p_s)^(n-1) level-1 links, which bound memory,
    and 64 2^(n-1) / p_s^n level-0 pairs, which bound time.
    """
    # in log2, so that a huge n cannot overflow the float power
    level1_log2 = math.log2(_BLOCK) + (n - 1) * math.log2(2.0 / p_s)
    level0_log2 = math.log2(_BLOCK) + (n - 1) - n * math.log2(p_s)
    if level1_log2 > _MAX_LEVEL1_LOG2 or level0_log2 > _MAX_LEVEL0_LOG2:
        raise ValueError(f"chain too deep to sample: one block of {_BLOCK} "
                         f"trials expects 2^{level1_log2:.1f} level-1 links "
                         f"and 2^{level0_log2:.1f} level-0 pairs, above the "
                         f"limits of 2^{_MAX_LEVEL1_LOG2} and "
                         f"2^{_MAX_LEVEL0_LOG2}")


def simulate_waiting_time(n: int, p_g: float, p_s: float, seed: int,
                          trials: int) -> np.ndarray:
    """Samples of the total completion time of the chain, in units of l0/c.

    Elementary links retry geometrically with success p_g; a connection at
    each level waits for both child pairs, retries with success p_s and
    restarts both children after a failure.  Per-block counter-based seeding
    makes the result independent of the worker count; each worker takes an
    interleaved group of blocks.
    """
    if n < 0:
        raise ValueError("nesting level must be nonnegative")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0.0 < p_g <= 1.0 and 0.0 < p_s <= 1.0):
        raise ValueError("success probabilities must lie in (0, 1]")
    check_chain_depth(n, p_s)
    blocks = [(b, min(_BLOCK, trials - b * _BLOCK))
              for b in range((trials + _BLOCK - 1) // _BLOCK)]
    workers = min(worker_count(), len(blocks))

    def run(group):
        return [_sample_block(seed, b, c, n, p_g, p_s) for b, c in group]

    groups = [blocks[k::workers] for k in range(workers)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, groups))
    else:
        results = [run(blocks)]
    parts = [None] * len(blocks)
    for k, result in enumerate(results):
        parts[k::workers] = result
    return np.concatenate(parts).astype(float)


def waiting_time_stats(samples: np.ndarray) -> tuple[float, float]:
    """(mean, standard error), accumulated in fixed chunked order."""
    chunks = [samples[i:i + _BLOCK].sum() for i in range(0, len(samples), _BLOCK)]
    mean = math.fsum(chunks) / len(samples)
    var = math.fsum((samples - mean) ** 2) / max(len(samples) - 1, 1)
    return mean, math.sqrt(var / len(samples))
