"""Nested repeater chain built from the remote parity measurement.

Entanglement is generated over elementary links of length l0 = L / 2^n and
connected by local Bell measurements at the middle stations.  The phase
error and the average waiting time obey simple recursions; this module holds
the recursions, their closed forms, the secret-key rate, the direct
transmission baseline and a discrete-event Monte Carlo of the waiting time.
"""

from __future__ import annotations

import itertools
import math
import os
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
    t_next = 1.5 * t_j / p_s if p_s > 0.0 else math.inf  # infeasible
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
    try:
        return t0 * 1.5 ** n / p_s ** n
    except ZeroDivisionError:  # a scalar p_s^n of 0, or one that underflows
        return math.inf  # the chain is infeasible


def chain_closed_form(config: ChainConfig) -> ChainResult:
    """Closed-form total time and final fidelity of the nested chain."""
    eps0, t0 = generation_step(config)
    p_s, eps_s = swap_perf(config.beta_s, config.hardware)
    levels = range(config.n + 1)
    # 2F - 1 = (1 - 2 eps0)^N (1 - 2 eps_s)^(N - 1) at level j, N = 2^j; from
    # j = 2 on in log form, as the powers of rounded factors gain about N ulp
    logs = [math.log1p(-2.0 * e) if e < 0.5 else -math.inf
            for e in (eps0, eps_s)]
    two_f = [(1.0 - 2.0 * eps0) ** 2 ** j * (1.0 - 2.0 * eps_s) ** (2 ** j - 1)
             if j < 2 else math.exp(2 ** j * logs[0] + (2 ** j - 1) * logs[1])
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
#: level-0 pairs handled at once: one batch of whole blocks, or one piece of a
#: larger block's stream. On 2 vCPU, 2^12 ran deep chains about 30% slower,
#: and 2^16 raised the peak RSS of a 200k-trial n = 1 run by about 4 MB
_CHUNK = 1 << 14
#: log2 of the cap on one block's expected level-1 count: 2^26 is about 10x
#: the n=6, p_s=0.2 chain, and the level-1 attempt counts, 8 bytes each, are
#: what fills memory; the other level-1 values live one segment at a time
_MAX_LEVEL1_LOG2 = 26
#: log2 of the cap on one block's expected level-0 pair count, which sets
#: the run time: the n=6, p_s=0.2 chain expects 2^24.9
_MAX_LEVEL0_LOG2 = 28
#: numpy draws geometric(p) by inversion below this p and by search above it
_GEOMETRIC_SEARCH_P = 1.0 / 3.0
_INT64_MAX = np.iinfo(np.int64).max
_INT64_LIMIT = 2.0 ** 63  # numpy's inversion returns INT64_MAX from here up


def _draw(rng: np.random.Generator, p: float, size: int) -> np.ndarray:
    """``size`` level-0 draws: geometric(p) values or, below
    ``_GEOMETRIC_SEARCH_P``, the exponentials that numpy's geometric inverts."""
    if p >= _GEOMETRIC_SEARCH_P:
        return rng.geometric(p, size=size)
    return rng.standard_exponential(size)


def _geometric(x: np.ndarray, p: float) -> np.ndarray:
    """geometric(p) values from `_draw` values, bit for bit as ``rng.geometric``.

    Below ``_GEOMETRIC_SEARCH_P`` numpy's geometric is
    ``ceil(-standard_exponential() / log1p(-p))``, clamped to INT64_MAX.
    Division by a positive constant and ceil are monotone, so a max of
    draws may be taken first, which halves the divisions.
    """
    if p >= _GEOMETRIC_SEARCH_P:
        return x
    z = np.ceil(x / -math.log1p(-p))
    if z.max() < _INT64_LIMIT:
        return z.astype(np.int64)
    big = z >= _INT64_LIMIT
    z[big] = 0.0
    g = z.astype(np.int64)
    g[big] = _INT64_MAX
    return g


def _pair_max(x: np.ndarray) -> np.ndarray:
    return np.maximum(x[0::2], x[1::2])


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


def _upper_levels(times: np.ndarray, attempts: list) -> np.ndarray:
    """Completion times of each level above ``times``, up to the top."""
    while attempts:
        times = _slot_sums([_pair_max(times)], attempts.pop())
    return times


def _batch_times(batch: list, n: int, p_g: float) -> np.ndarray:
    """Completion times of a batch of blocks' ``(attempts, draws)``, joined
    level by level; a lone block is not copied.  Each level below the top
    has an even length per block, so no pair or slot straddles two blocks."""
    def cat(arrays):
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    attempts, draws = zip(*batch)
    batch.clear()
    attempts, draws = [cat(level) for level in zip(*attempts)], cat(draws)
    if n == 0:
        return _geometric(draws, p_g)
    return _upper_levels(_slot_sums([_geometric(_pair_max(draws), p_g)],
                                    attempts.pop()), attempts)


def _streamed_times(rng: np.random.Generator, attempts: list,
                    p_g: float) -> np.ndarray:
    """Completion times of one block that streams its level-0 draws in
    pieces of ``_CHUNK`` pairs.  Its level-1 slots run in segments of about
    ``_CHUNK`` that end on level-2 slot boundaries, so one segment's level-1
    times live at once; a block with no level 2 is one segment."""
    def level1_times(level1):
        pairs = int(level1.sum())
        return _slot_sums((_geometric(_pair_max(_draw(
            rng, p_g, 2 * min(_CHUNK, pairs - i))), p_g)
            for i in range(0, pairs, _CHUNK)), level1)

    level1 = attempts.pop()
    if not attempts:
        return level1_times(level1)
    level2 = attempts.pop()
    # level-2 slot j spans level-1 slots ends[j]:ends[j + 1]; a slot wider
    # than _CHUNK repeats a cut, which np.unique drops
    ends = np.concatenate(([0], 2 * level2.cumsum()))
    cuts = np.unique(np.append(ends.searchsorted(
        np.arange(0, ends[-1], _CHUNK), "right") - 1, len(level2)))
    return _upper_levels(np.concatenate([
        _slot_sums([_pair_max(level1_times(level1[ends[a]:ends[b]]))],
                   level2[a:b])
        for a, b in itertools.pairwise(cuts.tolist())]), attempts)


def _hasher(key: int, mult: int):
    """NumPy's SeedSequence hashmix on uint32 arrays; its hash constant starts
    at ``key`` and is multiplied by ``mult`` in each call."""
    def hashmix(value):
        nonlocal key
        value = value ^ key
        key = key * mult & 0xFFFFFFFF
        value = value * key
        return value ^ value >> 16
    return hashmix


def block_rngs(seed: int, blocks: range):
    """One ``Generator(PCG64(SeedSequence([seed, block])))`` per block:
    NumPy's SeedSequence (NEP 19, pool size 4) runs over all blocks at once,
    on the seed's 32-bit words, low first, then the block's."""
    if seed < 0 or blocks and not 0 <= blocks[0] <= blocks[-1] < 1 << 32:
        raise ValueError(f"need seed >= 0, blocks in [0, 2^32): {seed}, {blocks}")
    entropy = [np.full(len(blocks), seed >> s & 0xFFFFFFFF, np.uint32)
               for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.arange(blocks.start, blocks.stop, dtype=np.uint32))
    entropy += [np.zeros_like(entropy[0])] * (4 - len(entropy))
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in entropy[:4]]
    # each pool word into every other, then each later entropy word into all
    for src, dst in itertools.chain(itertools.permutations(range(4), 2),
                                    itertools.product(range(4, len(entropy)),
                                                      range(4))):
        mixed = pool[dst] * 0xCA01F9DD - hashmix(
            (pool if src < 4 else entropy)[src]) * 0x4973F715
        pool[dst] = mixed ^ mixed >> 16
    out = _hasher(0x8B51F9DD, 0x58F38DED)
    rows = np.stack([out(pool[i % 4]) for i in range(8)], axis=1,
                    dtype="<u4").view("<u8").astype(np.uint64, copy=False)

    # defined here: a module-level subclass would load numpy.random on import
    class Row(np.random.bit_generator.ISeedSequence):
        def __init__(self, row):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            return self.row

    return (np.random.Generator(np.random.PCG64(Row(row))) for row in rows)


def _sample_blocks(seed: int, blocks: range, trials: int, n: int,
                   p_g: float, p_s: float) -> list:
    """Completion times of consecutive blocks, as one array per batch.

    One `block_rngs` call seeds them.  Level j >= 1 retries geometric(p_s)
    times; each attempt waits for the max of two level-(j-1) times.  A block
    draws all its attempts top down, then its level-0 draws, as a depth-first
    recursion would.  Runs of blocks with at most ``_CHUNK`` level-0 pairs in
    all form one batch, and everything after the draws runs once per batch.
    A block with more pairs is a batch of its own and streams its draws.
    """
    parts, batch, pairs = [], [], 0
    for block, rng in zip(blocks, block_rngs(seed, blocks)):
        count = min(_BLOCK, trials - block * _BLOCK)
        attempts = [rng.geometric(p_s, size=count)] if n else []
        for _ in range(n - 1):
            attempts.append(rng.geometric(p_s, size=2 * int(attempts[-1].sum())))
        size = int(attempts[-1].sum()) if n else count
        if batch and pairs + size > _CHUNK:
            parts.append(_batch_times(batch, n, p_g))
            pairs = 0
        if n and size > _CHUNK:
            parts.append(_streamed_times(rng, attempts, p_g))
        else:
            batch.append((attempts, _draw(rng, p_g, 2 * size if n else count)))
            pairs += size
    if batch:
        parts.append(_batch_times(batch, n, p_g))
    return parts


def worker_count() -> int:
    env = os.environ.get("RNPM_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        count = int(env)
    except ValueError:
        count = 0
    if count < 1:
        raise ValueError(f"RNPM_THREADS must be an integer >= 1, got {env!r}")
    return count


def check_chain_depth(n: int, p_s: float) -> float:
    """Refuse a chain whose 64-trial block is too large to sample; return
    log2 of the level-0 pairs one block expects.

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
    return level0_log2


def simulate_waiting_time(n: int, p_g: float, p_s: float, seed: int,
                          trials: int) -> np.ndarray:
    """Samples of the total completion time of the chain, in units of l0/c.

    Elementary links retry geometrically with success p_g; a connection at
    each level waits for both child pairs, retries with success p_s and
    restarts both children after a failure.  Block b draws from its own
    generator, seeded by ``[seed, b]`` (see `block_rngs`), so the result is
    independent of the worker count.  Runs of blocks go to the workers only
    when a block expects more than ``_CHUNK`` level-0 pairs.
    """
    if n < 0:
        raise ValueError("nesting level must be nonnegative")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (0.0 < p_g <= 1.0 and 0.0 < p_s <= 1.0):
        raise ValueError("success probabilities must lie in (0, 1]")
    blocks = (trials + _BLOCK - 1) // _BLOCK
    # threads pay only when blocks stream their draws, which release the
    # GIL; batched small blocks spend their time in small draws, which hold it
    streamed = check_chain_depth(n, p_s) > math.log2(_CHUNK)
    workers = min(worker_count(), blocks if streamed else 1)

    def run(k):
        return _sample_blocks(seed, range(blocks * k // workers,
                                          blocks * (k + 1) // workers),
                              trials, n, p_g, p_s)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = [p for group in pool.map(run, range(workers)) for p in group]
    else:
        parts = run(0)
    return np.concatenate(parts).astype(float)


def waiting_time_stats(samples: np.ndarray) -> tuple[float, float]:
    """(mean, standard error), accumulated in fixed chunked order: the sum
    of each run of ``_BLOCK`` samples, then exactly rounded sums."""
    whole = len(samples) - len(samples) % _BLOCK
    chunks = samples[:whole].reshape(-1, _BLOCK).sum(axis=1).tolist()
    chunks.append(samples[whole:].sum())
    mean = math.fsum(chunks) / len(samples)
    squares = itertools.chain.from_iterable(
        ((samples[i:i + _CHUNK] - mean) ** 2).tolist()
        for i in range(0, len(samples), _CHUNK))
    var = math.fsum(squares) / max(len(samples) - 1, 1)
    return mean, math.sqrt(var / len(samples))
