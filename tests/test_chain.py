"""Repeater-chain recursions, closed forms and the waiting-time Monte Carlo."""

import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rnpm import chain
from rnpm.chain import (ChainConfig, GeometryKind, Hardware,
                        binary_entropy, chain_closed_form, chain_iterated,
                        connect_step, direct_transmission_time,
                        expected_max_geometric, generation_perf,
                        generation_step, key_rate, simulate_waiting_time,
                        swap_perf, waiting_time_stats, worker_count)
from rnpm.formulas import DetectorKind, DetectorModel

HW = Hardware(0.98, DetectorModel(DetectorKind.SINGLE_PHOTON, 0.95))


def _reference_level(rng, level, count, p_g, p_s):
    """The recursive sampler: every level materialized, slots via reduceat."""
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if level == 0:
        return rng.geometric(p_g, size=count)
    attempts = rng.geometric(p_s, size=count)
    children = _reference_level(rng, level - 1, int(2 * attempts.sum()),
                                p_g, p_s)
    pair_max = np.maximum(children[0::2], children[1::2])
    starts = np.concatenate(([0], np.cumsum(attempts)[:-1]))
    return np.add.reduceat(pair_max, starts)


def reference_waiting_time(n, p_g, p_s, seed, trials):
    """Reference for `simulate_waiting_time`: one pool task per block."""
    blocks = [(b, min(64, trials - b * 64))
              for b in range((trials + 63) // 64)]

    def sample(bc):
        rng = np.random.default_rng([seed, bc[0]])
        return _reference_level(rng, n, bc[1], p_g, p_s)

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        parts = list(pool.map(sample, blocks))
    return np.concatenate(parts).astype(float)


#: smallest p_s per nesting level that keeps the reference sampler small
P_S_MIN = {0: 0.01, 1: 0.01, 2: 0.05, 3: 0.2, 4: 0.35}


def block_attempts(seed, block, n, p_s, count):
    """One block's attempt counts, top level first, drawn as the sampler
    draws them."""
    rng = np.random.default_rng([seed, block])
    levels = [rng.geometric(p_s, size=count)]
    for _ in range(n - 1):
        levels.append(rng.geometric(p_s, size=2 * int(levels[-1].sum())))
    return levels


def cfg(L=320.0, n=3, bg=0.1, bs=0.3, hw=HW, geom=GeometryKind.MIDPOINT):
    return ChainConfig(L, n, bg, bs, hw, geom)


class TestRecursions:
    def test_closed_form_equals_iteration(self):
        for n in range(0, 13):
            c = cfg(n=n, L=10.0 * 2 ** n)
            a = chain_iterated(c)
            b = chain_closed_form(c)
            assert b.T_avg == pytest.approx(a.T_avg, rel=1e-12)
            assert b.F == pytest.approx(a.F, abs=2.5e-13)
            assert np.allclose(b.eps_levels, a.eps_levels, atol=1e-12)
            assert np.allclose(b.t_levels, a.t_levels, rtol=1e-12)

    def test_n0_hand_case(self):
        c = cfg(n=0, L=40.0)
        p, eps0 = generation_perf(c.beta_g, c.hardware, 40.0, c.geometry)
        res = chain_closed_form(c)
        assert res.T_avg == pytest.approx((40e3 / 2e8) / p, rel=1e-14)
        assert res.F == pytest.approx(1.0 - eps0, abs=1e-15)

    def test_n1_hand_case(self):
        c = cfg(n=1, L=40.0)
        p_g, eps0 = generation_perf(c.beta_g, c.hardware, 20.0, c.geometry)
        p_s, eps_s = swap_perf(c.beta_s, c.hardware)
        res = chain_closed_form(c)
        t0 = (20e3 / 2e8) / p_g
        assert res.T_avg == pytest.approx(1.5 * t0 / p_s, rel=1e-14)
        expected_f = 0.5 * (1.0 + (1.0 - 2 * eps0) ** 2 * (1.0 - 2 * eps_s))
        assert res.F == pytest.approx(expected_f, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 20), eps0=st.floats(0.0, 0.5),
           eps_s=st.floats(0.0, 0.5))
    def test_fidelity_matches_mpmath(self, n, eps0, eps_s):
        # the power form gains about 2^n ulp: 5.5e-11 relative at n <= 20
        with mock.patch.object(chain, "generation_perf",
                               lambda *a: (0.5, eps0)), \
                mock.patch.object(chain, "swap_perf", lambda *a: (0.5, eps_s)):
            got = chain_closed_form(cfg(n=n)).F
        N, one = 2 ** n, mpmath.mpf(1)
        with mpmath.workdps(40):
            want = (one + (one - 2 * mpmath.mpf(eps0)) ** N
                    * (one - 2 * mpmath.mpf(eps_s)) ** (N - 1)) / 2
        assert abs(got - want) <= 4e-16 * want

    @pytest.mark.parametrize("eps0, eps_s", [(0.5, 0.1), (0.1, 0.5),
                                             (0.5, 0.5)])
    def test_fully_mixed_step_gives_half(self, monkeypatch, eps0, eps_s):
        # 1 - 2 eps = 0 has no logarithm; every level above it is fully mixed
        monkeypatch.setattr(chain, "generation_perf", lambda *a: (0.5, eps0))
        monkeypatch.setattr(chain, "swap_perf", lambda *a: (0.5, eps_s))
        res = chain_closed_form(cfg(n=4))
        assert res.F == 0.5
        assert res.eps_levels[1:] == [0.5] * 4

    def test_connect_step_validation(self):
        with pytest.raises(ValueError):
            connect_step(0.7, 1.0, 0.1, HW)

    def test_generation_step_endpoint_vs_midpoint(self):
        # midpoint halves each channel; endpoint pushes all loss to one arm
        mid = generation_perf(0.1, HW, 100.0, GeometryKind.MIDPOINT)
        end = generation_perf(0.1, HW, 100.0, GeometryKind.ENDPOINT)
        assert end[1] > mid[1]

    @settings(max_examples=30, deadline=None)
    @given(eps=st.floats(0.0, 0.49), bs=st.floats(0.01, 0.8))
    def test_connect_step_degrades(self, eps, bs):
        eps2, _ = connect_step(eps, 1.0, bs, HW)
        assert eps2 >= eps - 1e-15
        assert eps2 <= 0.5

    def test_underflowing_swap_is_infeasible(self):
        # beta_s^2 = 900 puts p_s at 0 for a single-photon detector
        c = ChainConfig(200.0, 1, 0.1, 30.0, HW)
        assert swap_perf(30.0, HW)[0] == 0.0
        assert chain_closed_form(c).T_avg == math.inf
        assert chain_iterated(c).T_avg == math.inf
        # p_s > 0 whose square underflows
        with mock.patch.object(chain, "swap_perf", lambda *a: (1e-200, 0.1)):
            assert chain_closed_form(cfg(n=2)).T_avg == math.inf
            assert chain_iterated(cfg(n=2)).T_avg == math.inf

    def test_config_validation(self):
        with pytest.raises(ValueError):
            cfg(n=-1)
        with pytest.raises(ValueError):
            cfg(L=0.0)


class TestScalars:
    def test_binary_entropy(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        with pytest.raises(ValueError):
            binary_entropy(1.5)

    def test_key_rate_sign(self):
        assert key_rate(0.5) == pytest.approx(0.0)
        for f in (0.5 + 1e-6, 0.6, 0.9, 1.0):
            assert key_rate(f) > 0.0 or f == 0.5

    def test_direct_transmission(self):
        t = direct_transmission_time(220.0, 1e10, 0.95, 22.0)
        assert t == pytest.approx(math.exp(10.0) / (1e10 * 0.95), rel=1e-14)
        with pytest.raises(ValueError):
            direct_transmission_time(100.0, 0.0, 0.9, 22.0)

    def test_direct_transmission_zero_efficiency_never_arrives(self):
        assert direct_transmission_time(100.0, 1e10, 0.0, 22.0) == math.inf
        # f_hz * eta underflows to 0: the rate is zero, not a division error
        assert direct_transmission_time(100.0, 1e-300, 1e-300, 22.0) == math.inf

    def test_expected_max_geometric(self):
        assert expected_max_geometric(1.0) == pytest.approx(1.0)
        assert expected_max_geometric(0.5) == pytest.approx(4.0 - 4.0 / 3.0)


class TestMonteCarlo:
    def test_n0_matches_geometric_mean(self):
        samples = simulate_waiting_time(0, 0.05, 1.0, seed=42, trials=100_000)
        mean, se = waiting_time_stats(samples)
        assert abs(mean - 20.0) < 5 * se

    def test_n1_matches_max_geometric(self):
        p = 0.05
        samples = simulate_waiting_time(1, p, 1.0, seed=1, trials=100_000)
        mean, se = waiting_time_stats(samples)
        assert abs(mean - expected_max_geometric(p)) < 5 * se

    def test_full_chain_within_band(self):
        # the 3/2 connection factor is an approximation, so allow +-25%
        for n, p_g, p_s in ((2, 0.2, 0.2), (4, 0.15, 0.1)):
            samples = simulate_waiting_time(n, p_g, p_s, seed=9, trials=400)
            mean, _ = waiting_time_stats(samples)
            predicted = 1.5 ** n / (p_g * p_s ** n)
            assert 0.75 * predicted <= mean <= 1.25 * predicted

    def test_deterministic_across_worker_counts(self):
        # blocks of this chain stream, so the 6-thread run starts a pool
        assert chain.check_chain_depth(3, 0.2) > math.log2(chain._CHUNK)
        env1 = dict(os.environ, RNPM_THREADS="1")
        env2 = dict(os.environ, RNPM_THREADS="6")
        code = ("import hashlib\n"
                "from rnpm.chain import simulate_waiting_time\n"
                "s = simulate_waiting_time(3, 0.3, 0.2, seed=5, trials=1000)\n"
                "print(hashlib.sha256(s.tobytes()).hexdigest())\n")
        r1 = subprocess.run([sys.executable, "-c", code], env=env1,
                            capture_output=True, text=True, check=True)
        r2 = subprocess.run([sys.executable, "-c", code], env=env2,
                            capture_output=True, text=True, check=True)
        assert r1.stdout == r2.stdout

    def test_worker_count_env(self):
        old = os.environ.get("RNPM_THREADS")
        try:
            os.environ["RNPM_THREADS"] = "3"
            assert worker_count() == 3
        finally:
            if old is None:
                os.environ.pop("RNPM_THREADS", None)
            else:
                os.environ["RNPM_THREADS"] = old

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_waiting_time(1, 0.0, 1.0, 0, 10)
        with pytest.raises(ValueError):
            simulate_waiting_time(-1, 0.5, 0.5, 0, 10)
        with pytest.raises(ValueError):
            simulate_waiting_time(1, 0.5, 1.0, 0, 0)

    @pytest.mark.parametrize("n, p_s", [(40, 1.0), (10, 0.2), (5000, 1.0),
                                        (1, 1e-9)])
    def test_too_deep_chain_is_rejected(self, n, p_s):
        # level k would hold 64 * (2/p_s)^(n-k) values: refuse, do not
        # allocate; (1, 1e-9) fits in memory but expects 2^35.9 level-0 pairs
        with pytest.raises(ValueError, match="too deep"):
            simulate_waiting_time(n, 1.0, p_s, 0, 10)

    def test_p_one_is_deterministic_unit(self):
        samples = simulate_waiting_time(0, 1.0, 1.0, seed=0, trials=100)
        assert np.all(samples == 1.0)


class TestSeeding:
    """`block_rngs` against numpy's own ``default_rng([seed, block])``."""

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3,
                                      2 ** 96 + 1, 10 ** 40])
    @pytest.mark.parametrize("blocks", [range(0, 70), range(5000, 5003),
                                        range(2 ** 31 - 2, 2 ** 31 + 2),
                                        range(2 ** 32 - 3, 2 ** 32)])
    def test_states_equal_default_rng(self, seed, blocks):
        # 1 to 5 seed words: from 4 words on, numpy mixes the block's word
        # in after the pool
        got = [rng.bit_generator.state for rng in chain.block_rngs(seed, blocks)]
        assert got == [np.random.default_rng([seed, b]).bit_generator.state
                       for b in blocks]

    def test_refuses_what_numpy_would_seed_otherwise(self):
        # a negative seed is no SeedSequence word; block 2^32 would be two
        # words, and a uint32 block range would wrap it to block 0
        with pytest.raises(ValueError):
            chain.block_rngs(-1, range(1))
        with pytest.raises(ValueError):
            chain.block_rngs(0, range(2 ** 32, 2 ** 32 + 1))

    def test_wide_run_identical_to_reference(self):
        # 3,125 blocks, seeded at once, as the benchmark's n = 1 op draws them
        got = simulate_waiting_time(1, 0.01, 1.0, 987654321, 200_000)
        want = reference_waiting_time(1, 0.01, 1.0, 987654321, 200_000)
        assert got.tobytes() == want.tobytes()


class TestStreamingSampler:
    """The streaming sampler against the recursive reference, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(0, 4),
           p_g=st.one_of(st.floats(1e-3, 1 / 3, exclude_max=True),
                         st.floats(1 / 3, 1.0),
                         st.sampled_from([1e-19, 1 / 3, 1.0])),
           trials=st.sampled_from([1, 63, 64, 65, 200]),
           seed=st.integers(0, 2 ** 32 - 1),
           threads=st.sampled_from(["1", "2", "3", "7"]))
    def test_identical_to_reference(self, data, n, p_g, trials, seed,
                                    threads):
        p_s = data.draw(st.floats(P_S_MIN[n], 1.0), label="p_s")
        with mock.patch.dict(os.environ, RNPM_THREADS=threads):
            got = simulate_waiting_time(n, p_g, p_s, seed, trials)
            want = reference_waiting_time(n, p_g, p_s, seed, trials)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, p_g, p_s", [(1, 0.05, 1.0), (1, 0.5, 0.3),
                                              (2, 0.2, 0.4), (3, 1.0, 0.6),
                                              (3, 0.1, 0.5)])
    def test_slots_straddle_chunk_edges(self, monkeypatch, n, p_g, p_s):
        monkeypatch.setattr(chain, "_CHUNK", 8)
        got = simulate_waiting_time(n, p_g, p_s, 17, 130)
        assert got.tobytes() == \
            reference_waiting_time(n, p_g, p_s, 17, 130).tobytes()

    @pytest.mark.parametrize("chunk", [8, 64, 1024])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("p_g", [0.05, 0.5, 1e-19])
    def test_batches_identical_to_reference(self, monkeypatch, chunk, n, p_g):
        # chunk 8 streams nearly every block in pieces, 64 makes one-block
        # batches and 1024 joins up to 16 blocks per batch, over 3 batches
        monkeypatch.setattr(chain, "_CHUNK", chunk)
        for trials in (1, 64, 65, 64 * 40 + 3):
            want = reference_waiting_time(n, p_g, 0.5, 23, trials).tobytes()
            for threads in ("1", "2", "3"):
                with mock.patch.dict(os.environ, RNPM_THREADS=threads):
                    got = simulate_waiting_time(n, p_g, 0.5, 23, trials)
                assert got.tobytes() == want, (trials, threads)

    @pytest.mark.parametrize("chunk", [2, 8, 64])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_segments_identical_to_reference(self, monkeypatch, chunk, n):
        # every block streams, n = 1 blocks as one segment; below chunk 64 a
        # level-2 slot spans more than chunk level-1 slots, so cuts repeat;
        # the last of 3 blocks holds 5 trials
        p_s, trials = P_S_MIN[n], 2 * 64 + 5
        monkeypatch.setattr(chain, "_CHUNK", chunk)
        levels = block_attempts(31, 2, n, p_s, 5)
        assert levels[-1].sum() > chunk
        if n > 1 and chunk < 64:
            assert 2 * levels[-2].max() > chunk
        want = reference_waiting_time(n, 0.05, p_s, 31, trials).tobytes()
        for threads in ("1", "2", "3"):
            with mock.patch.dict(os.environ, RNPM_THREADS=threads):
                got = simulate_waiting_time(n, 0.05, p_s, 31, trials)
            assert got.tobytes() == want, threads

    def test_clamped_draws(self):
        # p_g = 1e-19 puts most level-0 draws past 2^63, where numpy returns
        # INT64_MAX, and the int64 slot sums wrap
        got = simulate_waiting_time(2, 1e-19, 0.5, 4, 70)
        assert got.tobytes() == \
            reference_waiting_time(2, 1e-19, 0.5, 4, 70).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(p=st.floats(1e-6, 1 / 3, exclude_max=True),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_exponential_pair_max_is_numpy_geometric(self, p, seed):
        # numpy draws geometric(p < 1/3) as ceil(-E / log1p(-p)); the
        # streaming kernel relies on that form and on its draw order
        geo = np.random.default_rng(seed)
        exp = np.random.default_rng(seed)
        g = geo.geometric(p, size=2000)
        e = exp.standard_exponential(2000)
        pm = np.ceil(np.maximum(e[0::2], e[1::2]) / -math.log1p(-p))
        assert np.array_equal(np.maximum(g[0::2], g[1::2]),
                              pm.astype(np.int64))
        assert geo.bit_generator.state == exp.bit_generator.state

    @staticmethod
    def deep_chain_peak_mb(threads):
        """Peak RSS of a fresh process that samples two n = 6 blocks.

        It reads VmHWM, the peak of the process's own address space:
        Linux folds the RSS of the forking test process into ru_maxrss.
        """
        code = ("from rnpm.chain import simulate_waiting_time\n"
                "simulate_waiting_time(6, 0.2, 0.2, 3, 128)\n"
                "print(next(line.split()[1] for line in open("
                "'/proc/self/status') if line.startswith('VmHWM')))\n")
        env = dict(os.environ, RNPM_THREADS=threads)
        r = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True)
        return int(r.stdout) / 1024

    # each block holds its 51 MB of level-1 attempts and O(_CHUNK) working
    # values; holding the whole level-1 layer at once read 253 MB on 1
    # thread and 371 MB on 2
    @pytest.mark.skipif(sys.platform != "linux",
                        reason="reads /proc/self/status")
    def test_deep_chain_peak_memory(self):
        peak_mb = self.deep_chain_peak_mb("1")
        assert peak_mb < 160, f"peak RSS {peak_mb:.0f} MB"

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="reads /proc/self/status")
    def test_deep_chain_peak_memory_two_threads(self):
        peak_mb = self.deep_chain_peak_mb("2")
        assert peak_mb < 260, f"peak RSS {peak_mb:.0f} MB"


def per_block_stats(samples):
    """`waiting_time_stats` as a loop over blocks of 64, its former code."""
    chunks = [samples[i:i + 64].sum() for i in range(0, len(samples), 64)]
    mean = math.fsum(chunks) / len(samples)
    var = math.fsum((samples - mean) ** 2) / max(len(samples) - 1, 1)
    return mean, math.sqrt(var / len(samples))


@pytest.mark.parametrize("size", [1, 63, 64, 65, 200_000])
def test_stats_identical_to_per_block_loop(size):
    rng = np.random.default_rng(size)
    for samples in (rng.geometric(0.01, size).astype(float),
                    rng.standard_exponential(size) * 1e6):
        assert waiting_time_stats(samples) == per_block_stats(samples)
