"""Constrained time optimization of the repeater chain."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rnpm.chain import (ChainConfig, GeometryKind, Hardware, chain_closed_form,
                        direct_transmission_time, generation_transmittances)
from rnpm.formulas import (DetectorKind, DetectorModel, InteractionParams,
                           epsilon_rate, performance, success_peak)
from rnpm.optimize import (BETA_SQ_HI, BETA_SQ_LO, N_MAX, OptimumRecord,
                           SweepSpec, optimize_chain, sweep, time_kernel)

HW = Hardware(0.98, DetectorModel(DetectorKind.SINGLE_PHOTON, 0.95))


def brute_force_chain(L_km, F_target, hardware, geometry=GeometryKind.MIDPOINT,
                      n_max=12, grid_size=40):
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


def kernel_point(kind, geometry, n, beta_s_sq, F_target, L_km, tau, eta):
    """(hardware, T, beta_g^2, cap) of the kernel at one (n, beta_s^2)."""
    hw = Hardware(tau, DetectorModel(kind, eta))
    T, bg2 = time_kernel(n, L_km, F_target, hw, geometry)[0](beta_s_sq)
    cap = BETA_SQ_HI
    if kind is DetectorKind.SINGLE_PHOTON:
        cap = min(cap, 1.0 / (2.0 * eta))
    return hw, float(T), float(bg2), cap


#: one kernel input: geometry, n, beta_s^2 in the scan range, F_target,
#: L, tau and eta
KERNEL_POINTS = dict(
    geometry=st.sampled_from(list(GeometryKind)),
    n=st.integers(1, N_MAX),
    beta_s_sq=st.floats(math.log(BETA_SQ_LO), math.log(BETA_SQ_HI)).map(math.exp),
    F_target=st.floats(0.5, 0.999, exclude_min=True),
    L_km=st.floats(1.0, 3000.0), tau=st.floats(0.5, 1.0),
    eta=st.floats(0.01, 1.0))


class TestTimeKernel:
    @pytest.mark.parametrize("kind", list(DetectorKind))
    @settings(max_examples=300, deadline=None)
    @given(**KERNEL_POINTS)
    def test_matches_closed_form(self, kind, geometry, n, beta_s_sq, F_target,
                                 L_km, tau, eta):
        hw, T, bg2, cap = kernel_point(kind, geometry, n, beta_s_sq, F_target,
                                       L_km, tau, eta)
        if not math.isfinite(T):
            return
        res = chain_closed_form(ChainConfig(L_km, n, math.sqrt(bg2),
                                            math.sqrt(beta_s_sq), hw, geometry))
        assert res.T_avg == pytest.approx(T, rel=1e-12, abs=0.0)
        if bg2 < cap:
            # the closed form raises a rounded 1 - 2 eps to the power 2^n,
            # so its F carries up to about 2^n ulp of 1
            assert res.F == pytest.approx(F_target,
                                          abs=1e-12 + 2.0 ** (n - 52))

    @pytest.mark.parametrize("kind", list(DetectorKind))
    @settings(max_examples=300, deadline=None)
    @given(**dict(KERNEL_POINTS, F_target=st.floats(0.51, 0.999)))
    def test_round_trip(self, kind, geometry, n, beta_s_sq, F_target, L_km,
                        tau, eta):
        """``performance`` at the kernel's beta_g^2 and beta_s^2 meets the
        fidelity constraint, compared in the log domain.

        Near F = 1/2 the comparison itself is ill-conditioned: eps -> 1/2,
        and log1p(-2 eps) magnifies the rounding of eps by 1/(1 - 2 eps).
        """
        hw, T, bg2, cap = kernel_point(kind, geometry, n, beta_s_sq, F_target,
                                       L_km, tau, eta)
        if not (math.isfinite(T) and bg2 < cap):
            return
        N = 2 ** n
        T_A, T_B = generation_transmittances(hw, L_km / N, geometry)
        eps0 = performance(hw.detector, InteractionParams(math.sqrt(bg2)),
                           T_A, T_B).epsilon
        eps_s = performance(hw.detector, InteractionParams(math.sqrt(beta_s_sq)),
                            tau, tau).epsilon
        got = N * math.log1p(-2.0 * eps0) + (N - 1) * math.log1p(-2.0 * eps_s)
        assert got == pytest.approx(math.log(2.0 * F_target - 1.0), rel=1e-12)

    @pytest.mark.parametrize("kind", list(DetectorKind))
    @settings(max_examples=200, deadline=None)
    @given(**KERNEL_POINTS)
    def test_slope_never_decreases(self, kind, geometry, n, beta_s_sq,
                                   F_target, L_km, tau, eta):
        """The bisection's premise: g = d ln T / d beta_s^2 is nondecreasing,
        also across the beta_g^2 cap and past the feasibility edge."""
        hw = Hardware(tau, DetectorModel(kind, eta))
        g_of = time_kernel(n, L_km, F_target, hw, geometry)[1]
        x = np.sort(np.append(np.geomspace(BETA_SQ_LO, BETA_SQ_HI, 2001),
                              beta_s_sq))
        g = g_of(x)
        assert not np.isnan(g).any()
        assert (g[1:] >= g[:-1]).all()

    @pytest.mark.parametrize("kind", list(DetectorKind))
    @settings(max_examples=200, deadline=None)
    @given(**KERNEL_POINTS)
    # g x h = 3.4e-3: a plain central difference is off by 4.3e-6 relative
    @example(geometry=GeometryKind.MIDPOINT, n=10,
             beta_s_sq=0.005688814561696852, F_target=0.5000000000000001,
             L_km=1.0, tau=0.6121120364182306, eta=0.150390625)
    def test_slope_matches_finite_difference(self, kind, geometry, n,
                                             beta_s_sq, F_target, L_km, tau,
                                             eta):
        hw = Hardware(tau, DetectorModel(kind, eta))
        T_of, g_of = time_kernel(n, L_km, F_target, hw, geometry)
        h = 1e-6
        x = beta_s_sq * np.array([1.0 - h, 1.0 - h / 2, 1.0, 1.0 + h / 2,
                                  1.0 + h])
        T, bg2 = T_of(x)
        cap = min(BETA_SQ_HI, success_peak(hw.detector))
        if not np.isfinite(T).all() or len(set((bg2 < cap).tolist())) > 1:
            return  # past the edge, or the cap's kink inside the difference
        # central differences at steps h and h/2, Richardson-extrapolated:
        # near the feasibility edge g x h reaches 1e-3, and a plain central
        # difference is then off by (g x h)^2 / 3, above the tolerance
        log_T = np.log(T)
        fd = (4.0 * (log_T[3] - log_T[1]) / (x[3] - x[1])
              - (log_T[4] - log_T[0]) / (x[4] - x[0])) / 3.0
        g = float(g_of(beta_s_sq))
        # both terms of g are at most about n (1/beta_s^2 + 2 eta) + |g|
        assert abs(g - fd) <= 1e-6 * (abs(g) + n * (1.0 / beta_s_sq + 2 * eta))

    @pytest.mark.parametrize("kind", list(DetectorKind))
    def test_unreachable_is_capped(self, kind):
        # lossless arms and a perfect detector: eps0 = 0 at every beta_g, so
        # beta_g^2 goes to its cap (threshold detectors keep c = 1 > 0)
        hw, T, bg2, cap = kernel_point(kind, GeometryKind.ENDPOINT, 0, 0.0,
                                       0.9, 1e-20, 1.0, 1.0)
        assert math.isfinite(T)
        if kind is DetectorKind.THRESHOLD:
            assert bg2 == pytest.approx(-math.log(0.8) / 2.0, rel=1e-15)
        else:
            assert bg2 == cap

    def test_direct_beta_g_matches_mpmath(self):
        """beta_g^2 = -ln(ratio) / (2 c N) to within 1e-15 of 40 digits;
        going through eps = (1 - ratio^(1/N)) / 2 loses ~5e-8 at n = 20."""
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        hw = Hardware(1.0, DetectorModel(DetectorKind.NUMBER_RESOLVING, 0.5))
        l0 = 13.2  # c = 2 / exp(-l0 / 44 km) - 1 = 1.7
        c = epsilon_rate(hw.detector, *generation_transmittances(
            hw, l0, GeometryKind.MIDPOINT))
        assert c == pytest.approx(1.7, rel=1e-2)
        for n in range(1, N_MAX + 1):
            for ratio in (0.3, 0.5, 0.7, 0.9, 0.99, 0.999):
                F = (1.0 + ratio) / 2.0
                # beta_s = 0 leaves ratio = 2 F - 1, exact in floats
                _, bg2 = time_kernel(n, l0 * 2 ** n, F, hw,
                                     GeometryKind.MIDPOINT)[0](0.0)
                want = -mp.log(2 * mp.mpf(F) - 1) / (2 * mp.mpf(c) * 2 ** n)
                assert abs(float(bg2) - want) <= 1e-15 * want, (n, ratio)


class TestOptimizeChain:
    def test_meets_fidelity_target(self):
        rec = optimize_chain(400.0, 0.9, HW)
        assert rec.feasible
        assert rec.F_achieved >= 0.9 - 1e-9

    def test_achieved_matches_closed_form(self):
        rec = optimize_chain(300.0, 0.85, HW)
        cfg = ChainConfig(300.0, rec.n, math.sqrt(rec.beta_g_sq),
                          math.sqrt(rec.beta_s_sq) if rec.n else 0.0, HW)
        assert chain_closed_form(cfg).F == pytest.approx(rec.F_achieved, abs=1e-12)
        assert chain_closed_form(cfg).T_avg == pytest.approx(rec.T_seconds, rel=1e-9)

    def test_infeasible_at_unit_fidelity(self):
        rec = optimize_chain(200.0, 1.0, HW)
        assert not rec.feasible
        assert rec.message

    def test_beats_or_matches_brute_force(self):
        mid, end = GeometryKind.MIDPOINT, GeometryKind.ENDPOINT
        cases = [(200.0, HW, mid), (600.0, HW, mid), (400.0, HW, end)]
        for kind in (DetectorKind.THRESHOLD, DetectorKind.NUMBER_RESOLVING):
            hw = replace(HW, detector=DetectorModel(kind, 0.95))
            cases += [(400.0, hw, mid), (400.0, hw, end)]
        for L, hw, geometry in cases:
            rec = optimize_chain(L, 0.9, hw, geometry)
            assert rec.F_achieved >= 0.9 - 1e-9
            assert rec.T_seconds <= brute_force_chain(L, 0.9, hw, geometry) * 1.01

    @pytest.mark.parametrize("kind", list(DetectorKind))
    def test_blind_detector_is_infeasible(self, kind):
        hw = replace(HW, detector=DetectorModel(kind, 0.0))
        T, _ = time_kernel(np.array([0, 1]), 100.0, 0.9, hw,
                           GeometryKind.MIDPOINT)[0](0.01)
        assert not np.isfinite(T).any()
        assert not optimize_chain(100.0, 0.9, hw).feasible

    def test_extras_report_boundaries(self):
        perfect = Hardware(1.0, DetectorModel(DetectorKind.NUMBER_RESOLVING, 1.0))
        threshold = replace(HW, detector=DetectorModel(DetectorKind.THRESHOLD,
                                                       0.95))
        flags = ("n_at_max", "beta_g_sq_at_hi", "beta_g_sq_at_peak",
                 "beta_s_sq_at_bound")
        cases = [  # (L, F_target, hardware, flags set)
            (5000.0, 0.99, perfect, {"n_at_max", "beta_s_sq_at_bound"}),
            (10.0, 0.51, HW, {"beta_g_sq_at_peak"}),
            (10.0, 0.5, threshold, {"beta_g_sq_at_hi", "beta_s_sq_at_bound"}),
            (600.0, 0.9, HW, set()),
        ]
        for L, F, hw, want in cases:
            rec = optimize_chain(L, F, hw)
            assert {f for f in flags if rec.extras[f]} == want
            assert set(rec.extras) == {"feasible_n", *flags}
            assert rec.n in rec.extras["feasible_n"]

    @pytest.mark.parametrize("kind", list(DetectorKind))
    @settings(max_examples=40, deadline=None)
    @given(geometry=st.sampled_from(list(GeometryKind)),
           F_target=st.floats(0.5, 0.999, exclude_min=True),
           L_km=st.floats(1.0, 3000.0), tau=st.floats(0.5, 1.0),
           eta=st.floats(0.01, 1.0))
    def test_never_above_dense_grid(self, kind, geometry, F_target, L_km,
                                    tau, eta):
        """T is at most the per-n minimum of the kernel on a dense
        ln beta_s^2 grid, and ``feasible_n`` is exactly the n whose
        feasible interval is nonempty."""
        hw = Hardware(tau, DetectorModel(kind, eta))
        rec = optimize_chain(L_km, F_target, hw, geometry)
        ns = np.arange(N_MAX + 1)
        T_of = time_kernel(ns[:, None], L_km, F_target, hw, geometry)[0]
        T_grid = T_of(np.geomspace(BETA_SQ_LO, BETA_SQ_HI, 4001))[0]
        # feasibility ends at an upper edge in beta_s^2, so an n is feasible
        # iff its lower bound is (n = 0 has no swap: beta_s^2 = 0)
        T_low = T_of(np.where(ns == 0, 0.0, BETA_SQ_LO)[:, None])[0][:, 0]
        feasible = rec.extras["feasible_n"]
        assert np.isfinite(T_low[feasible]).all()
        assert np.isinf(T_grid[np.setdiff1d(ns, feasible)]).all()
        assert np.isinf(np.delete(T_low, feasible)).all()
        assert rec.feasible == bool(feasible)
        if rec.feasible:
            assert rec.T_seconds <= T_grid.min() * (1.0 + 1e-12)
            assert rec.F_achieved >= F_target - 1e-9

    @pytest.mark.parametrize("geometry", list(GeometryKind))
    @pytest.mark.parametrize("L_km, F_target", [(50.0, 0.6), (400.0, 0.99),
                                                (1500.0, 0.9)])
    def test_noiseless_swap_sits_at_upper_bound(self, geometry, L_km,
                                                F_target):
        # number-resolving, tau = eta = 1: c_s = 2/tau - 2 eta = 0, so T
        # falls all the way to BETA_SQ_HI
        hw = Hardware(1.0, DetectorModel(DetectorKind.NUMBER_RESOLVING, 1.0))
        rec = optimize_chain(L_km, F_target, hw, geometry)
        assert rec.n > 0
        assert rec.beta_s_sq == BETA_SQ_HI
        assert rec.extras["beta_s_sq_at_bound"] is True

    def test_direct_baseline_filled(self):
        rec = optimize_chain(100.0, 0.9, HW)
        expect = direct_transmission_time(100.0, HW.f_hz,
                                          HW.detector.efficiency, HW.L_att_km)
        assert rec.direct_seconds == pytest.approx(expect, rel=1e-14)

    def test_deterministic(self):
        a = optimize_chain(500.0, 0.9, HW)
        b = optimize_chain(500.0, 0.9, HW)
        assert (a.n, a.beta_g_sq, a.beta_s_sq, a.T_seconds) == \
            (b.n, b.beta_g_sq, b.beta_s_sq, b.T_seconds)

    def test_endpoint_geometry_slower(self):
        mid = optimize_chain(400.0, 0.9, HW, GeometryKind.MIDPOINT)
        end = optimize_chain(400.0, 0.9, HW, GeometryKind.ENDPOINT)
        assert end.T_seconds >= mid.T_seconds


class TestSweep:
    def test_ordering_and_shape(self):
        spec = SweepSpec((100.0, 200.0), (0.9, 0.7), HW)
        recs = sweep(spec)
        assert len(recs) == 4
        assert [r.L_km for r in recs] == [100.0, 100.0, 200.0, 200.0]
        assert [r.F_target for r in recs] == [0.9, 0.7, 0.9, 0.7]

    def test_monotone_in_L(self):
        spec = SweepSpec((100.0, 300.0, 500.0), (0.9,), HW)
        times = [r.T_seconds for r in sweep(spec)]
        assert times == sorted(times)

    def test_detector_override(self):
        spec = SweepSpec((100.0,), (0.9,), HW,
                         detectors=(DetectorKind.SINGLE_PHOTON,
                                    DetectorKind.THRESHOLD))
        recs = sweep(spec)
        assert {r.detector for r in recs} == {DetectorKind.SINGLE_PHOTON,
                                              DetectorKind.THRESHOLD}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec((), (0.9,), HW)
        with pytest.raises(ValueError):
            SweepSpec((200.0, 100.0), (0.9,), HW)
        with pytest.raises(ValueError):
            SweepSpec((100.0,), (), HW)
