"""Closed-form link statistics against the per-arm parity-sum oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rnpm.formulas import _check_transmittances
from rnpm.formulas import (ORACLE_K_CAP, DetectorKind, DetectorModel,
                           InteractionParams, LinkGeometry, PerfPoint,
                           TruncationError, binomial_pmf, k_max_for,
                           link_transmittance, performance,
                           performance_oracle, poisson_cutoff, poisson_pmf,
                           poisson_sf, success_log_slope, success_peak,
                           success_probability)

ALL_KINDS = list(DetectorKind)


# Closed forms of Q(k, l) and of the chi sums, kept as test references.

def q_infty(k: int, l: int, params: InteractionParams, T_A: float, T_B: float,
            eta: float) -> float:
    """Joint probability of k photons emitted and l counted (number resolving).

    Closed form obtained from the double sum over the per-arm Poisson photon
    numbers and binomial detections; 0^0 = 1 at k = l.
    """
    _check_transmittances(T_A, T_B, eta)
    if l < 0 or l > k:
        return 0.0
    b2 = params.beta ** 2
    pref = math.exp(-(1.0 / T_A + 1.0 / T_B) * b2)
    sig = 2.0 * b2 * eta
    res = ((1.0 - eta * T_A) / T_A + (1.0 - eta * T_B) / T_B) * b2
    # 0^0 convention handled explicitly so beta = 0 or lossless arms work
    t1 = sig ** l if (sig > 0 or l == 0) else 0.0
    t2 = res ** (k - l) if (res > 0 or k == l) else 0.0
    return pref * t1 * t2 / (math.factorial(l) * math.factorial(k - l))


def chi(l: int, sign: int, params: InteractionParams, T_A: float, T_B: float,
        eta: float) -> float:
    """chi_l^(+/-) = sum_k (+/-1)^(k-l) Q(k, l), in closed form."""
    _check_transmittances(T_A, T_B, eta)
    if l < 1:
        raise ValueError("l must be a positive integer")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    b2 = params.beta ** 2
    sig = 2.0 * b2 * eta
    front = (sig ** l) / math.factorial(l) if (sig > 0 or l == 0) else 0.0
    if sign > 0:
        return front * math.exp(-sig)
    # exponent 2 beta^2 eta (1/(eta T_A) + 1/(eta T_B) - 1) = 2 beta^2 (1/T_A + 1/T_B - eta)
    return front * math.exp(-2.0 * b2 * (1.0 / T_A + 1.0 / T_B - eta))


def perf_pair(kind, b2, T_A, T_B, eta):
    det = DetectorModel(kind, eta)
    par = InteractionParams(math.sqrt(b2))
    return performance(det, par, T_A, T_B), performance_oracle(det, par, T_A, T_B)


class TestElementary:
    def test_poisson_pmf_normalizes(self):
        assert abs(sum(poisson_pmf(1.7, k) for k in range(60)) - 1.0) < 1e-12

    def test_poisson_pmf_degenerate(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 3) == 0.0
        assert poisson_pmf(2.0, -1) == 0.0

    def test_binomial_pmf_normalizes(self):
        assert abs(sum(binomial_pmf(0.3, l, 9) for l in range(10)) - 1.0) < 1e-12

    def test_binomial_pmf_edges(self):
        assert binomial_pmf(0.0, 0, 5) == 1.0
        assert binomial_pmf(1.0, 5, 5) == 1.0
        assert binomial_pmf(0.4, 6, 5) == 0.0

    def test_link_transmittance(self):
        g = LinkGeometry(22.0, 0.0, 22.0, 0.9)
        T_A, T_B = link_transmittance(g)
        assert T_A == pytest.approx(0.9 * math.exp(-1.0), rel=1e-15)
        assert T_B == pytest.approx(0.9, rel=1e-15)


class TestQInfty:
    def test_normalization(self):
        par = InteractionParams(0.3)
        total = sum(q_infty(k, l, par, 0.7, 0.5, 0.9)
                    for k in range(80) for l in range(k + 1))
        assert abs(total - 1.0) < 1e-12

    def test_zero_beta_concentrates_at_origin(self):
        par = InteractionParams(0.0)
        assert q_infty(0, 0, par, 0.8, 0.8, 1.0) == pytest.approx(1.0)
        assert q_infty(1, 0, par, 0.8, 0.8, 1.0) == 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_oracle_is_the_per_arm_double_sum(self, kind):
        # Q(k, l) summed term by term over both arms' photon numbers and
        # counts; at K = 24 the Poisson tails of 0.625 and 0.357 are < 1e-30
        par, T_A, T_B, eta, K = InteractionParams(0.5), 0.4, 0.7, 0.8, 24

        def arm(T):
            return [(k, l, binomial_pmf(eta * T, l, k) * poisson_pmf(0.25 / T, k))
                    for k in range(K + 1) for l in range(k + 1)]

        terms = {}
        for ka, la, a in arm(T_A):
            for kb, lb, b in arm(T_B):
                terms.setdefault((ka + kb, la + lb), []).append(a * b)
        Q = {kl: math.fsum(t) for kl, t in terms.items()}
        assert Q[K, 3] == pytest.approx(q_infty(K, 3, par, T_A, T_B, eta),
                                        rel=1e-12)
        # the announced count; an attempt errs when k minus it is odd
        shown = {DetectorKind.NUMBER_RESOLVING: lambda l: l,
                 DetectorKind.SINGLE_PHOTON: lambda l: 1 if l == 1 else 0,
                 DetectorKind.THRESHOLD: lambda l: min(l, 1)}[kind]
        p = math.fsum(q for (k, l), q in Q.items() if shown(l) > 0)
        err = math.fsum(q for (k, l), q in Q.items()
                        if shown(l) > 0 and (k - shown(l)) % 2)
        po = performance_oracle(DetectorModel(kind, eta), par, T_A, T_B)
        assert po.p == pytest.approx(p, rel=1e-14)
        assert po.epsilon == pytest.approx(err / p, rel=1e-14)

    def test_l_greater_than_k_vanishes(self):
        par = InteractionParams(0.2)
        assert q_infty(1, 2, par, 0.9, 0.9, 0.9) == 0.0

    def test_chi_matches_signed_sums(self):
        par = InteractionParams(0.25)
        T_A, T_B, eta = 0.6, 0.8, 0.85
        for l in (1, 2, 3):
            plus = sum(q_infty(k, l, par, T_A, T_B, eta) for k in range(l, 90))
            minus = sum((-1) ** (k - l) * q_infty(k, l, par, T_A, T_B, eta)
                        for k in range(l, 90))
            assert chi(l, +1, par, T_A, T_B, eta) == pytest.approx(plus, abs=1e-13)
            assert chi(l, -1, par, T_A, T_B, eta) == pytest.approx(minus, abs=1e-13)


class TestClosedForms:
    def test_nr_threshold_share_p(self):
        par = InteractionParams(0.3)
        nr = performance(DetectorModel(DetectorKind.NUMBER_RESOLVING, 0.9), par, 0.7, 0.7)
        th = performance(DetectorModel(DetectorKind.THRESHOLD, 0.9), par, 0.7, 0.7)
        assert nr.p == th.p

    def test_p_independent_of_transmittance(self):
        # p depends on beta and eta only; the channels shape epsilon
        par = InteractionParams(0.3)
        det = DetectorModel(DetectorKind.NUMBER_RESOLVING, 0.9)
        assert performance(det, par, 0.9, 0.9).p == performance(det, par, 0.3, 0.5).p

    def test_threshold_epsilon_dominates_nr(self):
        par = InteractionParams(0.3)
        nr = performance(DetectorModel(DetectorKind.NUMBER_RESOLVING, 0.9), par, 0.7, 0.7)
        th = performance(DetectorModel(DetectorKind.THRESHOLD, 0.9), par, 0.7, 0.7)
        assert th.epsilon > nr.epsilon

    def test_lossless_nr_is_error_free(self):
        par = InteractionParams(0.3)
        det = DetectorModel(DetectorKind.NUMBER_RESOLVING, 1.0)
        pt = performance(det, par, 1.0, 1.0)
        assert pt.epsilon == pytest.approx(0.0, abs=1e-15)
        assert pt.p == pytest.approx(1.0 - math.exp(-2 * 0.09), rel=1e-12)

    def test_single_photon_p_peaks_at_half_inverse_eta(self):
        eta = 0.8
        det = DetectorModel(DetectorKind.SINGLE_PHOTON, eta)
        peak = 1.0 / (2.0 * eta)
        p_at = lambda b2: performance(det, InteractionParams(math.sqrt(b2)),
                                      0.9, 0.9).p
        assert p_at(peak) > p_at(peak * 0.8)
        assert p_at(peak) > p_at(peak * 1.2)
        assert success_peak(det) == peak


def performance_libm(kind: DetectorKind, eta: float, beta: float, T_A: float,
                     T_B: float) -> tuple[float, float]:
    """(p, epsilon) as the closed forms read on math's libm calls."""
    b2 = beta ** 2
    c = 1.0 / T_A + 1.0 / T_B - (eta if kind is DetectorKind.THRESHOLD
                                 else 2.0 * eta)
    eps = -0.5 * math.expm1(-2.0 * b2 * c)
    if kind is DetectorKind.SINGLE_PHOTON:
        return 2.0 * b2 * eta * math.exp(-2.0 * b2 * eta), eps
    return -math.expm1(-2.0 * b2 * eta), eps


class TestSuccessProbability:
    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(ALL_KINDS), b2=st.floats(0.0, 10.0),
           eta=st.floats(0.0, 1.0), T_A=st.floats(1e-4, 1.0),
           T_B=st.floats(1e-4, 1.0))
    def test_performance_matches_libm_forms(self, kind, b2, eta, T_A, T_B):
        # numpy's exp and expm1 may differ from libm's in the last 2 ulp
        beta = math.sqrt(b2)
        p, eps = performance_libm(kind, eta, beta, T_A, T_B)
        pt = performance(DetectorModel(kind, eta), InteractionParams(beta),
                         T_A, T_B)
        assert pt.epsilon == eps
        assert abs(pt.p - p) <= 2 * math.ulp(p)

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(ALL_KINDS), eta=st.floats(0.0, 1.0),
           b2s=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40))
    def test_array_call_matches_scalar_calls(self, kind, eta, b2s):
        p = success_probability(kind, eta, np.array(b2s))
        assert p.tolist() == [float(success_probability(kind, eta, b2))
                              for b2 in b2s]

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(ALL_KINDS), eta=st.floats(0.01, 1.0),
           b2=st.floats(math.log(1e-9), math.log(10.0)).map(math.exp))
    def test_log_slope_matches_mpmath(self, kind, eta, b2):
        """d ln p / d beta^2, against mpmath's numerical derivative at 40
        digits; 1/beta^2 - 2 eta cancels near the single-photon peak, so
        that law is compared relative to its larger term 1/beta^2."""
        mp = pytest.importorskip("mpmath")
        single = kind is DetectorKind.SINGLE_PHOTON

        def log_p(b):
            x = 2 * b * mp.mpf(eta)
            return mp.log(x * mp.exp(-x) if single else -mp.expm1(-x))

        with mp.workdps(40):
            ref = float(mp.diff(log_p, mp.mpf(b2)))
        scale = 1.0 / b2 if single else abs(ref)
        assert abs(success_log_slope(kind, eta, b2) - ref) <= 1e-12 * scale

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(ALL_KINDS), eta=st.floats(0.01, 1.0),
           b2s=st.lists(st.floats(1e-9, 10.0), min_size=2, max_size=40))
    def test_log_slope_never_increases(self, kind, eta, b2s):
        slope = success_log_slope(kind, eta, np.sort(b2s))
        assert (np.diff(slope) <= 0.0).all()


class TestOracleAgreement:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_spot_values(self, kind):
        pf, po = perf_pair(kind, 0.04, 0.62, 0.62, 0.95)
        assert po.p == pytest.approx(pf.p, abs=1e-10)
        assert po.epsilon == pytest.approx(pf.epsilon, abs=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_asymmetric_lossy(self, kind):
        pf, po = perf_pair(kind, 0.3, 0.15, 0.8, 0.7)
        assert po.p == pytest.approx(pf.p, abs=1e-9)
        assert po.epsilon == pytest.approx(pf.epsilon, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(ALL_KINDS),
        b2=st.floats(1e-4, 0.5),
        T_A=st.floats(0.05, 1.0),
        T_B=st.floats(0.05, 1.0),
        eta=st.floats(0.5, 1.0),
    )
    def test_property_agreement(self, kind, b2, T_A, T_B, eta):
        pf, po = perf_pair(kind, b2, T_A, T_B, eta)
        assert abs(po.p - pf.p) < 1e-9
        assert abs(po.epsilon - pf.epsilon) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(ALL_KINDS),
        b2=st.floats(1e-4, 0.5),
        T=st.floats(0.05, 1.0),
        eta=st.floats(0.5, 1.0),
    )
    def test_ranges(self, kind, b2, T, eta):
        pf = performance(DetectorModel(kind, eta), InteractionParams(math.sqrt(b2)), T, T)
        assert 0.0 <= pf.p <= 1.0
        assert 0.0 <= pf.epsilon <= 0.5

    def test_truncation_error_raised(self):
        # an arm mean of 1650 fits K <= ORACLE_K_CAP at tail 1e-16; 1700
        # does not, nor do means past the cap, inf or nan
        det = DetectorModel(DetectorKind.NUMBER_RESOLVING, 0.9)
        assert k_max_for(1650.0, 1e-16) < ORACLE_K_CAP
        performance_oracle(det, InteractionParams(math.sqrt(1650.0)), 1.0, 1.0)
        for b2 in (1700.0, 1.5 * ORACLE_K_CAP, 1e300, math.inf, math.nan):
            with pytest.raises(TruncationError, match="arm A: .* k_max > 2000"):
                performance_oracle(det, InteractionParams(math.sqrt(b2)), 1.0, 0.5)

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(ALL_KINDS),
           b2=st.floats(math.log(1e-12), math.log(2e3)).map(math.exp),
           T_A=st.floats(math.log(1e-6), 0.0).map(math.exp),
           T_B=st.floats(math.log(1e-6), 0.0).map(math.exp),
           eta=st.floats(0.0, 1.0))
    def test_matches_closed_form_wherever_it_runs(self, kind, b2, T_A, T_B,
                                                  eta):
        par, det = InteractionParams(math.sqrt(b2)), DetectorModel(kind, eta)
        try:
            po = performance_oracle(det, par, T_A, T_B)
        except TruncationError:
            assert max(par.beta ** 2 / T_A, par.beta ** 2 / T_B) > 1600
            return
        pf = performance(det, par, T_A, T_B)
        # below normal range the terms lose their relative precision; p = 0
        # leaves epsilon undefined, and the oracle reports 0
        if pf.p > 1e-290:
            assert abs(po.p - pf.p) <= 1e-13 * pf.p
            # the closed form's rate 1/T_A + 1/T_B - 2 eta cancels where
            # eta T is near 1 (test_matches_mpmath holds the oracle there)
            rounding = 1e-15 * par.beta ** 2 * (1 / T_A + 1 / T_B + 2 * eta)
            assert abs(po.epsilon - pf.epsilon) <= 1e-13 * pf.epsilon + rounding

    @pytest.mark.parametrize("eta", [0.1, 0.3, 0.45])
    def test_large_arm_mean_keeps_its_mass(self, eta):
        # q + fl(1 - q) = 1 + d for q = eta T: over ~2,000 Pascal rows an
        # uncorrected d would move p by about 1e-13
        det = DetectorModel(DetectorKind.NUMBER_RESOLVING, eta)
        par = InteractionParams(math.sqrt(800.0))
        assert performance_oracle(det, par, 0.5, 1.0).p == pytest.approx(
            performance(det, par, 0.5, 1.0).p, rel=1e-14, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(ALL_KINDS),
           b2=st.floats(math.log(1e-7), math.log(0.1)).map(math.exp),
           T_A=st.floats(0.01, 1.0), T_B=st.floats(0.01, 1.0),
           eta=st.floats(0.05, 1.0))
    # eta T near 1, where 1 - eta T must not be formed from the rounded product
    @example(kind=DetectorKind.NUMBER_RESOLVING, b2=math.exp(-3.0), T_A=1.0,
             T_B=0.998046875, eta=0.99999)
    @example(kind=DetectorKind.NUMBER_RESOLVING, b2=0.04, T_A=1.0,
             T_B=1.0 - 3e-9, eta=1.0 - 1e-9)
    def test_matches_mpmath(self, kind, b2, T_A, T_B, eta):
        """p and epsilon of the photon model at 40 digits, where the closed
        forms are exact."""
        mp = pytest.importorskip("mpmath")
        beta = math.sqrt(b2)
        po = performance_oracle(DetectorModel(kind, eta), InteractionParams(beta),
                                T_A, T_B)
        with mp.workdps(40):
            b2, T_A, T_B, eta = mp.mpf(beta) ** 2, mp.mpf(T_A), mp.mpf(T_B), mp.mpf(eta)
            x = 2 * b2 * eta
            p = x * mp.exp(-x) if kind is DetectorKind.SINGLE_PHOTON else -mp.expm1(-x)
            c = 1 / T_A + 1 / T_B - (eta if kind is DetectorKind.THRESHOLD else 2 * eta)
            eps = -mp.expm1(-2 * b2 * c) / 2
            assert abs(po.p - p) <= 1e-14 * p
            assert abs(po.epsilon - eps) <= 1e-14 * eps

    def test_k_max_for_grows_with_lambda(self):
        assert k_max_for(0.01) <= k_max_for(1.0) <= k_max_for(10.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_efficiency_oracle_is_exactly_zero(self, kind):
        # nothing is ever counted, so no roundoff may leak into l >= 1
        for b2, T_A, T_B in ((0.04, 1.0, 1.0), (0.3, 0.15, 0.8)):
            po = perf_pair(kind, b2, T_A, T_B, 0.0)[1]
            assert po.p == 0.0
            assert po.epsilon == 0.0


class TestPoissonTail:
    def test_edges(self):
        assert poisson_sf(0, 0.0) == 0.0
        assert poisson_sf(5, 0.0) == 0.0
        assert poisson_sf(-1, 3.0) == 1.0
        assert poisson_sf(-1, 0.0) == 1.0
        assert poisson_sf(0, 1e-10) == pytest.approx(1e-10, rel=1e-9)
        with pytest.raises(ValueError):
            poisson_sf(3, -1.0)

    def test_huge_lambda_returns_at_once(self):
        assert poisson_sf(10, 1e6) == 1.0
        assert 0.49 < poisson_sf(10 ** 6, 1e6) < 0.5
        assert k_max_for(1e6) == 10 ** 6
        assert poisson_cutoff(1e6, 1e-12, 0, cap=50) == 50

    @pytest.mark.parametrize("lam", [1e16, 1e18, 1e300])
    def test_k_far_below_lambda_underflows_to_zero(self, lam):
        # at lam >= 1e18, (k - lam)/lam rounds to -1 for k = 16; the pmf
        # underflows there, and all the mass lies above k
        for k in (15, 16, 17, 1000):
            assert poisson_pmf(lam, k) == 0.0
        assert poisson_sf(16, lam) == 1.0
        assert poisson_cutoff(lam, 1e-12, 16, 20) == 20

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(0, 700), lam=st.floats(0.0, 500.0))
    def test_matches_scipy(self, k, lam):
        stats = pytest.importorskip("scipy.stats")
        ref = stats.poisson.sf(k, lam)
        if ref > 1e-290:
            # scipy's own sf is off by up to 1.5e-12 relative for k >~ 480
            # and sf < 1e-30 (checked against mpmath); see test_matches_mpmath
            assert poisson_sf(k, lam) == pytest.approx(ref, rel=2e-12)

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(0, 700), lam=st.floats(0.0, 500.0))
    def test_matches_mpmath(self, k, lam):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            ref = float(mp.gammainc(k + 1, 0, lam, regularized=True)) \
                if lam > 0 else 0.0
        if ref > 1e-290:
            assert poisson_sf(k, lam) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("tail,cap", [(1e-12, 200), (1e-16, 200),
                                          (1e-16, 10_000)])
    def test_k_max_for_matches_scipy_cutoff(self, tail, cap):
        stats = pytest.importorskip("scipy.stats")
        for lam in np.geomspace(1e-3, 400.0, 41):
            k = max(1, int(lam))
            while k < cap and stats.poisson.sf(k, lam) > tail:
                k += 1
            assert k_max_for(lam, tail, cap) == k


class TestValidation:
    def test_bad_efficiency(self):
        with pytest.raises(ValueError):
            DetectorModel(DetectorKind.THRESHOLD, 1.2)

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            InteractionParams(-0.1)

    def test_alpha_theta_consistency(self):
        with pytest.raises(ValueError):
            InteractionParams(0.3, alpha=0.3, theta=1.0)
        par = InteractionParams(0.3 * math.sin(0.5), alpha=0.3, theta=1.0)
        assert par.resolved() == (0.3, 1.0)

    def test_resolved_defaults_to_pi(self):
        alpha, theta = InteractionParams(0.2).resolved()
        assert alpha == 0.2 and theta == math.pi

    def test_bad_transmittance(self):
        det = DetectorModel(DetectorKind.THRESHOLD, 0.9)
        with pytest.raises(ValueError):
            performance(det, InteractionParams(0.1), 0.0, 0.5)

    def test_bad_geometry(self):
        with pytest.raises(ValueError):
            LinkGeometry(-1.0, 0.0, 22.0)
        with pytest.raises(ValueError):
            LinkGeometry(1.0, 0.0, 22.0, tau=0.0)
