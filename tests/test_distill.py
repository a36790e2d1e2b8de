"""Recurrence-method distillation: oracle, gadget assembly, noisy rounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rnpm.distill import (WernerState, recurrence_closed_form,
                          recurrence_oracle, recurrence_step,
                          recurrence_via_gadgets)
from rnpm.formulas import DetectorKind, DetectorModel, InteractionParams, performance
from rnpm.gadgets import PHI_PLUS, fidelity_to

DET = DetectorModel(DetectorKind.SINGLE_PHOTON, 0.95)


def bbpssw_map(F, eps=0.0):
    """Recurrence round on Werner input, closed form: (P_rec, F').

    Each party's probe phase flip becomes a Z on its kept qubit, so the kept
    pair flips phi+ <-> phi- with probability q = 2 eps (1 - eps).
    """
    r, q = (1 - F) / 3, 2 * eps * (1 - eps)
    P = (F + r) ** 2 + 4 * r * r
    return P, ((1 - q) * (F * F + r * r) + 2 * q * F * r) / P


class TestWerner:
    def test_density_properties(self):
        rho = WernerState(0.8).density()
        assert np.trace(rho).real == pytest.approx(1.0)
        assert np.linalg.eigvalsh(rho).min() > 0
        assert fidelity_to(rho, PHI_PLUS) == pytest.approx(0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            WernerState(1.1)


class TestIdealRound:
    @pytest.mark.parametrize("F", [0.5, 0.6, 0.75, 0.85, 0.95, 1.0])
    def test_matches_closed_form_map(self, F):
        P_ref, F_ref = bbpssw_map(F)
        res = recurrence_oracle(F, 0.0)
        assert res.P_s == pytest.approx(P_ref, abs=1e-12)
        assert res.F_prime == pytest.approx(F_ref, abs=1e-12)

    def test_regression_pins(self):
        res = recurrence_oracle(0.85, 0.0)
        assert res.P_s == pytest.approx(0.82, abs=1e-12)
        assert res.F_prime == pytest.approx(0.884146341463, abs=1e-9)

    def test_fixed_points(self):
        assert recurrence_oracle(1.0, 0.0).F_prime == pytest.approx(1.0, abs=1e-12)
        assert recurrence_oracle(0.25, 0.0).F_prime == pytest.approx(0.25, abs=1e-12)

    def test_improvement_interval(self):
        grid = np.linspace(0.5, 1.0, 51)
        gains = [recurrence_oracle(F, 0.0).F_prime > F for F in grid[1:-1]]
        # F' > F on an interval reaching up to 1; not everywhere below
        assert any(gains)
        assert all(recurrence_oracle(F, 0.0).F_prime > F
                   for F in np.linspace(0.75, 0.99, 10))


class TestGadgetEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(F=st.floats(0.5, 1.0), eps=st.floats(0.0, 0.3))
    def test_two_paths_agree(self, F, eps):
        a = recurrence_oracle(F, eps)
        b = recurrence_via_gadgets(F, eps)
        assert a.P_s == pytest.approx(b.P_s, abs=1e-12)
        assert a.F_prime == pytest.approx(b.F_prime, abs=1e-12)


class TestNoisyClosedForm:
    @settings(max_examples=40, deadline=None)
    @given(F=st.floats(0.25, 1.0), eps=st.floats(0.0, 0.5))
    def test_both_paths_match_closed_form(self, F, eps):
        P_ref, F_ref = bbpssw_map(F, eps)
        for res in (recurrence_oracle(F, eps), recurrence_via_gadgets(F, eps)):
            assert res.P_s == pytest.approx(P_ref, abs=1e-12)
            assert res.F_prime == pytest.approx(F_ref, abs=1e-12)


class TestClosedFormAgainstOracles:
    @settings(max_examples=60, deadline=None)
    @given(F=st.floats(0.0, 1.0), eps=st.floats(0.0, 0.5))
    def test_within_1e14_of_both_oracles(self, F, eps):
        res = recurrence_closed_form(F, eps)
        for oracle in (recurrence_oracle(F, eps), recurrence_via_gadgets(F, eps)):
            assert abs(res.P_s - oracle.P_s) <= 1e-14
            assert abs(res.F_prime - oracle.F_prime) <= 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            recurrence_closed_form(1.5, 0.1)


class TestNoisyRound:
    def test_success_factorization(self):
        # P_s = P_rec(F, eps) * p(beta)^2 with both parity measurements local
        F, b2 = 0.85, 0.08
        perf = performance(DET, InteractionParams(math.sqrt(b2)), 0.98, 0.98)
        res = recurrence_step(F, math.sqrt(b2), 0.98, DET)
        rec = recurrence_oracle(F, perf.epsilon)
        assert res.P_s == pytest.approx(rec.P_s * perf.p ** 2, abs=1e-12)
        assert res.F_prime == pytest.approx(rec.F_prime, abs=1e-12)

    def test_noise_reduces_output_fidelity(self):
        clean = recurrence_oracle(0.9, 0.0).F_prime
        noisy = recurrence_oracle(0.9, 0.1).F_prime
        assert noisy < clean

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            recurrence_oracle(0.9, 0.6)

    def test_boundary_F_half(self):
        res = recurrence_step(0.5, 0.2, 0.98, DET)
        assert 0.0 < res.P_s < 1.0
        assert 0.0 <= res.F_prime <= 1.0
