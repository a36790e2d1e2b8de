"""Constrained time optimization of the repeater chain."""

import math
from dataclasses import replace

import pytest

from rnpm.chain import (ChainConfig, GeometryKind, Hardware, chain_closed_form,
                        direct_transmission_time)
from rnpm.formulas import DetectorKind, DetectorModel
from rnpm.optimize import (OptimumRecord, SweepSpec, _time_for,
                           brute_force_chain, optimize_chain, sweep)

HW = Hardware(0.98, DetectorModel(DetectorKind.SINGLE_PHOTON, 0.95))


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
        for n in (0, 1):
            assert _time_for(n, 100.0, 0.9, hw, GeometryKind.MIDPOINT,
                             0.01) is None

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
