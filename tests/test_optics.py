"""Coherent-branch protocol engine against the truncated-Fock oracle."""

import cmath
import math
import warnings

import numpy as np
import pytest

from rnpm.formulas import (DetectorKind, DetectorModel, InteractionParams,
                           LinkGeometry, link_transmittance, performance)
from rnpm.optics import (PHI_PLUS, PSI_PLUS, ProtocolConfig, Variant,
                         coherent_overlap, ensemble_performance, fock_oracle,
                         outcome_parity, phase_error_split, povm_overlap,
                         run_protocol)

ALL_KINDS = list(DetectorKind)

LOSSLESS = LinkGeometry(0.0, 0.0, 22.0, 1.0)
LOSSY = LinkGeometry(8.0, 15.0, 22.0, 0.93)


def config(kind, beta=0.2, geometry=LOSSY, eta=0.9, variant=None, **kw):
    det = DetectorModel(kind, eta)
    par = kw.pop("params", InteractionParams(beta))
    variant = variant or Variant.CENTRAL_DISPLACEMENT
    return ProtocolConfig(par, geometry, det, variant, **kw)


def compare_ensembles(e1, e2, tol, prob_floor=1e-9):
    keys = set(e1.entries) & set(e2.entries)
    assert keys, "no common outcomes"
    for key in keys:
        a, b = e1.entries[key], e2.entries[key]
        assert abs(a.probability - b.probability) < tol
        # conditional states are only meaningful above a probability floor;
        # below it compare the probability-weighted (unnormalized) states
        if a.state is None or b.state is None:
            continue
        if min(a.probability, b.probability) > prob_floor:
            assert np.max(np.abs(a.state - b.state)) < tol
        else:
            assert np.max(np.abs(a.probability * a.state
                                 - b.probability * b.state)) < tol


class TestPovmOverlap:
    def test_vacuum_never_clicks(self):
        for kind in ALL_KINDS:
            det = DetectorModel(kind, 0.8)
            assert povm_overlap(det, 0, 0j, 0j) == pytest.approx(1.0)

    def test_nr_outcomes_complete(self):
        det = DetectorModel(DetectorKind.NUMBER_RESOLVING, 1.0)
        g = 1j * 0.3 * math.sqrt(2.0)
        total = sum(povm_overlap(det, m, g, g).real for m in range(40))
        assert total == pytest.approx(1.0, abs=1e-13)
        click = sum(povm_overlap(det, m, g, g).real for m in range(1, 40))
        assert click == pytest.approx(1.0 - math.exp(-2 * 0.09), abs=1e-12)

    def test_threshold_complement(self):
        det = DetectorModel(DetectorKind.THRESHOLD, 0.7)
        g, gp = 0.4 + 0.2j, 0.1 - 0.3j
        s = povm_overlap(det, 0, g, gp) + povm_overlap(det, 1, g, gp)
        assert s == pytest.approx(coherent_overlap(g, gp), abs=1e-14)

    def test_single_photon_complement(self):
        det = DetectorModel(DetectorKind.SINGLE_PHOTON, 0.7)
        g, gp = 0.4 + 0.2j, 0.1 - 0.3j
        s = povm_overlap(det, 0, g, gp) + povm_overlap(det, 1, g, gp)
        assert s == pytest.approx(coherent_overlap(g, gp), abs=1e-14)

    @pytest.mark.parametrize("g, gp", [(0.4 + 0.2j, 0.1 - 0.3j),
                                       (1.3 - 0.7j, 0.9 + 1.1j)])
    def test_resolved_outcome_closed_forms(self, g, gp):
        """No click of a threshold detector, <g|g'> e^{-eta g* g'}, and one
        photon at a single-photon detector, <g|g'> eta g* g' e^{-eta g* g'}."""
        eta, x = 0.7, g.conjugate() * gp
        ov = cmath.exp(-0.5 * abs(g) ** 2 - 0.5 * abs(gp) ** 2 + x)
        none = povm_overlap(DetectorModel(DetectorKind.THRESHOLD, eta), 0, g, gp)
        one = povm_overlap(DetectorModel(DetectorKind.SINGLE_PHOTON, eta), 1,
                           g, gp)
        assert none == pytest.approx(ov * cmath.exp(-eta * x), rel=1e-14)
        assert one == pytest.approx(ov * eta * x * cmath.exp(-eta * x),
                                    rel=1e-14)

    def test_invalid_outcome(self):
        det = DetectorModel(DetectorKind.THRESHOLD, 0.7)
        with pytest.raises(ValueError):
            povm_overlap(det, 2, 0.1, 0.1)


class TestEnsembleStructure:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_completeness(self, kind):
        ens = run_protocol(config(kind))
        assert ens.total_probability() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_states_are_density_matrices(self, kind):
        ens = run_protocol(config(kind))
        for entry in ens.entries.values():
            if entry.state is None or entry.probability < 1e-9:
                continue
            assert np.trace(entry.state).real == pytest.approx(1.0, abs=1e-9)
            evals = np.linalg.eigvalsh(entry.state)
            assert evals.min() > -1e-9

    def test_outcome_parity(self):
        assert outcome_parity(2, 0) == "odd"
        assert outcome_parity(0, 1) == "even"
        assert outcome_parity(0, 0) is None
        assert outcome_parity(1, 2) is None

    def test_dual_clicks_are_failures(self):
        ens = run_protocol(config(DetectorKind.NUMBER_RESOLVING, beta=0.4))
        dual = [k for k in ens.entries if k[0] > 0 and k[1] > 0]
        assert dual, "dual-click outcomes should be present in the ensemble"
        assert all(k not in dict(ens.success_items()) for k in dual)


class TestClosedFormAgreement:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_p_epsilon_match(self, kind):
        cfg = config(kind, beta=0.25)
        T_A, T_B = link_transmittance(cfg.geometry)
        pf = performance(cfg.detector, cfg.params, T_A, T_B)
        p, eps = ensemble_performance(run_protocol(cfg))
        assert p == pytest.approx(pf.p, abs=1e-10)
        assert eps == pytest.approx(pf.epsilon, abs=1e-10)

    def test_generic_theta_matches(self):
        # beta = alpha sin(theta/2) is the only interaction parameter that matters
        theta = 2.2
        alpha = 0.31
        par = InteractionParams(alpha * math.sin(theta / 2.0), alpha, theta)
        cfg = config(DetectorKind.THRESHOLD, params=par)
        T_A, T_B = link_transmittance(cfg.geometry)
        pf = performance(cfg.detector, cfg.params, T_A, T_B)
        p, eps = ensemble_performance(run_protocol(cfg))
        assert p == pytest.approx(pf.p, abs=1e-10)
        assert eps == pytest.approx(pf.epsilon, abs=1e-10)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_variant_equivalence(self, kind):
        c1 = config(kind, variant=Variant.CENTRAL_DISPLACEMENT)
        c2 = config(kind, variant=Variant.LOCAL_DISPLACEMENT)
        compare_ensembles(run_protocol(c1), run_protocol(c2), 1e-10)


class TestFockOracle:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_branch_engine(self, kind):
        cfg = config(kind, beta=0.22)
        compare_ensembles(run_protocol(cfg), fock_oracle(cfg), 1e-8)

    def test_local_variant_matches(self):
        cfg = config(DetectorKind.SINGLE_PHOTON, beta=0.2,
                     variant=Variant.LOCAL_DISPLACEMENT)
        compare_ensembles(run_protocol(cfg), fock_oracle(cfg), 1e-8)

    def test_generic_theta_matches(self):
        theta = 1.7
        alpha = 0.35
        par = InteractionParams(alpha * math.sin(theta / 2.0), alpha, theta)
        cfg = config(DetectorKind.THRESHOLD, params=par)
        compare_ensembles(run_protocol(cfg), fock_oracle(cfg), 1e-8)


GENERIC_THETA = InteractionParams(0.35 * math.sin(0.85), 0.35, 1.7)


@pytest.mark.parametrize("kind, variant, params", [
    *((kind, variant, None) for kind in ALL_KINDS for variant in Variant),
    (DetectorKind.NUMBER_RESOLVING, Variant.LOCAL_DISPLACEMENT, GENERIC_THETA),
])
def test_fock_oracle_probabilities_within_1e13(kind, variant, params):
    # the 1e-8 comparisons above cannot see a drift of the branch engine
    # at the 1e-13 level; every outcome probability is held here
    cfg = config(kind, beta=0.22, variant=variant,
                 params=params or InteractionParams(0.22))
    ours, oracle = run_protocol(cfg), fock_oracle(cfg)
    assert ours.entries.keys() == oracle.entries.keys()
    for key, entry in ours.entries.items():
        assert abs(entry.probability - oracle.entries[key].probability) < 1e-13


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_long_arm_matches_closed_form(kind):
    # the arm-A environment amplitudes reach ~1e28; equal ones must still
    # overlap to exactly 1, or every outcome probability is lost
    cfg = config(kind, geometry=LinkGeometry(3000.0, 15.0, 22.0, 0.93))
    ens = run_protocol(cfg)
    assert ens.total_probability() == pytest.approx(1.0, abs=1e-10)
    pf = performance(cfg.detector, cfg.params, *link_transmittance(cfg.geometry))
    p, eps = ensemble_performance(ens)
    assert p == pytest.approx(pf.p, abs=1e-10)
    assert eps == pytest.approx(pf.epsilon, abs=1e-10)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_underflowing_efficiency_matches_a_blind_detector(kind):
    # eta * x underflows to 0 for eta = 1e-300: no log(0) warning, and the
    # counts are those of eta = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = run_protocol(config(kind, eta=1e-300))
    compare_ensembles(tiny, run_protocol(config(kind, eta=0.0)), 1e-15)


def test_pulse_energy_past_float_range_is_refused():
    # alpha^2 = 1e306 is finite, but |pulse differences|^2 would overflow
    for params in (InteractionParams(1e153), InteractionParams(
            1e153 * math.sin(1.0), 1e153, 2.0)):
        cfg = config(DetectorKind.THRESHOLD, params=params, geometry=LOSSLESS)
        with pytest.raises(ValueError, match=r"alpha\^2 \(1/T_A \+ 1/T_B\)"):
            run_protocol(cfg)


class TestLosslessIdentity:
    def test_bell_states_emerge(self):
        # perfect number-resolving detection on a lossless link projects
        # |++> onto phi+ (even) or psi+ (odd) exactly
        cfg = config(DetectorKind.NUMBER_RESOLVING, beta=0.3,
                     geometry=LOSSLESS, eta=1.0)
        ens = run_protocol(cfg)
        for (m, n), entry in ens.success_items():
            if entry.probability < 1e-12:
                continue
            target = PSI_PLUS if outcome_parity(m, n) == "odd" else PHI_PLUS
            fid = float((target.conj() @ entry.state @ target).real)
            assert fid >= 1.0 - 1e-12


class TestPhaseErrorSplit:
    def test_pure_projection_has_zero_eps(self):
        phi = np.outer(PHI_PLUS, PHI_PLUS.conj())
        eps, residual = phase_error_split(phi, "even")
        assert eps == pytest.approx(0.0, abs=1e-14)
        assert residual < 1e-12

    def test_flipped_projection_has_unit_eps(self):
        psi = np.outer(PSI_PLUS, PSI_PLUS.conj())
        zb = np.diag([1.0, -1.0, 1.0, -1.0])
        eps, _ = phase_error_split(zb @ psi @ zb, "odd")
        assert eps == pytest.approx(1.0, abs=1e-14)

    def test_residual_small_for_protocol_output(self):
        ens = run_protocol(config(DetectorKind.THRESHOLD, beta=0.2))
        for (m, n), entry in ens.success_items():
            if entry.probability < 1e-9:
                continue
            _, residual = phase_error_split(entry.state, outcome_parity(m, n))
            assert residual < 1e-9


class TestConfigValidation:
    def test_initial_state_vector_and_matrix(self):
        v = np.array([1, 0, 0, 1], dtype=complex)
        cfg = config(DetectorKind.THRESHOLD, initial_state=v)
        rho = cfg.initial_density()
        assert np.trace(rho).real == pytest.approx(1.0)
        cfg2 = config(DetectorKind.THRESHOLD, initial_state=rho * 2.0)
        assert np.trace(cfg2.initial_density()).real == pytest.approx(1.0)

    def test_bad_initial_state(self):
        cfg = config(DetectorKind.THRESHOLD,
                     initial_state=np.zeros((3, 3), dtype=complex))
        with pytest.raises(ValueError):
            cfg.initial_density()
