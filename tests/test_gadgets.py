"""Density-matrix gadgets: swapping, parity checks, cluster growth."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rnpm import gadgets
from rnpm.gadgets import (BELL_VECTORS, KET0, KET_PLUS, PHI_PLUS,
                          SWAP_CORRECTION, bell_label, bell_measurement,
                          cluster_extend, cluster_state, cluster_stabilizers,
                          fidelity_to, num_qubits, op_on,
                          parity_check, parity_projectors, phase_flip_channel,
                          project, ptrace_remove, rnpm_channel,
                          stabilizer_expectations)


def two_pairs():
    """phi+ (A, M1) x phi+ (M2, B) as a 4-qubit density matrix."""
    v = np.kron(PHI_PLUS, PHI_PLUS)
    return np.outer(v, v.conj())


class TestPrimitives:
    def test_op_on_one_qubit_is_a_fresh_array(self):
        assert not np.shares_memory(op_on(gadgets.X, 0, 1), gadgets.X)

    def test_parity_projectors_complete(self):
        Pe, Po = parity_projectors(0, 1, 2)
        assert np.allclose(Pe + Po, np.eye(4))
        assert np.allclose(Pe @ Pe, Pe)
        assert np.allclose(Pe @ Po, 0.0)

    def test_phase_flip_channel_trace_preserving(self):
        rho = two_pairs()
        out = phase_flip_channel(rho, 2, 0.3)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)

    def test_ptrace_remove(self):
        rho = two_pairs()
        red = ptrace_remove(rho, (2, 3))
        assert red.shape == (4, 4)
        assert np.allclose(red, np.outer(PHI_PLUS, PHI_PLUS.conj()))

    def test_project_weights(self):
        plus = np.outer(KET_PLUS, KET_PLUS.conj())
        w, _ = project(plus, KET0, 0)
        assert w == pytest.approx(0.5)

    def test_num_qubits_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            num_qubits(np.zeros((3, 3)))


class TestRnpmChannel:
    def test_outcome_probabilities(self):
        rho = two_pairs()
        outs = rnpm_channel(rho, (1, 2), p=0.4, epsilon=0.1)
        labels = {o.label[0]: o for o in outs}
        assert labels["fail"].probability == pytest.approx(0.6)
        assert labels["even"].probability == pytest.approx(0.2)
        assert labels["odd"].probability == pytest.approx(0.2)
        assert labels["fail"].state is None

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            rnpm_channel(two_pairs(), (0, 1), 1.0, 0.7)

    def test_qubit_validation(self):
        with pytest.raises(ValueError):
            rnpm_channel(two_pairs(), (0, 0), 1.0, 0.0)


class TestBellMeasurement:
    def test_eight_equiprobable_outcomes(self):
        outs = bell_measurement(two_pairs(), (1, 2), epsilon=0.0)
        assert len(outs) == 8
        for o in outs:
            assert o.probability == pytest.approx(0.125, abs=1e-12)

    def test_swap_correction_restores_phi_plus(self):
        outs = bell_measurement(two_pairs(), (1, 2), epsilon=0.0)
        for o in outs:
            corr = SWAP_CORRECTION[bell_label(o.label)]
            C = op_on(corr, 1, 2)
            fixed = C @ o.state @ C.conj().T
            assert fidelity_to(fixed, PHI_PLUS) == pytest.approx(1.0, abs=1e-12)

    def test_swap_error_law(self):
        # one noisy swap between perfect pairs leaves phase error eps
        eps = 0.07
        outs = bell_measurement(two_pairs(), (1, 2), epsilon=eps)
        for o in outs:
            corr = SWAP_CORRECTION[bell_label(o.label)]
            C = op_on(corr, 1, 2)
            fixed = C @ o.state @ C.conj().T
            assert fidelity_to(fixed, PHI_PLUS) == pytest.approx(1.0 - eps, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        outs = bell_measurement(two_pairs(), (1, 2), epsilon=0.2)
        assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-12)


#: epsilon outside [0, 1/2], a repeated qubit, qubits out of range; the
#: message tells the gadget's own check from a numpy error on a bad axis
BAD_INPUTS = [((0, 1), -0.3, "epsilon"), ((0, 1), 0.9, "epsilon"),
              ((1, 1), 0.1, "invalid qubit"), ((0, 5), 0.1, "invalid qubit"),
              ((-1, 2), 0.1, "invalid qubit")]


@pytest.mark.parametrize("gadget", [bell_measurement, parity_check])
@pytest.mark.parametrize("qubits, eps, message", BAD_INPUTS)
def test_gadgets_reject_bad_epsilon_and_qubits(gadget, qubits, eps, message):
    with pytest.raises(ValueError, match=message):
        gadget(two_pairs(), qubits, eps)


class TestParityCheck:
    def test_equals_cnot_construction(self):
        # at eps = 0 the gadget equals C-NOT (kept -> probe) + Z readout
        rng = np.random.default_rng(11)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        outs = parity_check(rho, (0, 1), epsilon=0.0)
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1],
                         [0, 0, 1, 0]], dtype=complex)
        after = cnot @ rho @ cnot.conj().T
        for parity, ket in (("even", gadgets.KET0), ("odd", gadgets.KET1)):
            w, s = project(after, ket, 1)
            ref = ptrace_remove(s, (1,)) / w
            matched = [o for o in outs if o.label[0] == parity]
            assert matched
            assert sum(o.probability for o in matched) == pytest.approx(w, abs=1e-12)
            for o in matched:
                assert np.max(np.abs(o.state - ref)) < 1e-12

    def test_probability_completeness(self):
        rho = two_pairs()
        outs = parity_check(rho, (0, 2), epsilon=0.15)
        assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-12)

    def test_probe_removed(self):
        rho = two_pairs()
        outs = parity_check(rho, (0, 2), epsilon=0.0)
        for o in outs:
            assert o.state.shape == (8, 8)


def dense_parity_part(rho, i, j, parity):
    n = num_qubits(rho)
    P = parity_projectors(i, j, n)[0 if parity == "even" else 1]
    return P @ rho @ P


def dense_phase_flip(rho, qubit, eps):
    zq = op_on(gadgets.Z, qubit, num_qubits(rho))
    return (1.0 - eps) * rho + eps * (zq @ rho @ zq)


def dense_normalize(rho, w):
    rho = rho / w
    return 0.5 * (rho + rho.conj().T)


def dense_rnpm_channel(rho, qubits, p, eps):
    i, j = qubits
    outs = []
    for name in ("even", "odd"):
        sub = dense_parity_part(rho, i, j, name)
        w = float(np.trace(sub).real)
        state = None
        if w > 1e-300:
            state = dense_phase_flip(dense_normalize(sub, w), j, eps)
        outs.append(((name,), p * w, state))
    return outs + [(("fail",), 1.0 - p, None)]


def dense_success_branches(rho, qubits, eps):
    """dense_rnpm_channel at p = 1 as (parity, weight * state)."""
    return [(label[0], prob * state)
            for label, prob, state in dense_rnpm_channel(rho, qubits, 1.0, eps)
            if state is not None]


def dense_x_readout(rho, qubit, x):
    """Project qubit onto |+> (x = 0) or |-> (x = 1) and trace it out."""
    ket = (gadgets.KET_PLUS, gadgets.KET_MINUS)[x]
    P = op_on(np.outer(ket, ket.conj()), qubit, num_qubits(rho))
    s = P @ rho @ P
    return float(np.trace(s).real), ptrace_remove(s, (qubit,))


def dense_bell_measurement(rho, qubits, eps):
    i, j = qubits
    outs = []
    for parity, sub in dense_success_branches(rho, qubits, eps):
        for a, b in itertools.product((0, 1), repeat=2):
            _, s1 = dense_x_readout(sub, i, a)
            w, post = dense_x_readout(s1, j - 1 if i < j else j, b)
            state = dense_normalize(post, w) if w > 1e-300 else None
            outs.append(((parity, a, b), w, state))
    return outs


def dense_parity_check(rho, qubits, eps):
    a1, a2 = qubits
    outs = []
    for parity, sub in dense_success_branches(rho, qubits, eps):
        for x in (0, 1):
            w, post = dense_x_readout(sub, a2, x)
            if w <= 1e-300:
                continue
            if x == 1:
                zc = op_on(gadgets.Z, a1 if a1 < a2 else a1 - 1,
                           num_qubits(post))
                post = zc @ post @ zc
            outs.append(((parity, x), w, dense_normalize(post, w)))
    return outs


def hadamard_bell_measurement(rho, qubits, eps):
    """Parity projection, phase flip of the unnormalized branch, Hadamards on
    both qubits and Z-basis readout."""
    n = num_qubits(rho)
    i, j = qubits
    outs = []
    for parity in ("even", "odd"):
        sub = dense_parity_part(rho, i, j, parity)
        if float(np.trace(sub).real) <= 1e-300:
            continue
        sub = dense_phase_flip(sub, j, eps)
        U = op_on(gadgets.H, i, n) @ op_on(gadgets.H, j, n)
        sub = U @ sub @ U.conj().T
        for a, b in itertools.product((0, 1), repeat=2):
            _, s1 = project(sub, (gadgets.KET0, gadgets.KET1)[a], i)
            _, s2 = project(s1, (gadgets.KET0, gadgets.KET1)[b], j)
            post = ptrace_remove(s2, (i, j))
            w = float(np.trace(post).real)
            state = dense_normalize(post, w) if w > 1e-300 else None
            outs.append(((parity, a, b), w, state))
    return outs


def unnormalized_parity_check(rho, qubits, eps):
    """Parity projection and phase flip of the unnormalized branch, then
    X readout of the probe and the Z^x fix-up."""
    n = num_qubits(rho)
    a1, a2 = qubits
    outs = []
    for parity in ("even", "odd"):
        sub = dense_parity_part(rho, a1, a2, parity)
        if float(np.trace(sub).real) <= 1e-300:
            continue
        sub = dense_phase_flip(sub, a2, eps)
        for x, kx in ((0, gadgets.KET_PLUS), (1, gadgets.KET_MINUS)):
            w, s = project(sub, kx, a2)
            post = ptrace_remove(s, (a2,))
            if w <= 1e-300:
                continue
            if x == 1:
                zc = op_on(gadgets.Z, a1 if a1 < a2 else a1 - 1, n - 1)
                post = zc @ post @ zc
            outs.append(((parity, x), w, dense_normalize(post, w)))
    return outs


def assert_outcomes_equal(got, want):
    assert [o.label for o in got] == [w[0] for w in want]
    for o, (_, prob, state) in zip(got, want):
        assert o.probability == prob
        if state is None:
            assert o.state is None
        else:
            assert np.array_equal(o.state, state)


def assert_outcomes_close(got, want, tol=1e-15):
    assert [o.label for o in got] == [w[0] for w in want]
    for o, (_, prob, state) in zip(got, want):
        assert abs(o.probability - prob) <= tol
        assert (o.state is None) == (state is None)
        if state is not None:
            assert np.max(np.abs(o.state - state)) <= tol


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestDenseReferences:
    """The gadgets against their steps written out in this file: the dense
    P rho P and Z rho Z forms, the X-basis projections and the partial
    traces; and against the Hadamard-then-Z and unnormalized-branch forms."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([3, 4]), seed=st.integers(0, 2 ** 32 - 1),
           eps=st.floats(0.0, 0.5), p=st.floats(0.0, 1.0))
    def test_bit_identical_to_dense(self, n, seed, eps, p):
        rho = random_state(n, seed)
        for q in range(n):
            assert np.array_equal(phase_flip_channel(rho, q, eps),
                                  dense_phase_flip(rho, q, eps))
        for pair in itertools.permutations(range(n), 2):
            assert_outcomes_equal(rnpm_channel(rho, pair, p, eps),
                                  dense_rnpm_channel(rho, pair, p, eps))
            assert_outcomes_equal(bell_measurement(rho, pair, eps),
                                  dense_bell_measurement(rho, pair, eps))
            assert_outcomes_equal(parity_check(rho, pair, eps),
                                  dense_parity_check(rho, pair, eps))

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([3, 4]), seed=st.integers(0, 2 ** 32 - 1),
           eps=st.floats(0.0, 0.5))
    def test_close_to_hadamard_and_unnormalized_forms(self, n, seed, eps):
        rho = random_state(n, seed)
        for pair in itertools.permutations(range(n), 2):
            assert_outcomes_close(bell_measurement(rho, pair, eps),
                                  hadamard_bell_measurement(rho, pair, eps))
            assert_outcomes_close(parity_check(rho, pair, eps),
                                  unnormalized_parity_check(rho, pair, eps))


def dense_cluster_state(n):
    """CZ chain on |+>^n, each CZ a dense 2^n x 2^n diagonal matrix."""
    v = np.ones(2 ** n, dtype=complex) / np.sqrt(2 ** n)
    for q in range(n - 1):
        cz = np.eye(2 ** n, dtype=complex)
        for idx in range(2 ** n):
            bits = [(idx >> (n - 1 - t)) & 1 for t in range(n)]
            if bits[q] == 1 and bits[q + 1] == 1:
                cz[idx, idx] = -1.0
        v = cz @ v
    return v


class TestCluster:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_cluster_state_matches_dense_cz(self, n):
        assert np.array_equal(cluster_state(n), dense_cluster_state(n))

    def test_cluster_state_stabilized(self):
        for n in (2, 3, 4):
            v = cluster_state(n)
            rho = np.outer(v, v.conj())
            for e in stabilizer_expectations(rho):
                assert e == pytest.approx(1.0, abs=1e-12)

    def test_extend_ideal(self):
        for n in (1, 2, 3):
            v = cluster_state(n)
            rho = np.outer(v, v.conj())
            for o in cluster_extend(rho, epsilon=0.0):
                for e in stabilizer_expectations(o.state):
                    assert e == pytest.approx(1.0, abs=1e-12)

    def test_extend_noisy_damps_one_stabilizer(self):
        eps = 0.1
        v = cluster_state(2)
        rho = np.outer(v, v.conj())
        for o in cluster_extend(rho, epsilon=eps):
            exps = sorted(stabilizer_expectations(o.state))
            assert exps[0] == pytest.approx(1.0 - 2.0 * eps, abs=1e-12)
            assert exps[-1] == pytest.approx(1.0, abs=1e-12)

    def test_extend_probabilities(self):
        v = cluster_state(2)
        rho = np.outer(v, v.conj())
        outs = cluster_extend(rho, epsilon=0.0)
        assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-12)


class TestHelpers:
    def test_bell_vectors_orthonormal(self):
        vs = list(BELL_VECTORS.values())
        G = np.array([[np.vdot(a, b) for b in vs] for a in vs])
        assert np.allclose(G, np.eye(4))

    def test_bell_label(self):
        assert bell_label(("even", 0, 0)) == "phi+"
        assert bell_label(("even", 0, 1)) == "phi-"
        assert bell_label(("odd", 1, 1)) == "psi+"
        assert bell_label(("odd", 1, 0)) == "psi-"
