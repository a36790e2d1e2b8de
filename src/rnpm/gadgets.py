"""Density-matrix gadgets built from the noisy remote parity measurement.

Each gadget consumes a dense multi-qubit density matrix (qubit 0 is the most
significant index) and returns the list of measurement outcomes with their
probabilities and post-states.  Every gadget is the one parity measurement,
``rnpm_channel``, plus single-qubit steps: X-basis readout, a Pauli fix-up or
a Hadamard.  ``rnpm_channel`` is the ideal parity projection followed by a
phase-flip channel of strength epsilon on the second involved qubit, with
overall success probability p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)

BELL_VECTORS = {
    "phi+": PHI_PLUS, "phi-": PHI_MINUS, "psi+": PSI_PLUS, "psi-": PSI_MINUS,
}

#: Pauli on the second pair qubit mapping each swap outcome back to phi+
SWAP_CORRECTION = {"phi+": I2, "phi-": Z, "psi+": X, "psi-": Y}


def op_on(op: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator on the given qubit of an n-qubit system."""
    # the 1x1 start gives a fresh array at n = 1, never ``op`` itself
    return reduce(np.kron, [op if i == qubit else I2 for i in range(n)],
                  np.ones((1, 1)))


def num_qubits(rho: np.ndarray) -> int:
    n = int(round(np.log2(rho.shape[0])))
    if rho.shape != (2 ** n, 2 ** n):
        raise ValueError(f"not a square power-of-two matrix: {rho.shape}")
    return n


_PARITIES = ("even", "odd")


def parity_projectors(i: int, j: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(P_even, P_odd) on qubits (i, j) of an n-qubit system."""
    zz = op_on(Z, i, n) @ op_on(Z, j, n)
    eye = np.eye(2 ** n, dtype=complex)
    return (eye + zz) / 2.0, (eye - zz) / 2.0


def phase_flip_channel(rho: np.ndarray, qubit: int, epsilon: float) -> np.ndarray:
    """(1 - eps) rho + eps Z rho Z on the given qubit."""
    zq = op_on(Z, qubit, num_qubits(rho))
    return (1.0 - epsilon) * rho + epsilon * (zq @ rho @ zq)


def ptrace_remove(rho: np.ndarray, remove: tuple[int, ...]) -> np.ndarray:
    """Partial trace removing the listed qubits, highest index first, so the
    axes of the qubits still to be removed do not move."""
    n = num_qubits(rho)
    t = rho.reshape([2] * (2 * n))
    for q in sorted(remove, reverse=True):
        t = np.trace(t, axis1=q, axis2=q + (t.ndim // 2))
    dim = 2 ** (n - len(remove))
    return t.reshape(dim, dim)


def project(rho: np.ndarray, ket: np.ndarray, qubit: int) -> tuple[float, np.ndarray]:
    """Project one qubit onto |ket>; returns (weight, unnormalized post-state)."""
    n = num_qubits(rho)
    P = op_on(np.outer(ket, ket.conjugate()), qubit, n)
    out = P @ rho @ P
    return float(np.trace(out).real), out


@dataclass
class GadgetOutcome:
    """One measurement record: label bits, probability, post-state (or None)."""

    label: tuple
    probability: float
    state: np.ndarray | None


def _normalize(rho: np.ndarray, w: float) -> np.ndarray:
    rho = rho / w
    return 0.5 * (rho + rho.conjugate().T)


def rnpm_channel(rho: np.ndarray, qubits: tuple[int, int], p: float,
                 epsilon: float) -> list[GadgetOutcome]:
    """Noisy parity measurement on two qubits of a register.

    Success (probability p) projects onto even/odd parity with Born weights
    and applies the phase-flip channel on ``qubits[1]``; failure carries no
    post-state (the repeater restarts from fresh memories).
    """
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in [0, 1/2], got {epsilon}")
    n = num_qubits(rho)
    i, j = qubits
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValueError(f"invalid qubit indices {qubits} for {n} qubits")
    outcomes = []
    for name, P in zip(_PARITIES, parity_projectors(i, j, n)):
        sub = P @ rho @ P
        w = float(np.trace(sub).real)
        state = None
        if w > 1e-300:
            state = phase_flip_channel(_normalize(sub, w), j, epsilon)
        outcomes.append(GadgetOutcome((name,), p * w, state))
    outcomes.append(GadgetOutcome(("fail",), 1.0 - p, None))
    return outcomes


KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def _parity_branches(rho: np.ndarray, qubits: tuple[int, int],
                     epsilon: float) -> list[tuple[str, np.ndarray]]:
    """(parity, weight * state) of each nonempty rnpm_channel branch at p = 1."""
    return [(out.label[0], out.probability * out.state)
            for out in rnpm_channel(rho, qubits, 1.0, epsilon)
            if out.state is not None]


def _x_readout(rho: np.ndarray, qubit: int):
    """Yield (x, weight, state) of the X readout of ``qubit``, traced out."""
    for x, ket in enumerate((KET_PLUS, KET_MINUS)):
        w, s = project(rho, ket, qubit)
        yield x, w, ptrace_remove(s, (qubit,))


def bell_measurement(rho: np.ndarray, qubits: tuple[int, int],
                     epsilon: float) -> list[GadgetOutcome]:
    """Bell measurement: parity measurement, X readout of both qubits.

    Assumes the success branch of the parity measurement (the caller handles
    retries), so the outcome probabilities sum to 1.  The measured qubits are
    traced out; each outcome is labelled (parity, a, b) and carries the Bell
    state it projected onto (see ``bell_label``).
    """
    i, j = qubits
    outcomes = []
    for parity, sub in _parity_branches(rho, qubits, epsilon):
        for a, _, s in _x_readout(sub, i):
            for b, w, post in _x_readout(s, j - (i < j)):
                state = _normalize(post, w) if w > 1e-300 else None
                outcomes.append(GadgetOutcome((parity, a, b), w, state))
    return outcomes


def bell_label(outcome_label: tuple) -> str:
    """Map a bell_measurement outcome label to the projected Bell state."""
    parity, a, b = outcome_label
    sign = "+" if (a ^ b) == 0 else "-"
    return ("phi" if parity == "even" else "psi") + sign


def parity_check(rho: np.ndarray, qubits: tuple[int, int],
                 epsilon: float) -> list[GadgetOutcome]:
    """Parity check: parity measurement, X-readout of the probe, Z^x fix-up.

    Success branch assumed.  Outcomes are labelled (parity, x); the probe
    qubit ``qubits[1]`` is measured out and removed, the kept qubit receives
    Z^x.  At epsilon = 0 this equals the C-NOT plus Z-measurement parity
    check on the kept qubit.
    """
    kept, probe = qubits
    outcomes = []
    for parity, sub in _parity_branches(rho, qubits, epsilon):
        for x, w, post in _x_readout(sub, probe):
            if w <= 1e-300:
                continue
            if x == 1:
                zc = op_on(Z, kept - (probe < kept), num_qubits(post))
                post = zc @ post @ zc
            outcomes.append(GadgetOutcome((parity, x), w, _normalize(post, w)))
    return outcomes


def cluster_state(n: int) -> np.ndarray:
    """Linear cluster state vector on n qubits (CZ chain on |+>^n)."""
    v = np.ones(2 ** n, dtype=complex) / np.sqrt(2 ** n)
    idx = np.arange(2 ** n)
    for q in range(n - 1):
        # CZ on (q, q + 1) as its diagonal: -1 where both bits are set
        both = (idx >> (n - 1 - q)) & (idx >> (n - 2 - q)) & 1
        v = v * (1.0 - 2.0 * both)
    return v


def cluster_stabilizers(n: int) -> list[np.ndarray]:
    """K_i = X_i prod_{j in N(i)} Z_j for the linear cluster."""
    return [reduce(np.kron, [X if i == q else Z if abs(i - q) == 1 else I2
                             for i in range(n)], np.ones((1, 1)))
            for q in range(n)]


def cluster_extend(rho: np.ndarray, epsilon: float) -> list[GadgetOutcome]:
    """Extend a linear cluster chain by one qubit.

    A fresh |+> qubit is appended and the parity measurement couples it to
    the old chain end; the announced parity conditions an X fix-up on the
    new qubit before a final Hadamard turns the copy into a cluster edge.
    At epsilon = 0 the output is the (n+1)-qubit linear cluster.
    """
    n = num_qubits(rho)
    plus = np.outer(KET_PLUS, KET_PLUS.conjugate())
    big = np.kron(rho, plus)
    end, fresh = n - 1, n
    outcomes = []
    for out in rnpm_channel(big, (end, fresh), 1.0, epsilon):
        if out.label[0] == "fail":
            continue
        state = out.state
        if out.label[0] == "odd":
            xf = op_on(X, fresh, n + 1)
            state = xf @ state @ xf
        hf = op_on(H, fresh, n + 1)
        state = hf @ state @ hf.conjugate().T
        outcomes.append(GadgetOutcome(out.label, out.probability, state))
    return outcomes


def stabilizer_expectations(rho: np.ndarray) -> list[float]:
    """<K_i> of the linear-cluster stabilizers for the given state."""
    n = num_qubits(rho)
    return [float(np.trace(rho @ K).real) for K in cluster_stabilizers(n)]


def fidelity_to(rho: np.ndarray, vec: np.ndarray) -> float:
    vec = np.asarray(vec, dtype=complex)
    return float((vec.conjugate() @ rho @ vec).real)
