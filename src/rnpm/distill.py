"""Recurrence-method entanglement distillation driven by parity checks.

Both parties hold two Werner pairs, perform a (noisy) parity check on their
halves and keep the first pair when the announced parities agree.  The map
(F, epsilon) -> (P_rec, F') runs in closed form, with two independent
oracles: the ``gadgets`` parity-check building block and a direct 16x16
projector computation (``recurrence_oracle``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gadgets
from .formulas import DetectorModel, InteractionParams, performance

BELL_PROJECTORS = {
    name: np.outer(v, v.conjugate()) for name, v in gadgets.BELL_VECTORS.items()
}


@dataclass(frozen=True)
class WernerState:
    """Fidelity-F mixture of phi+ with the isotropic rest."""

    F: float

    def __post_init__(self):
        if not 0.0 <= self.F <= 1.0:
            raise ValueError(f"fidelity must lie in [0, 1], got {self.F}")

    def density(self) -> np.ndarray:
        rest = (1.0 - self.F) / 3.0
        rho = self.F * BELL_PROJECTORS["phi+"]
        for name in ("phi-", "psi+", "psi-"):
            rho = rho + rest * BELL_PROJECTORS[name]
        return rho


@dataclass(frozen=True)
class RecurrenceResult:
    P_s: float
    F_prime: float


def _two_pair_input(F: float) -> np.ndarray:
    """rho_W(F) x rho_W(F) on qubits (A1, B1, A2, B2)."""
    pair = WernerState(F).density()
    return np.kron(pair, pair)


def recurrence_oracle(F: float, epsilon: float) -> RecurrenceResult:
    """Exact 16x16 evaluation of one recurrence round.

    Alice checks the parity of (A1, A2) and Bob of (B1, B2); each party's
    kept qubit picks up one phase-flip channel of strength epsilon.  Pairs
    are kept when the announced parities agree.  Returns
    (P_rec, F') -- the caller multiplies P_rec by p(beta)^2 for the overall
    success probability.
    """
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in [0, 1/2], got {epsilon}")
    rho = _two_pair_input(F)  # qubits: A1=0, B1=1, A2=2, B2=3
    n = 4
    p_keep = 0.0
    kept = np.zeros((4, 4), dtype=complex)
    for par_a in ("even", "odd"):
        Pa = gadgets.parity_projectors(0, 2, n)[0 if par_a == "even" else 1]
        for par_b in ("even", "odd"):
            if par_a != par_b:
                continue
            Pb = gadgets.parity_projectors(1, 3, n)[0 if par_b == "even" else 1]
            sub = (Pa @ Pb) @ rho @ (Pb @ Pa)
            # one phase-flip channel per party on its kept qubit, written out
            # here rather than through gadgets.phase_flip_channel, so that
            # this oracle shares no gadget with recurrence_via_gadgets
            for q in (0, 1):
                zq = gadgets.op_on(gadgets.Z, q, n)
                sub = (1.0 - epsilon) * sub + epsilon * (zq @ sub @ zq)
            # X-readout of the probe qubits with Z^x fix-ups on the kept ones
            for xa, ka in ((0, gadgets.KET_PLUS), (1, gadgets.KET_MINUS)):
                for xb, kb in ((0, gadgets.KET_PLUS), (1, gadgets.KET_MINUS)):
                    _, s = gadgets.project(sub, ka, 2)
                    w, s = gadgets.project(s, kb, 3)
                    post = gadgets.ptrace_remove(s, (2, 3))
                    if w <= 1e-300:
                        continue
                    corr = np.eye(4, dtype=complex)
                    if xa:
                        corr = corr @ gadgets.op_on(gadgets.Z, 0, 2)
                    if xb:
                        corr = corr @ gadgets.op_on(gadgets.Z, 1, 2)
                    post = corr @ post @ corr
                    p_keep += w
                    kept = kept + post
    if p_keep <= 0.0:
        return RecurrenceResult(0.0, 0.0)
    kept = kept / p_keep
    return RecurrenceResult(float(p_keep),
                            gadgets.fidelity_to(kept, gadgets.PHI_PLUS))


def recurrence_via_gadgets(F: float, epsilon: float) -> RecurrenceResult:
    """Same round assembled from the gadgets.parity_check building block."""
    rho = _two_pair_input(F)  # A1=0, B1=1, A2=2, B2=3
    p_keep = 0.0
    kept = np.zeros((4, 4), dtype=complex)
    for oa in gadgets.parity_check(rho, (0, 2), epsilon):
        # after removing qubit 2 the register is (A1=0, B1=1, B2=2)
        sub = oa.probability * oa.state
        for ob in gadgets.parity_check(sub, (1, 2), epsilon):
            if ob.label[0] != oa.label[0]:
                continue
            p_keep += ob.probability
            kept = kept + ob.probability * ob.state
    if p_keep <= 0.0:
        return RecurrenceResult(0.0, 0.0)
    kept = kept / p_keep
    return RecurrenceResult(float(p_keep),
                            gadgets.fidelity_to(kept, gadgets.PHI_PLUS))


def recurrence_closed_form(F: float, epsilon: float) -> RecurrenceResult:
    """(P_rec, F') in closed form: on Werner weights (F, r, r, r), the kept
    pair flips phi+ <-> phi- with the probes' net phase-flip probability q
    (Bennett et al., PRL 76, 722 (1996); Deutsch et al., PRL 77, 2818
    (1996)).  `recurrence_oracle` and `recurrence_via_gadgets` are its
    oracles."""
    WernerState(F)  # raises for F outside [0, 1], as the oracles do
    r, q = (1.0 - F) / 3.0, 2.0 * epsilon * (1.0 - epsilon)
    P_rec = (F + r) ** 2 + 4.0 * r * r
    return RecurrenceResult(
        P_rec, ((1.0 - q) * (F * F + r * r) + 2.0 * q * F * r) / P_rec)


def recurrence_step(F: float, beta: float, tau: float,
                    detector: DetectorModel) -> RecurrenceResult:
    """One noisy recurrence round with local parity measurements.

    The parity measurements act on co-located memories, so both arms see
    only the local loss tau.  P_s folds in the success probability of the
    two optical parity measurements: P_s = P_rec(F) * p(beta)^2.
    """
    perf = performance(detector, InteractionParams(beta), tau, tau)
    rec = recurrence_closed_form(F, perf.epsilon)
    return RecurrenceResult(rec.P_s * perf.p ** 2, rec.F_prime)
