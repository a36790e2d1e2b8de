"""Exact simulation of the remote parity measurement at the optics level.

Two complementary engines are provided.  ``run_protocol`` tracks the four
computational-basis branches of the memory pair, each dressed with coherent
amplitudes for the two pulses, and evaluates detector POVM matrix elements in
closed form.  ``fock_oracle`` repeats the computation on a truncated
number-state basis with an explicit beam-splitter unitary and Kraus-operator
loss, serving as an independent verification path.  Its unitaries are
exponentials of anti-Hermitian generators, taken through ``numpy.linalg.eigh``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .formulas import (DetectorKind, DetectorModel, InteractionParams,
                       LinkGeometry, binomial_pmf, link_transmittance,
                       poisson_cutoff, poisson_sf)
from .gadgets import PHI_PLUS, PSI_PLUS  # noqa: F401  (re-exported)

SQRT2 = math.sqrt(2.0)

#: computational-basis labels of the memory pair, index order 2*j + k
BASIS_LABELS = ((0, 0), (0, 1), (1, 0), (1, 1))

PLUS_PLUS = np.full(4, 0.5, dtype=complex)


class Variant(Enum):
    """Where the cancelling displacement is applied."""

    CENTRAL_DISPLACEMENT = "central"
    LOCAL_DISPLACEMENT = "local"


@dataclass(frozen=True)
class Branch:
    """One computational-basis branch with its pulse amplitudes.

    ``env_a``/``env_b`` hold the coherent amplitudes leaked into the loss
    environments; inter-branch coherence is recovered from their overlaps.
    """

    label: tuple[int, int]
    amplitude: complex
    mode_a: complex
    mode_b: complex
    env_a: complex = 0j
    env_b: complex = 0j


@dataclass
class BranchState:
    branches: list[Branch]

    @classmethod
    def initial(cls, alpha: float, theta: float, T_A: float, T_B: float) -> "BranchState":
        del theta
        a0 = alpha / math.sqrt(T_A)
        b0 = alpha / math.sqrt(T_B)
        return cls([Branch(lbl, 1.0 + 0j, a0 + 0j, b0 + 0j) for lbl in BASIS_LABELS])


def interact(state: BranchState, theta: float, qubit: str) -> BranchState:
    """Apply the qubit-conditional pulse rotation U_theta on one arm.

    The pulse amplitude picks up e^{i(-1)^j theta/2} and the branch amplitude
    e^{-i(-1)^j phi/2} with phi = |pulse|^2 sin(theta).
    """
    field_name = "mode_a" if qubit == "A" else "mode_b"
    out = []
    for br in state.branches:
        sgn = (-1) ** br.label[0 if qubit == "A" else 1]
        mode = getattr(br, field_name)
        phi = abs(mode) ** 2 * math.sin(theta)
        amp = br.amplitude * cmath.exp(-1j * sgn * phi / 2.0)
        mode = mode * cmath.exp(1j * sgn * theta / 2.0)
        out.append(replace(br, amplitude=amp, **{field_name: mode}))
    return BranchState(out)


def displace(state: BranchState, d_a: complex, d_b: complex) -> BranchState:
    """Displace both pulses, keeping track of the displacement phases."""
    out = []
    for br in state.branches:
        amp = br.amplitude
        amp *= cmath.exp(1j * (d_a * br.mode_a.conjugate()).imag)
        amp *= cmath.exp(1j * (d_b * br.mode_b.conjugate()).imag)
        out.append(replace(br, amplitude=amp, mode_a=br.mode_a + d_a,
                           mode_b=br.mode_b + d_b))
    return BranchState(out)


def apply_loss(state: BranchState, T_A: float, T_B: float) -> BranchState:
    """Scale the pulse amplitudes by sqrt(T) and record the lost components."""
    if not 0.0 < T_A <= 1.0 or not 0.0 < T_B <= 1.0:
        raise ValueError("transmittances must lie in (0, 1]")
    out = []
    for br in state.branches:
        out.append(replace(
            br,
            mode_a=br.mode_a * math.sqrt(T_A),
            mode_b=br.mode_b * math.sqrt(T_B),
            env_a=br.env_a + br.mode_a * math.sqrt(1.0 - T_A),
            env_b=br.env_b + br.mode_b * math.sqrt(1.0 - T_B),
        ))
    return BranchState(out)


def coherent_overlap(gamma: complex, gamma_prime: complex) -> complex:
    """<gamma|gamma_prime> for coherent states, via the exponent."""
    expo = (-0.5 * abs(gamma) ** 2 - 0.5 * abs(gamma_prime) ** 2
            + gamma.conjugate() * gamma_prime)
    return cmath.exp(expo)


def povm_overlap(detector: DetectorModel, m: int, gamma: complex,
                 gamma_prime: complex) -> complex:
    """Coherent-state matrix element <gamma| Pi_m |gamma_prime>.

    For threshold and single-photon detectors m is a binary announcement
    (click / exactly-one-photon); exponents are accumulated in log domain
    before a single exp.
    """
    eta = detector.efficiency
    x = gamma.conjugate() * gamma_prime
    base = -0.5 * abs(gamma) ** 2 - 0.5 * abs(gamma_prime) ** 2

    def resolved(mm: int) -> complex:
        if mm == 0:
            return cmath.exp(base + (1.0 - eta) * x)
        if eta == 0.0 or x == 0:
            return 0j
        return cmath.exp(base + (1.0 - eta) * x + mm * cmath.log(eta * x)
                         - math.lgamma(mm + 1))

    if detector.kind is DetectorKind.NUMBER_RESOLVING:
        if m < 0:
            raise ValueError("m must be nonnegative")
        return resolved(m)
    if m not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1 for {detector.kind}, got {m}")
    if detector.kind is DetectorKind.THRESHOLD:
        if m == 0:
            return resolved(0)
        return cmath.exp(base + x) - resolved(0)
    # single photon: announced outcome is exactly one photon
    if m == 1:
        return resolved(1)
    return cmath.exp(base + x) - resolved(1)


@dataclass(frozen=True)
class ProtocolConfig:
    params: InteractionParams
    geometry: LinkGeometry
    detector: DetectorModel
    variant: Variant = Variant.CENTRAL_DISPLACEMENT
    initial_state: np.ndarray | None = None  # 4-vector or 4x4 density matrix

    def initial_density(self) -> np.ndarray:
        if self.initial_state is None:
            v = PLUS_PLUS
            return np.outer(v, v.conjugate())
        arr = np.asarray(self.initial_state, dtype=complex)
        if arr.shape == (4,):
            arr = arr / np.linalg.norm(arr)
            return np.outer(arr, arr.conjugate())
        if arr.shape == (4, 4):
            return arr / np.trace(arr).real
        raise ValueError("initial_state must be a 4-vector or 4x4 matrix")


@dataclass(frozen=True)
class OutcomeEntry:
    probability: float
    state: np.ndarray | None  # conditional two-qubit density matrix


@dataclass
class OutcomeEnsemble:
    entries: dict[tuple[int, int], OutcomeEntry] = field(default_factory=dict)

    def total_probability(self) -> float:
        return sum(e.probability for e in self.entries.values())

    def success_items(self):
        for (m, n), e in self.entries.items():
            if (m > 0 and n == 0) or (m == 0 and n > 0):
                yield (m, n), e

    def success_probability(self) -> float:
        return sum(e.probability for _, e in self.success_items())


def outcome_parity(m: int, n: int) -> str | None:
    """'odd' / 'even' for success outcomes, None for failures."""
    if m > 0 and n == 0:
        return "odd"
    if m == 0 and n > 0:
        return "even"
    return None


Z_B = np.diag([1.0, -1.0, 1.0, -1.0])


def _final_branches(config: ProtocolConfig):
    """Per-basis-branch (phase, d1, d2, env_a, env_b) after steps (i)-(iv)."""
    alpha, theta = config.params.resolved()
    T_A, T_B = link_transmittance(config.geometry)
    state = BranchState.initial(alpha, theta, T_A, T_B)
    state = interact(state, theta, "A")
    state = interact(state, theta, "B")
    if config.variant is Variant.LOCAL_DISPLACEMENT:
        d_a = -(alpha / math.sqrt(T_A)) * math.cos(theta / 2.0)
        d_b = -(alpha / math.sqrt(T_B)) * math.cos(theta / 2.0)
        state = displace(state, d_a, d_b)
    state = apply_loss(state, T_A, T_B)
    branches = []
    for br in state.branches:
        d1 = (br.mode_a - br.mode_b) / SQRT2
        d2 = (br.mode_a + br.mode_b) / SQRT2
        amp = br.amplitude
        if config.variant is Variant.CENTRAL_DISPLACEMENT:
            d = -SQRT2 * alpha * math.cos(theta / 2.0)
            amp *= cmath.exp(1j * (d * d2.conjugate()).imag)
            d2 = d2 + d
        branches.append((amp, d1, d2, br.env_a, br.env_b))
    return branches


def _outcome_entry(rho0: np.ndarray, M: np.ndarray, m: int,
                   n: int) -> OutcomeEntry:
    """Probability and Z_B-corrected conditional state from the weights M."""
    rho_u = rho0 * M
    prob = float(np.trace(rho_u).real)
    if prob <= 1e-300:
        return OutcomeEntry(max(prob, 0.0), None)
    rho_c = rho_u / prob
    if (m + n) % 2 == 1:
        rho_c = Z_B @ rho_c @ Z_B
    return OutcomeEntry(prob, 0.5 * (rho_c + rho_c.conjugate().T))


def _outcome_grid(detector: DetectorModel, branches, tail: float = 1e-13):
    if detector.kind is not DetectorKind.NUMBER_RESOLVING:
        return [(m, n) for m in (0, 1) for n in (0, 1)]
    lam = max(max(abs(d1) ** 2, abs(d2) ** 2) for _, d1, d2, _, _ in branches)
    m_max = poisson_cutoff(lam * detector.efficiency, tail, 4)
    return [(m, n) for m in range(m_max + 1) for n in range(m_max + 1)]


def run_protocol(config: ProtocolConfig) -> OutcomeEnsemble:
    """Full outcome ensemble of one protocol attempt.

    Beam-splitter convention: d1 = (a - b)/sqrt(2), d2 = (a + b)/sqrt(2), so
    the even-parity branches interfere constructively into d2.  The parity
    correction Z on qubit B is applied whenever m + n is odd.
    """
    rho0 = config.initial_density()
    branches = _final_branches(config)
    ensemble = OutcomeEnsemble()
    for (m, n) in _outcome_grid(config.detector, branches):
        M = np.empty((4, 4), dtype=complex)
        for r, (ar, d1r, d2r, ear, ebr) in enumerate(branches):
            for c, (ac, d1c, d2c, eac, ebc) in enumerate(branches):
                fac = ar * ac.conjugate()
                fac *= coherent_overlap(eac, ear) * coherent_overlap(ebc, ebr)
                fac *= povm_overlap(config.detector, m, d1c, d1r)
                fac *= povm_overlap(config.detector, n, d2c, d2r)
                M[r, c] = fac
        ensemble.entries[(m, n)] = _outcome_entry(rho0, M, m, n)
    return ensemble


# ---------------------------------------------------------------------------
# Truncated-Fock oracle
# ---------------------------------------------------------------------------

def _coherent_vec(gamma: complex, dim: int) -> np.ndarray:
    n = np.arange(dim)
    logfact = np.array([math.lgamma(i + 1) for i in range(dim)])
    if gamma == 0:
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return v
    logg = cmath.log(gamma)
    expo = -0.5 * abs(gamma) ** 2 + n * logg - 0.5 * logfact
    return np.exp(expo)


def _expm_antihermitian(G: np.ndarray) -> np.ndarray:
    """exp(G) for anti-Hermitian G: with 1j*G = V diag(w) V^+, V e^{-iw} V^+."""
    w, V = np.linalg.eigh(1j * G)
    return (V * np.exp(-1j * w)) @ V.conjugate().T


def _annihilator(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim))
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def _loss_kraus(T: float, dim: int) -> list[np.ndarray]:
    ops = []
    for r in range(dim):
        E = np.zeros((dim, dim))
        for nn in range(r, dim):
            E[nn - r, nn] = math.sqrt(math.comb(nn, r) * T ** (nn - r) * (1.0 - T) ** r)
        ops.append(E)
    return ops


def _detector_diag(detector: DetectorModel, m: int, dim: int) -> np.ndarray:
    ns = np.arange(dim)
    eta = detector.efficiency
    if detector.kind is DetectorKind.NUMBER_RESOLVING:
        return np.array([binomial_pmf(eta, m, k) for k in ns])
    one = ns * eta * np.where(ns >= 1, (1.0 - eta) ** np.maximum(ns - 1, 0), 0.0)
    if detector.kind is DetectorKind.SINGLE_PHOTON:
        return one if m == 1 else 1.0 - one
    noclick = (1.0 - eta) ** ns
    return 1.0 - noclick if m == 1 else noclick


def required_n_max(config: ProtocolConfig, tail: float = 1e-12) -> int:
    """Photon-number cutoff covering every coherent amplitude in the pipeline."""
    alpha, theta = config.params.resolved()
    T_A, T_B = link_transmittance(config.geometry)
    amps = [alpha / math.sqrt(T_A), alpha / math.sqrt(T_B)]
    for _, d1, d2, _, _ in _final_branches(config):
        amps.extend([abs(d1), abs(d2)])
    amps.append(SQRT2 * alpha * abs(math.cos(theta / 2.0)))
    lam = max(a ** 2 for a in amps)
    return poisson_cutoff(lam, tail, 8) + 6  # margin for displacement spillover


def fock_oracle(config: ProtocolConfig, n_max: int | None = None,
                tail: float = 1e-10) -> OutcomeEnsemble:
    """Same contract as run_protocol, on a truncated number-state basis.

    Loss is applied with explicit Kraus operators, the half beam splitter is
    exponentiated from its quadratic generator, and displacements act as
    truncated unitaries.
    """
    if n_max is None:
        n_max = required_n_max(config)
    alpha, theta = config.params.resolved()
    T_A, T_B = link_transmittance(config.geometry)
    dim = n_max + 1

    # truncation pre-check on the largest pulse amplitude
    lam = max(alpha ** 2 / T_A, alpha ** 2 / T_B)
    if poisson_sf(n_max, lam) > tail:
        raise ValueError(
            f"n_max={n_max} insufficient for amplitude^2={lam:.3g}; "
            f"need n_max >= {required_n_max(config, tail)}")

    a1 = _annihilator(dim)

    # per-branch initial pulse kets with the interaction phases
    D_a = D_b = np.eye(dim)
    if config.variant is Variant.LOCAL_DISPLACEMENT:
        d_a = -(alpha / math.sqrt(T_A)) * math.cos(theta / 2.0)
        d_b = -(alpha / math.sqrt(T_B)) * math.cos(theta / 2.0)
        D_a = _expm_antihermitian(d_a * a1.T - d_a * a1)
        D_b = _expm_antihermitian(d_b * a1.T - d_b * a1)
    phi_a = (alpha ** 2 / T_A) * math.sin(theta)
    phi_b = (alpha ** 2 / T_B) * math.sin(theta)
    kets_a, kets_b, phases = [], [], []
    for (j, k) in BASIS_LABELS:
        ga = (alpha / math.sqrt(T_A)) * cmath.exp(1j * (-1) ** j * theta / 2.0)
        gb = (alpha / math.sqrt(T_B)) * cmath.exp(1j * (-1) ** k * theta / 2.0)
        kets_a.append(D_a @ _coherent_vec(ga, dim))
        kets_b.append(D_b @ _coherent_vec(gb, dim))
        phases.append(cmath.exp(-1j * ((-1) ** j * phi_a + (-1) ** k * phi_b) / 2.0))

    kraus_a = _loss_kraus(T_A, dim)
    kraus_b = _loss_kraus(T_B, dim)

    # beam splitter: coherent (ga, gb) -> ((ga-gb)/sqrt2, (ga+gb)/sqrt2)
    A = np.kron(a1, np.eye(dim))
    B = np.kron(np.eye(dim), a1)
    U = _expm_antihermitian((-math.pi / 4.0) * (A.T @ B - B.T @ A))
    if config.variant is Variant.CENTRAL_DISPLACEMENT:
        d = -SQRT2 * alpha * math.cos(theta / 2.0)
        D2 = _expm_antihermitian(d * a1.T - d * a1)
        U = np.kron(np.eye(dim), D2) @ U

    # mode operators per ordered branch pair, then the weighted diagonal
    diags = {}
    for r in range(4):
        for c in range(r, 4):
            Ma = sum(E @ np.outer(kets_a[r], kets_a[c].conjugate()) @ E.T
                     for E in kraus_a)
            Mb = sum(E @ np.outer(kets_b[r], kets_b[c].conjugate()) @ E.T
                     for E in kraus_b)
            M = np.kron(Ma, Mb)
            diags[(r, c)] = np.einsum("ij,ij->i", U @ M, U.conjugate()).reshape(dim, dim)

    rho0 = config.initial_density()
    grid = _outcome_grid(config.detector, _final_branches(config))
    ensemble = OutcomeEnsemble()
    pi = {m: _detector_diag(config.detector, m, dim)
          for m in {count for mn in grid for count in mn}}
    for (m, n) in grid:
        M = np.empty((4, 4), dtype=complex)
        for r in range(4):
            for c in range(4):
                W = diags[(r, c)] if c >= r else diags[(c, r)].conjugate()
                w = pi[m] @ W @ pi[n]
                M[r, c] = phases[r] * phases[c].conjugate() * w
        ensemble.entries[(m, n)] = _outcome_entry(rho0, M, m, n)
    return ensemble


# ---------------------------------------------------------------------------
# Phase-error extraction
# ---------------------------------------------------------------------------

_P_EVEN = np.diag([1.0, 0.0, 0.0, 1.0])
_P_ODD = np.diag([0.0, 1.0, 1.0, 0.0])


def phase_error_split(rho: np.ndarray, parity: str,
                      initial: np.ndarray | None = None):
    """Decompose a success-conditional state as (1-eps) P|phi> + eps Z_B P|phi>.

    Returns (eps, residual) where residual is the Frobenius distance between
    rho and the reconstructed two-term mixture.  ``initial`` is the pure input
    state (|++> by default).
    """
    if initial is None:
        initial = PLUS_PLUS
    P = _P_EVEN if parity == "even" else _P_ODD
    phi = P @ np.asarray(initial, dtype=complex)
    nrm = np.linalg.norm(phi)
    if nrm < 1e-15:
        raise ValueError("input state has no support on the announced parity")
    phi = phi / nrm
    phi_z = np.diag(Z_B) * phi
    if abs(np.vdot(phi, phi_z)) > 1e-10:
        raise ValueError("phase-flipped projection is not orthogonal; "
                         "decomposition undefined for this input")
    w0 = float((phi.conjugate() @ rho @ phi).real)
    w1 = float((phi_z.conjugate() @ rho @ phi_z).real)
    eps = w1 / (w0 + w1) if w0 + w1 > 0 else 0.0
    recon = (1.0 - eps) * np.outer(phi, phi.conjugate()) + \
        eps * np.outer(phi_z, phi_z.conjugate())
    residual = float(np.linalg.norm(rho - recon))
    return eps, residual


def ensemble_performance(ensemble: OutcomeEnsemble,
                         initial: np.ndarray | None = None):
    """(p, epsilon) extracted from an outcome ensemble on a pure input."""
    p = ensemble.success_probability()
    if p == 0.0:
        return 0.0, 0.0
    acc = 0.0
    for (m, n), entry in ensemble.success_items():
        eps, _ = phase_error_split(entry.state, outcome_parity(m, n), initial)
        acc += entry.probability * eps
    return p, acc / p
