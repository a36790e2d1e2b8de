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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .formulas import (DetectorKind, DetectorModel, InteractionParams,
                       LinkGeometry, binomial_pmf, link_transmittance,
                       poisson_cutoff)
from .gadgets import PHI_PLUS, PSI_PLUS  # noqa: F401  (re-exported)

SQRT2 = math.sqrt(2.0)

#: computational-basis labels of the memory pair, index order 2*j + k
BASIS_LABELS = ((0, 0), (0, 1), (1, 0), (1, 1))

PLUS_PLUS = np.full(4, 0.5, dtype=complex)


class Variant(Enum):
    """Where the cancelling displacement is applied."""

    CENTRAL_DISPLACEMENT = "central"
    LOCAL_DISPLACEMENT = "local"


#: signs (-1)^j of qubit A and (-1)^k of qubit B, in BASIS_LABELS order
SIGN_A = np.array([1.0, 1.0, -1.0, -1.0])
SIGN_B = np.array([1.0, -1.0, 1.0, -1.0])


def _log_overlap(g, h):
    """ln<g|h> = -|g - h|^2/2 + i Im(g* h): exactly 0 at g == h, at any size."""
    # real products: a fused complex g* g can leave an imaginary part
    return -0.5 * np.abs(g - h) ** 2 + 1j * (g.real * h.imag - g.imag * h.real)


def coherent_overlap(gamma, gamma_prime):
    """<gamma|gamma_prime> for coherent states; broadcasts."""
    return np.exp(_log_overlap(gamma, gamma_prime))


def povm_overlap(detector: DetectorModel, m: int, gamma, gamma_prime):
    """Coherent-state matrix element <gamma| Pi_m |gamma_prime>; broadcasts.

    For threshold and single-photon detectors m is a binary announcement
    (click / exactly-one-photon); exponents are accumulated in log domain
    before a single exp.
    """
    eta = detector.efficiency
    x = np.conj(gamma) * gamma_prime
    log_ov = _log_overlap(gamma, gamma_prime)

    def resolved(mm: int):
        if mm == 0:
            return np.exp(log_ov - eta * x)
        live = eta * x != 0  # also 0 where the product underflows
        log_ex = np.log(np.where(live, eta * x, 1.0))
        return np.where(live, np.exp(log_ov - eta * x + mm * log_ex
                                     - math.lgamma(mm + 1)), 0j)[()]

    if detector.kind is DetectorKind.NUMBER_RESOLVING:
        if m < 0:
            raise ValueError("m must be nonnegative")
        return resolved(m)
    if m not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1 for {detector.kind}, got {m}")
    if detector.kind is DetectorKind.THRESHOLD:
        if m == 0:
            return resolved(0)
        return np.exp(log_ov) - resolved(0)
    # single photon: announced outcome is exactly one photon
    if m == 1:
        return resolved(1)
    return np.exp(log_ov) - resolved(1)


@dataclass(frozen=True)
class ProtocolConfig:
    params: InteractionParams
    geometry: LinkGeometry
    detector: DetectorModel
    variant: Variant = Variant.CENTRAL_DISPLACEMENT
    initial_state: np.ndarray | None = None  # 4-vector or 4x4 density matrix

    def initial_density(self) -> np.ndarray:
        if self.initial_state is None:
            return np.outer(PLUS_PLUS, PLUS_PLUS.conjugate())
        arr = np.asarray(self.initial_state, dtype=complex)
        if arr.shape not in ((4,), (4, 4)):
            raise ValueError("initial_state must be a 4-vector or 4x4 matrix")
        vector = arr.ndim == 1
        scale = float(np.linalg.norm(arr) if vector else np.trace(arr).real)
        if not 0.0 < scale < math.inf:
            raise ValueError(f"initial_state {'norm' if vector else 'trace'} "
                             f"must be finite and > 0, got {scale!r}")
        arr = arr / scale
        return np.outer(arr, arr.conjugate()) if vector else arr


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
        return ((mn, e) for mn, e in self.entries.items() if outcome_parity(*mn))

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
    """(phase, d1, d2, env_a, env_b) after steps (i)-(iv), as 4-vectors.

    Entry i is branch BASIS_LABELS[i]; s = (-1)^j on arm A, (-1)^k on arm B.
    U_theta turns a pulse by e^{i s theta/2} with the branch phase
    e^{-i s |pulse|^2 sin(theta)/2}; a displacement d adds e^{i Im(d pulse*)};
    loss keeps sqrt(T) of a pulse and leaks sqrt(1 - T) to its environment.
    """
    alpha, theta = config.params.resolved()
    T_A, T_B = link_transmittance(config.geometry)
    for arm, T in (("A", T_A), ("B", T_B)):  # before any division by sqrt(T)
        if not (0.0 < T <= 1.0 and math.isfinite(alpha * alpha / T)):
            raise ValueError(f"arm {arm}: transmittance T_{arm} = {T!r} must "
                             f"lie in (0, 1] with alpha^2/T_{arm} finite")
    energy = alpha * alpha * (1.0 / T_A + 1.0 / T_B)
    if not energy < 1e306:  # |pulse differences|^2 stay finite
        raise ValueError(f"alpha^2 (1/T_A + 1/T_B) = {energy!r} must be < 1e306")
    a0, b0 = alpha / math.sqrt(T_A), alpha / math.sqrt(T_B)
    a = a0 * np.exp(0.5j * theta * SIGN_A)
    b = b0 * np.exp(0.5j * theta * SIGN_B)
    phase = np.exp(-0.5j * math.sin(theta) * (a0**2 * SIGN_A + b0**2 * SIGN_B))
    if config.variant is Variant.LOCAL_DISPLACEMENT:
        d_a, d_b = -a0 * math.cos(theta / 2.0), -b0 * math.cos(theta / 2.0)
        phase = phase * np.exp(1j * ((d_a * a.conj() + d_b * b.conj()).imag))
        a, b = a + d_a, b + d_b
    env_a, env_b = a * math.sqrt(1.0 - T_A), b * math.sqrt(1.0 - T_B)
    a, b = a * math.sqrt(T_A), b * math.sqrt(T_B)
    d1, d2 = (a - b) / SQRT2, (a + b) / SQRT2
    if config.variant is Variant.CENTRAL_DISPLACEMENT:
        d = -SQRT2 * alpha * math.cos(theta / 2.0)
        phase = phase * np.exp(1j * (d * d2.conj()).imag)
        d2 = d2 + d
    return phase, d1, d2, env_a, env_b


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


def _counts(detector: DetectorModel, d1, d2) -> range:
    """Announced photon counts per output mode: 0/1, or 0..m_max resolved,
    m_max at a Poisson tail of 1e-13."""
    if detector.kind is not DetectorKind.NUMBER_RESOLVING:
        return range(2)
    lam = float(max(np.max(np.abs(d1) ** 2), np.max(np.abs(d2) ** 2)))
    return range(poisson_cutoff(lam * detector.efficiency, 1e-13, 4) + 1)


def run_protocol(config: ProtocolConfig) -> OutcomeEnsemble:
    """Full outcome ensemble of one protocol attempt.

    Beam-splitter convention: d1 = (a - b)/sqrt(2), d2 = (a + b)/sqrt(2), so
    the even-parity branches interfere constructively into d2.  The parity
    correction Z on qubit B is applied whenever m + n is odd.  Weights are
    [r, c] arrays over branch pairs.
    """
    rho0 = config.initial_density()
    phase, d1, d2, env_a, env_b = _final_branches(config)
    base = (np.outer(phase, phase.conj())
            * coherent_overlap(env_a[None, :], env_a[:, None])
            * coherent_overlap(env_b[None, :], env_b[:, None]))
    det = config.detector
    counts = _counts(det, d1, d2)
    P1 = [povm_overlap(det, m, d1[None, :], d1[:, None]) for m in counts]
    P2 = [povm_overlap(det, n, d2[None, :], d2[:, None]) for n in counts]
    ensemble = OutcomeEnsemble()
    for m in counts:
        for n in counts:
            ensemble.entries[(m, n)] = _outcome_entry(
                rho0, base * P1[m] * P2[n], m, n)
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


def required_n_max(config: ProtocolConfig) -> int:
    """Photon-number cutoff covering every coherent amplitude in the pipeline,
    at a Poisson tail of 1e-12."""
    alpha, theta = config.params.resolved()
    T_A, T_B = link_transmittance(config.geometry)
    _, d1, d2, _, _ = _final_branches(config)
    amps = [alpha / math.sqrt(T_A), alpha / math.sqrt(T_B), *np.abs(d1),
            *np.abs(d2), SQRT2 * alpha * abs(math.cos(theta / 2.0))]
    lam = max(a ** 2 for a in amps)
    return poisson_cutoff(lam, 1e-12, 8) + 6  # margin for displacement spillover


def fock_oracle(config: ProtocolConfig) -> OutcomeEnsemble:
    """Same contract as run_protocol, on a truncated number-state basis.

    Loss is applied with explicit Kraus operators, the half beam splitter is
    exponentiated from its quadratic generator, and displacements act as
    truncated unitaries.
    """
    alpha, theta = config.params.resolved()
    T_A, T_B = link_transmittance(config.geometry)
    dim = required_n_max(config) + 1
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
    counts = _counts(config.detector, *_final_branches(config)[1:3])
    grid = [(m, n) for m in counts for n in counts]
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
