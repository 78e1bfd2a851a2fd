"""Driver for ground-state preparation and property estimation.

Two spectral filters are chained: a coherent cosine stage
cos^{T'}(H~ - (E - tau) 1) that brings the state within O(p0) of the
ground state, then a virtual Gaussian stage exp(-sigma^2 H'^2 / 2) that
closes the remaining gap to O(eps).  Because the second stage is a
probability-weighted mixture of unitaries, the composite reduction
factor equals the survival probability of the cosine stage alone,
R = <psi| cos^{2T'}(H) |psi>.

A GspConfig diagonalises H once for the run; both stages multiply psi's
amplitudes in that eigenbasis, so no filter matrix is formed, and
``cosine_filter`` builds the cosine stage as a matrix only as the tests'
oracle.  The energy estimates E and E' the algorithm would obtain from
measurements are modeled as the true ground energy plus injected
offsets, so the robustness claims can be probed directly.  The
Theta-hidden scales of T', tau, sigma^2 and tau' are the module constants
C_T, C_TAU, C_SIGMA and C_TAU_PRIME.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import qcore

__all__ = [
    "GspConfig",
    "GspReport",
    "ComplexityReport",
    "cosine_filter",
    "cosine_params",
    "hybrid_gsp",
    "complexity_report",
    "random_gsp_instance",
    "write_report_rows_csv",
]

# Theta-hidden constants of the cosine order T' and shift tau, the Gaussian
# width sigma^2 and its shift tau'; 1 meets the accuracy the tests check.
C_T = 1.0
C_TAU = 1.0
C_SIGMA = 1.0
C_TAU_PRIME = 1.0


def cosine_filter(h_matrix, e: float, tau: float, order: int) -> np.ndarray:
    """cos^order(H - (e - tau) 1), evaluated on the spectrum of H."""
    if order < 0:
        raise ValueError("filter order must be nonnegative")
    w, v = qcore.eigh(h_matrix)
    return (v * np.cos(w - (e - tau)) ** order) @ v.conj().T


def cosine_params(delta: float, p0: float, eps: float) -> tuple[int, float]:
    """Filter order and shift for a target distance eps from overlap bound p0.

    order = ceil(C_T * delta^-2 * log^2(1/(p0*eps))),
    tau   = C_TAU * delta / log(1/(p0*eps)).
    """
    if not delta > 0.0:
        raise ValueError("spectral gap must be positive")
    if not (0.0 < p0 <= 1.0 and 0.0 < eps):
        raise ValueError("p0 and eps must be positive (p0 <= 1)")
    log_term = math.log(1.0 / (p0 * eps))
    if not log_term > 0.0:
        raise ValueError("p0 * eps must be < 1")
    order = math.ceil(C_T * log_term**2 / delta**2)
    tau = C_TAU * delta / log_term
    return order, tau


def _filter_quality(filtered: np.ndarray) -> tuple[float, float]:
    """(distance to the ground state up to global phase, survival norm).

    ``filtered`` holds the eigen-amplitudes, ground state first, of a
    filtered normalized state: survival = ||filtered|| and, with
    u = filtered / survival, distance = min over phases of ||u - e^{i phi} e_0||.
    """
    survival = float(np.linalg.norm(filtered))
    if survival <= 1e-300:
        return math.sqrt(2.0), 0.0
    # 2 - 2|u_0| = 2 ||u[1:]||^2 / (1 + |u_0|), without the cancellation near |u_0| = 1
    u = filtered / survival
    return math.sqrt(2.0) * float(np.linalg.norm(u[1:])) / math.sqrt(1.0 + abs(u[0])), survival


class GspConfig:
    """Problem instance: normalized Hamiltonian, overlap bound, accuracy target.

    e_offset / e_prime_offset model the errors of the measured energy
    estimates E and E' relative to the exact ground energy and are read
    only into ``e_estimate`` / ``e_prime_estimate``; tau_prime is also the
    accuracy scale E' is supposed to respect.  The Theta constants are the
    module constants C_T, C_TAU, C_SIGMA and C_TAU_PRIME.  The
    eigendecomposition of H is taken once here, as the read-only
    ``spectrum``, and both filters of the run act on psi's amplitudes in
    its eigenbasis.  ``stage1_params`` is (T', tau) for the cosine stage,
    which targets distance O(p0).
    """

    def __init__(self, h_matrix, p0: float, epsilon: float, e_offset: float = 0.0, e_prime_offset: float = 0.0):
        self.h_matrix = qcore.require_hermitian(h_matrix, what="h_matrix")
        self.spectrum = qcore.eigh(self.h_matrix)
        w = self.spectrum[0]
        if w[0] < -1e-9 or w[-1] > 1.0 + 1e-9:
            raise ValueError("spectrum must be normalized into [0, 1]")
        if w.size < 2:
            raise ValueError("need at least a two-level spectrum")
        for a in self.spectrum:
            a.setflags(write=False)
        self.lambda0, self.gap = float(w[0]), float(w[1] - w[0])
        if self.gap <= 1e-12:
            raise ValueError("ground state must be unique (gap above 1e-12)")
        if not 0.0 < p0 < 1.0:
            raise ValueError("p0 must lie in (0, 1)")
        if not 0.0 < epsilon < p0:
            raise ValueError("two-stage filtering assumes 0 < epsilon < p0")
        self.p0 = p0
        self.epsilon = epsilon
        self.dimension = self.h_matrix.shape[0]
        self.stage1_params = cosine_params(self.gap, p0, p0)
        self.sigma2 = C_SIGMA * math.log(p0 / epsilon) / self.gap**2
        self.tau_prime = C_TAU_PRIME * self.gap / math.sqrt(math.log(p0 / epsilon))
        self.e_estimate = self.lambda0 + e_offset
        self.e_prime_estimate = self.lambda0 + e_prime_offset


class GspReport(NamedTuple):
    """Outcome of the two-stage run on one input state."""

    dimension: int
    gap: float
    p0: float
    epsilon: float
    overlap: float
    precondition_ok: bool
    t_prime: int
    tau: float
    sigma2: float
    tau_prime: float
    stage1_distance: float
    stage1_survival: float
    final_distance: float
    final_survival: float
    r_factor: float
    total_time_term1: float
    total_time_term2: float


def hybrid_gsp(config: GspConfig, psi) -> GspReport:
    """Run cosine stage then Gaussian stage on |psi> and report the metrics.

    psi's amplitudes in the eigenbasis of H are multiplied by
    cos^{T'}(w - (E - tau)), then, normalized, by
    exp(-sigma^2 (w - (E' - tau'))^2 / 2); each stage's survival and
    distance are read from its amplitudes.  r_factor is the composite
    reduction factor; the Gaussian stage is a mixture of unitaries, so it
    contributes a factor 1 and r_factor equals the cosine-stage survival
    probability.  An overlap below p0 does not raise; it is flagged.
    """
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(vec))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError("psi must be normalized")
    w, v = config.spectrum
    # v^dagger psi as the conjugate of psi^dagger v, so no conjugate of v is formed
    amps = (vec.conj() @ v).conj() / nrm
    overlap = float(abs(amps[0]) ** 2)

    t_prime, tau = config.stage1_params
    stage1 = np.cos(w - (config.e_estimate - tau)) ** t_prime * amps
    stage1_distance, stage1_survival = _filter_quality(stage1)
    r_factor = stage1_survival**2

    shifted = w - (config.e_prime_estimate - config.tau_prime)
    # a cosine stage that keeps nothing leaves the Gaussian stage nothing to keep
    if stage1_survival:
        stage1 = stage1 / stage1_survival
    final = np.exp(-0.5 * config.sigma2 * shifted**2) * stage1
    final_distance, final_survival = _filter_quality(final)

    cost = complexity_report(config.p0, config.gap, config.epsilon)
    return GspReport(
        dimension=config.dimension,
        gap=config.gap,
        p0=config.p0,
        epsilon=config.epsilon,
        overlap=overlap,
        precondition_ok=overlap >= config.p0 - 1e-12,
        t_prime=t_prime,
        tau=tau,
        sigma2=config.sigma2,
        tau_prime=config.tau_prime,
        stage1_distance=stage1_distance,
        stage1_survival=stage1_survival,
        final_distance=final_distance,
        final_survival=final_survival,
        r_factor=r_factor,
        total_time_term1=cost.term1,
        total_time_term2=cost.term2,
    )


class ComplexityReport(NamedTuple):
    """Total-time expressions for the two-stage method.

    term1/term2 are the two summands of the total time
    p0^-1 eps^-2 (Delta^-2 log^2(1/p0) + Delta^-1 sqrt(log(1/eps) log(p0/eps))).
    interpolated rewrites the sum with eps = p0^alpha; limit_large_alpha is
    the alpha -> infinity asymptote p0^-1 Delta^-1 eps^-2 log(1/eps).
    """

    p0: float
    delta: float
    epsilon: float
    alpha: float
    term1: float
    term2: float
    total: float
    interpolated: float
    limit_large_alpha: float


def complexity_report(p0: float, delta: float, eps: float, alpha: float | None = None) -> ComplexityReport:
    if not delta > 0.0:
        raise ValueError("spectral gap must be positive")
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must lie in (0, 1)")
    if not 0.0 < eps <= p0:
        raise ValueError("eps must lie in (0, p0]")
    if alpha is None:
        alpha = math.log(eps) / math.log(p0)
    if alpha < 1.0:
        raise ValueError("alpha = log(eps)/log(p0) below 1 means eps > p0")
    scale = 1.0 / eps**2 / p0
    log_p0 = math.log(1.0 / p0)
    log_eps = math.log(1.0 / eps)
    term1 = scale * log_p0**2 / delta**2
    term2 = scale / delta * math.sqrt(log_eps * math.log(p0 / eps))
    limit = scale / delta * log_eps
    interpolated = limit * (log_eps / (delta * alpha**2) + math.sqrt(1.0 - 1.0 / alpha))
    return ComplexityReport(
        p0=p0,
        delta=delta,
        epsilon=eps,
        alpha=float(alpha),
        term1=term1,
        term2=term2,
        total=term1 + term2,
        interpolated=interpolated,
        limit_large_alpha=limit,
    )


def random_gsp_instance(dim: int, delta: float, p0: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(H~, psi) with exact gap delta and overlap exactly p0.

    The ground energy is drawn from [0.05, 0.15), the rest of the
    spectrum fills (lambda0 + delta, 1] uniformly, eigenvectors are a
    Haar-ish random unitary, and psi puts sqrt(p0) on the ground state
    plus a random excited component.
    """
    if not (0.0 < delta < 1.0 and 0.0 < p0 < 1.0):
        raise ValueError("need 0 < delta < 1 and 0 < p0 < 1")
    rng = np.random.default_rng(seed)
    lam0 = float(rng.uniform(0.05, 0.15))
    if lam0 + delta >= 1.0:
        raise ValueError("gap too large for the [0, 1] normalization")
    rest = rng.uniform(lam0 + delta, 1.0, size=dim - 2)
    evals = np.concatenate(([lam0, lam0 + delta], np.sort(rest)))
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r))).conj()[None, :]
    h = (q * evals[None, :]) @ q.conj().T
    h = 0.5 * (h + h.conj().T)
    excited = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    ground = q[:, 0]
    excited = excited - ground * np.vdot(ground, excited)
    excited = excited / np.linalg.norm(excited)
    psi = math.sqrt(p0) * ground + math.sqrt(1.0 - p0) * excited
    return h, psi / np.linalg.norm(psi)


def write_report_rows_csv(path, reports: list[GspReport], seed: int) -> None:
    header = "dim,Delta,p0,eps,Tprime,sigma2,R,stage1_dist,final_dist,total_time_term1,total_time_term2"
    rows = (
        (r.dimension, r.gap, r.p0, r.epsilon, r.t_prime, r.sigma2, r.r_factor,
         r.stage1_distance, r.final_distance, r.total_time_term1, r.total_time_term2)
        for r in reports
    )
    qcore.save_csv(path, header, rows, seed)
