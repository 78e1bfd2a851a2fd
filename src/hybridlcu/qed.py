"""Steane-code error detection with a coherent X round and a virtual Z round.

The code space projector factors as P_C = P_Z P_X with P_X, P_Z the group
averages of the X-type and Z-type stabilizer sectors.  Running the X
sector as a coherent detection round and the Z sector as a sampled
mixture of its eight (unitary) elements gives the reduction factor
R = tr[P_X rho], which depends on the Z-error rate only; the fully
coherent method pays 1/P with P = tr[P_C rho].

Everything is dense 7-qubit (128 x 128) density-matrix arithmetic; inputs
are Haar-random codewords, not stabilizer states, so tableau methods
would not apply.  Every operator is an X-type or Z-type Pauli string,
held as a 7-bit mask of its qubits with qubit 0 the most significant bit
(the leftmost Kronecker factor).  One convention serves the stabilizer
generators, the eight elements of each sector (the XOR span of its
generators), the projectors and the noise channel: an X string permutes
the basis indices, i -> i ^ mask, and a Z string multiplies index i by
(-1)^parity(i & mask), so the channel forms no 128 x 128 product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import hybrid, lcu, partition, qcore

__all__ = [
    "NoiseModel",
    "QedMetrics",
    "QedHybridReport",
    "SweepRow",
    "N_QUBITS",
    "steane_projectors",
    "random_codeword",
    "apply_pauli_channel",
    "apply_biased_noise",
    "qed_metrics",
    "hybrid_qed_channel",
    "fig_sweep",
    "write_sweep_csv",
]

N_QUBITS = 7
DIM = 2**N_QUBITS

# qubit q (0-based) is bit N_QUBITS - 1 - q of a basis index and of a mask
_INDEX = np.arange(DIM)
# parity of every 7-bit integer, so Z-string signs are one table lookup
_PARITY = np.array([bin(i).count("1") & 1 for i in range(DIM)])

# standard generator convention: supports {1,2,3,4}, {1,2,5,6}, {1,3,5,7}
_GENERATOR_MASKS = (0b1111000, 0b1100110, 0b1010101)
# each sector's eight elements: the XOR span of its generators, doubling
# the list once per generator (identity, g1, g2, g1 g2, g3, ...)
_ELEMENT_MASKS = functools.reduce(lambda span, g: span + tuple(e ^ g for e in span), _GENERATOR_MASKS, (0,))


def _flip(mask: int) -> np.ndarray:
    """The X string on ``mask`` as a basis permutation: |i> -> |i ^ mask>."""
    return _INDEX ^ mask


def _signs(mask: int) -> np.ndarray:
    """The Z string on ``mask`` as a diagonal: (-1)^parity(i & mask)."""
    return 1.0 - 2.0 * _PARITY[_INDEX & mask]


def _sector_elements(pauli: str):
    """The X-type or Z-type stabilizer elements, one 128 x 128 matrix at a time."""
    eye = np.eye(DIM, dtype=complex)
    for e in _ELEMENT_MASKS:
        yield eye[_flip(e)] if pauli == "X" else np.diag(_signs(e).astype(complex))


@functools.lru_cache(maxsize=1)
def steane_projectors() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P_X, P_Z, P_C = P_Z P_X): sector group averages and the code projector.

    Cached; the returned matrices are read-only.
    """
    px = sum(_sector_elements("X")) / len(_ELEMENT_MASKS)
    pz = sum(_sector_elements("Z")) / len(_ELEMENT_MASKS)
    out = (px, pz, pz @ px)
    for a in out:
        a.setflags(write=False)
    return out


@functools.lru_cache(maxsize=1)
def _code_basis() -> np.ndarray:
    """Orthonormal (128, 2) basis of the code space. Cached; read-only."""
    _, _, pc = steane_projectors()
    vals, vecs = np.linalg.eigh(pc)
    basis = vecs[:, vals > 0.5]
    if basis.shape[1] != 2:
        raise qcore.InvariantViolation(f"code space has dimension {basis.shape[1]}, expected 2")
    basis.setflags(write=False)
    return basis


def random_codeword(rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state in the 2-dim code space."""
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi = _code_basis() @ amps
    return psi / np.linalg.norm(psi)


@dataclass(frozen=True)
class NoiseModel:
    """Independent per-qubit bit-flip and phase-flip rates with p_X = r p_Z."""

    p_z: float
    r: float

    def __post_init__(self):
        if not 0.0 <= self.p_z <= 1.0:
            raise ValueError("p_z must lie in [0, 1]")
        if self.r < 0.0 or self.p_x > 1.0:
            raise ValueError("r must be >= 0 with p_x = r*p_z <= 1")

    @property
    def p_x(self) -> float:
        return self.r * self.p_z


def apply_pauli_channel(rho: np.ndarray, qubit: int, p: float, pauli: str) -> np.ndarray:
    """(1-p) rho + p P_q rho P_q for a single-qubit X or Z conjugation.

    qubit is 0-based with qubit 0 leftmost in the kron ordering.
    """
    if pauli not in ("X", "Z"):
        raise ValueError("only X and Z channels are supported")
    if not 0 <= qubit < N_QUBITS:
        raise IndexError("qubit index out of range")
    if p == 0.0:
        return rho
    mask = 1 << (N_QUBITS - 1 - qubit)
    if pauli == "Z":
        signs = _signs(mask)
        conj = rho * np.outer(signs, signs)
    else:
        perm = _flip(mask)
        conj = rho[np.ix_(perm, perm)]
    return (1.0 - p) * rho + p * conj


def apply_biased_noise(rho, noise: NoiseModel) -> np.ndarray:
    """Z-dephasing then X-flip channel on every qubit."""
    out = np.array(qcore.as_matrix(rho), dtype=complex)
    if out.shape != (DIM, DIM):
        raise ValueError(f"expected a {DIM} x {DIM} density matrix")
    for q in range(N_QUBITS):
        out = apply_pauli_channel(out, q, noise.p_z, "Z")
    for q in range(N_QUBITS):
        out = apply_pauli_channel(out, q, noise.p_x, "X")
    return out


@dataclass(frozen=True)
class QedMetrics:
    p: float
    r_factor: float

    @property
    def gap(self) -> float:
        return self.r_factor - self.p


def qed_metrics(rho) -> QedMetrics:
    """P = tr[P_C rho] (fully coherent) and R = tr[P_X rho] (hybrid)."""
    px, _, pc = steane_projectors()
    rho = qcore.as_matrix(rho)
    p = float(np.trace(pc @ rho).real)
    r = float(np.trace(px @ rho).real)
    return QedMetrics(p=p, r_factor=r)


@dataclass(frozen=True)
class QedHybridReport:
    """Cross-check of the two-round wiring against the direct projector traces."""

    r_composed: float
    r_direct: float
    p_composed: float
    p_direct: float


def hybrid_qed_channel(rho, z_round_identity_only: bool = False) -> QedHybridReport:
    """Route the detection through the generic two-round hybrid machinery.

    Round 1 is the coherent X-sector detection (all eight elements in one
    group, K = P_X); round 2 samples the Z-sector elements as singletons
    (q_S = 1/8, each element unitary).  The composed reduction factor must
    equal tr[P_X rho] and the composed identity expectation tr[P_C rho].
    With z_round_identity_only the second round is the trivial group {1},
    which collapses the construction to plain coherent P_X detection.
    """
    rho = qcore.as_matrix(rho)
    weights = [1.0 / len(_ELEMENT_MASKS)] * len(_ELEMENT_MASKS)
    dec_x = lcu.LcuDecomposition.from_terms(weights, _sector_elements("X"))
    ch_x = hybrid.HybridChannel(dec_x, partition.Partition.coherent(dec_x.m))
    if z_round_identity_only:
        dec_z = lcu.LcuDecomposition.from_terms([1.0], [np.eye(DIM)])
    else:
        dec_z = lcu.LcuDecomposition.from_terms(weights, _sector_elements("Z"))
    ch_z = hybrid.HybridChannel(dec_z, partition.Partition.singletons(dec_z.m))
    _, r_composed = hybrid.compose_rounds([ch_x, ch_z], rho)
    p_composed = hybrid.expectation_rounds([ch_x, ch_z], rho, qcore.Observable.identity(DIM))
    metrics = qed_metrics(rho)
    p_direct = metrics.r_factor if z_round_identity_only else metrics.p
    return QedHybridReport(
        r_composed=r_composed,
        r_direct=metrics.r_factor,
        p_composed=p_composed,
        p_direct=p_direct,
    )


@dataclass(frozen=True)
class SweepRow:
    r: float
    p_z: float
    p_x: float
    p: float
    r_factor: float
    seed: int

    @property
    def gap(self) -> float:
        return self.r_factor - self.p


def fig_sweep(
    r_values=(0.1, 0.2, 0.3),
    pz_grid=None,
    codewords: int = 32,
    seed: int = 0,
) -> list[SweepRow]:
    """P and R averaged over a fixed set of random codewords.

    The codeword set is drawn once from the seed and shared across every
    (r, p_Z) cell, so the r-independence of R holds row-to-row exactly.
    P = tr[P_C rho] and R = tr[P_X rho] are linear in rho, and so is the
    Pauli channel, so their codeword averages equal their values on the
    averaged density; each cell takes one noise pass on that density.
    """
    if pz_grid is None:
        pz_grid = np.geomspace(1e-3, 1e-1, 10)
    rng = np.random.default_rng(seed)
    states = np.array([random_codeword(rng) for _ in range(codewords)])
    rho_bar = states.T @ states.conj() / codewords
    rows = []
    for r in r_values:
        for p_z in pz_grid:
            noise = NoiseModel(p_z=float(p_z), r=float(r))
            metrics = qed_metrics(apply_biased_noise(rho_bar, noise))
            rows.append(
                SweepRow(
                    r=float(r),
                    p_z=float(p_z),
                    p_x=noise.p_x,
                    p=metrics.p,
                    r_factor=metrics.r_factor,
                    seed=seed,
                )
            )
    return rows


def write_sweep_csv(path, rows: list[SweepRow], seed: int, version: str) -> None:
    cells = ((r.r, r.p_z, r.p_x, r.p, r.r_factor, r.gap, r.seed) for r in rows)
    qcore.save_csv(path, "r,pZ,pX,P,R,R_minus_P,seed", cells, seed, version)
