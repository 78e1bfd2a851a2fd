"""Steane-code error detection with a coherent X round and a virtual Z round.

The code space projector factors as P_C = P_Z P_X with P_X, P_Z the group
averages of the X-type and Z-type stabilizer sectors.  Running the X
sector as a coherent detection round and the Z sector as a sampled
mixture of its eight (unitary) elements gives the reduction factor
R = tr[P_X rho], which depends on the Z-error rate only; the fully
coherent method pays 1/P with P = tr[P_C rho].

Every operator is an X-type or Z-type Pauli string, held as a 7-bit mask
of its qubits with qubit 0 the most significant bit (the leftmost
Kronecker factor).  One convention serves the stabilizer generators, the
eight elements of each sector (the XOR span of its generators), the
code basis and the noise channel: an X string permutes the basis indices,
i -> i ^ mask, and a Z string multiplies index i by
(-1)^parity(i & mask).

P and R are read in the Heisenberg picture.  P_C is the mean of the 64
products Z^f X^e of a Z-sector element f and an X-sector element e, and
P_X the mean of the X^e alone.  The biased channel only rescales each
product: dephasing at p_Z multiplies Z^f X^e by (1 - 2 p_Z)^|e| and bit
flips at p_X by (1 - 2 p_X)^|f|, with |.| the weight of the mask.  So P
and R at every noise point are weighted sums of one 8 x 8 table
T[f, e] = tr[Z^f X^e rho], taken once from a gather of 1024 entries of
rho with no 128 x 128 product.

The code basis is closed-form: |0_L> is the uniform superposition of the
basis states on the eight X-sector masks and |1_L> its image under
transversal X, so no projector is built and no eigensolver runs.  The
dense Schroedinger-picture channel stays as the oracle the table is
checked against; the dense stabilizer projectors are test oracles only.

Every Z^f X^e is a stabilizer and fixes every code state, so T is all
ones for any code state and the sweep weights that table with no codeword
drawn: R = (1 + 7 x^4)/8 and P = R (1 + 7 y^4)/8 with x = 1 - 2 p_Z,
y = 1 - 2 p_X.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qcore

__all__ = [
    "NoiseModel",
    "QedMetrics",
    "SweepRow",
    "N_QUBITS",
    "random_codeword",
    "apply_pauli_channel",
    "apply_biased_noise",
    "stabilizer_traces",
    "metrics_from_traces",
    "qed_metrics",
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


# row k, column e: k ^ e, so rho[_SHIFTED, k] holds the diagonal of every X^e rho
_SHIFTED = _INDEX[:, None] ^ np.array(_ELEMENT_MASKS)
# row f: the Z string on element f as a diagonal
_Z_SIGNS = np.array([_signs(f) for f in _ELEMENT_MASKS])
# the qubits each element acts on, the exponent of its noise damping
_WEIGHTS = np.array([bin(mask).count("1") for mask in _ELEMENT_MASKS])


@functools.lru_cache(maxsize=1)
def _code_basis() -> np.ndarray:
    """Orthonormal (128, 2) basis |0_L>, |1_L> of the code space. Cached; read-only.

    |0_L> is the uniform superposition of the basis states |e> over the eight
    X-sector masks e, and |1_L> its image under transversal X, |e ^ 1111111>.
    Each Z generator overlaps every X-sector mask and the all-ones mask on an
    even number of qubits, so both states are fixed by the Z sector; the X
    sector permutes each orbit onto itself.
    """
    masks = np.array(_ELEMENT_MASKS)
    basis = np.zeros((DIM, 2))
    basis[masks, 0] = basis[masks ^ (DIM - 1), 1] = len(masks) ** -0.5
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
        if not (math.isfinite(self.r) and self.r >= 0.0 and self.p_x <= 1.0):
            raise ValueError("r must be finite and >= 0 with p_x = r*p_z <= 1")

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


def _as_density(rho) -> np.ndarray:
    rho = qcore.as_matrix(rho)
    if rho.shape != (DIM, DIM):
        raise ValueError(f"expected a {DIM} x {DIM} density matrix")
    return rho


def apply_biased_noise(rho, noise: NoiseModel) -> np.ndarray:
    """Z-dephasing then X-flip channel on every qubit."""
    out = np.array(_as_density(rho), dtype=complex)
    for q in range(N_QUBITS):
        out = apply_pauli_channel(out, q, noise.p_z, "Z")
    for q in range(N_QUBITS):
        out = apply_pauli_channel(out, q, noise.p_x, "X")
    return out


class QedMetrics(NamedTuple):
    p: float
    r_factor: float


def stabilizer_traces(rho) -> np.ndarray:
    """T[f, e] = tr[Z^f X^e rho] over the sector elements: an 8 x 8 real array.

    The diagonal of X^e rho is rho[k ^ e, k], so column e is the Z sign
    table applied to one gathered off-diagonal of rho.  Each Z^f X^e is
    Hermitian (the two sectors commute), so a Hermitian rho has real traces.
    """
    return (_Z_SIGNS @ _as_density(rho)[_SHIFTED, _INDEX[:, None]]).real


def metrics_from_traces(traces: np.ndarray, p_z: float = 0.0, p_x: float = 0.0) -> QedMetrics:
    """P and R after the biased noise, from the table of :func:`stabilizer_traces`.

    P = wz @ T @ wx / 64 and R = T[0] @ wx / 8 (element 0 is the identity),
    with wx[e] = (1 - 2 p_Z)^|e| and wz[f] = (1 - 2 p_X)^|f|.
    """
    wx = (1.0 - 2.0 * p_z) ** _WEIGHTS
    wz = (1.0 - 2.0 * p_x) ** _WEIGHTS
    return QedMetrics(p=float(wz @ traces @ wx) / 64, r_factor=float(traces[0] @ wx) / 8)


def qed_metrics(rho) -> QedMetrics:
    """P = tr[P_C rho] (fully coherent) and R = tr[P_X rho] (hybrid)."""
    return metrics_from_traces(stabilizer_traces(rho))


class SweepRow(NamedTuple):
    r: float
    p_z: float
    p_x: float
    p: float
    r_factor: float
    seed: int

    @property
    def gap(self) -> float:
        return self.r_factor - self.p


def fig_sweep(r_values, pz_grid, codewords: int, seed: int) -> list[SweepRow]:
    """P and R of every code state at each (r, p_Z) cell.

    Every Z^f X^e is a stabilizer, so any code state's trace table is all
    ones: each cell weights that table and no codeword is drawn.  R reads
    p_Z alone, so it is bit-identical across r.  ``seed`` labels the rows;
    ``codewords`` changes no output.
    """
    traces = np.ones((8, 8))
    rows = []
    for r in r_values:
        for p_z in pz_grid:
            noise = NoiseModel(p_z=float(p_z), r=float(r))
            metrics = metrics_from_traces(traces, noise.p_z, noise.p_x)
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


def write_sweep_csv(path, rows: list[SweepRow], seed: int) -> None:
    cells = ((r.r, r.p_z, r.p_x, r.p, r.r_factor, r.gap, r.seed) for r in rows)
    qcore.save_csv(path, "r,pZ,pX,P,R,R_minus_P,seed", cells, seed)
