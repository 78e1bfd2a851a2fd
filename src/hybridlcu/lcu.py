"""Linear combinations of unitaries and the coherent-LCU map.

An operator ``K = sum_i c_i U_i`` with nonnegative weights ``c_i`` and
unitaries ``U_i`` is stored as an :class:`LcuDecomposition`. The normalized
sum ``K_lcu = sum_i p_i U_i`` with ``p_i = c_i / |c|_1`` drives the CP map
``rho -> K_lcu rho K_lcu^dag`` whose trace is the post-selection success
probability of the coherent implementation.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import qcore
from .qcore import TOL

__all__ = [
    "UnitaryTerm",
    "LcuDecomposition",
    "normalize",
    "assemble_klcu",
    "success_probability",
    "apply_cp_map",
    "expectation_unnormalized",
    "decomposition_to_text",
    "decomposition_from_text",
]


class UnitaryTerm:
    """One term ``c_i U_i``; complex coefficients have their phase folded into U."""

    def __init__(self, coefficient, unitary):
        c = complex(coefficient)
        u = qcore.as_matrix(unitary)
        if abs(c.imag) > 0 or c.real < 0:
            # absorb the phase so the stored coefficient is a nonnegative real
            mag = abs(c)
            if mag > 0:
                u = (c / mag) * u
            c = mag
        else:
            c = c.real
        if c > 0 and not qcore.is_unitary(u):
            raise ValueError("term matrix is not unitary within tolerance")
        self.coefficient = float(c)
        self.unitary = u
        self.unitary.setflags(write=False)
        self.dimension = u.shape[0]


class LcuDecomposition:
    """Validated, normalized LCU decomposition.

    Use :func:`normalize` (or the convenience constructor
    :meth:`from_terms`) rather than instantiating directly.
    """

    def __init__(self, terms: list[UnitaryTerm], dropped: int = 0):
        if not terms:
            raise ValueError("degenerate decomposition: no terms with positive coefficient")
        dim = terms[0].dimension
        for t in terms:
            if t.dimension != dim:
                raise ValueError("terms do not share one dimension")
        one_norm = float(sum(t.coefficient for t in terms))
        if one_norm <= 0:
            raise ValueError("degenerate decomposition: all coefficients zero")
        self.terms = tuple(terms)
        self.m = len(terms)
        self.dimension = dim
        self.one_norm = one_norm
        probs = np.array([t.coefficient / one_norm for t in terms])
        if not abs(probs.sum() - 1.0) <= TOL.prob_norm:
            raise qcore.InvariantViolation(f"term probabilities sum to {probs.sum()!r}, not 1")
        self.probs = probs
        self.probs.setflags(write=False)
        self.dropped = dropped

    @classmethod
    def from_terms(cls, coefficients, unitaries) -> "LcuDecomposition":
        return normalize(list(zip(coefficients, unitaries)))

    def unitaries(self) -> list[np.ndarray]:
        return [t.unitary for t in self.terms]


def normalize(terms) -> LcuDecomposition:
    """Build a decomposition from ``(coefficient, unitary)`` pairs.

    Zero-coefficient terms are dropped (with a warning) because empty
    groups would break partition invariants downstream; term order is
    otherwise preserved.
    """
    built = []
    dropped = 0
    for c, u in terms:
        term = UnitaryTerm(c, u)
        if term.coefficient == 0.0:
            dropped += 1
            continue
        built.append(term)
    if dropped:
        warnings.warn(f"dropped {dropped} zero-coefficient term(s)", stacklevel=2)
    return LcuDecomposition(built, dropped=dropped)


def assemble_klcu(dec: LcuDecomposition) -> np.ndarray:
    """The normalized sum ``sum_i p_i U_i`` (generally non-unitary)."""
    out = np.zeros((dec.dimension, dec.dimension), dtype=complex)
    for p, t in zip(dec.probs, dec.terms):
        out += p * t.unitary
    return out


def apply_cp_map(dec: LcuDecomposition, state) -> np.ndarray:
    """Unnormalized output ``K_lcu rho K_lcu^dag`` of the coherent map."""
    rho = qcore.density(state)
    k = assemble_klcu(dec)
    return k @ rho @ k.conj().T


def success_probability(dec: LcuDecomposition, state) -> float:
    """Post-selection probability ``tr[K_lcu rho K_lcu^dag]`` in [0, 1]."""
    val = float(np.trace(apply_cp_map(dec, state)).real)
    return val


def expectation_unnormalized(dec: LcuDecomposition, state, obs) -> float:
    """``|c|_1^2 tr[O K_lcu rho K_lcu^dag] = tr[O K rho K^dag]``."""
    o = qcore.as_observable(obs).matrix
    rho = qcore.density(state)
    if o.shape[0] != dec.dimension or rho.shape[0] != dec.dimension:
        raise ValueError("dimension mismatch between decomposition, state and observable")
    val = complex(np.trace(o @ apply_cp_map(dec, rho)))
    if abs(val.imag) > TOL.unitarity * max(1.0, abs(val.real)):
        raise qcore.InvariantViolation(f"expectation has imaginary residue {val.imag:.3e}")
    return dec.one_norm**2 * val.real


## --- file format --------------------------------------------------------
## "m <count> dim <d>" header, then per term one coefficient line followed
## by a matrix block in the qcore text format.


def decomposition_to_text(dec: LcuDecomposition) -> str:
    parts = [f"m {dec.m} dim {dec.dimension}\n"]
    for t in dec.terms:
        parts.append(f"{t.coefficient:.17g}\n")
        parts.append(qcore.matrix_to_text(t.unitary))
    return "".join(parts)


def decomposition_from_text(text: str) -> LcuDecomposition:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty decomposition text")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "m" or head[2] != "dim":
        raise ValueError(f"malformed decomposition header {lines[0]!r}")
    m, d = int(head[1]), int(head[3])
    pos = 1
    pairs = []
    for _ in range(m):
        if pos >= len(lines):
            raise ValueError("truncated decomposition text")
        coeff = float(lines[pos])
        pos += 1
        block = lines[pos : pos + 1 + d * d]
        mat = qcore.matrix_from_text("\n".join(block))
        if mat.shape != (d, d):
            raise ValueError(f"term matrix has shape {mat.shape}, expected ({d}, {d})")
        pos += 1 + d * d
        pairs.append((coeff, mat))
    if pos != len(lines):
        raise ValueError("trailing content after final term")
    return normalize(pairs)
