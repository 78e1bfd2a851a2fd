"""Linear combinations of unitaries and the coherent-LCU map.

An operator ``K = sum_i c_i U_i`` with nonnegative weights ``c_i`` and
unitaries ``U_i`` is stored as an :class:`LcuDecomposition`: one read-only
``(m, d, d)`` stack of the ``U_i`` beside the weights ``c_i`` and
``p_i = c_i / |c|_1``. Every operator built from it is one contraction
over the stack. The normalized sum ``K_lcu = sum_i p_i U_i`` drives the CP
map ``rho -> K_lcu rho K_lcu^dag`` whose trace is the post-selection
success probability of the coherent implementation.

The constructor is the only way in and checks every term, so each
decomposition that exists has unitary terms and positive weights that sum
to ``|c|_1``.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import qcore
from .qcore import TOL

__all__ = [
    "LcuDecomposition",
    "assemble_klcu",
    "success_probability",
    "apply_cp_map",
    "expectation_unnormalized",
]


class LcuDecomposition:
    """Validated, normalized LCU decomposition of ``sum_i c_i U_i``.

    The constructor refuses unequal lengths, non-finite coefficients,
    non-unitary terms and mixed dimensions. The phase of a complex or
    negative coefficient is folded into its unitary, so every weight is a
    positive real. Zero-coefficient terms are dropped with a warning and
    counted in ``dropped``, because empty groups would break partition
    invariants downstream; term order is otherwise kept.

    ``unitaries`` has shape ``(m, d, d)``; ``coefficients`` and ``probs``
    have shape ``(m,)``. All three are read-only.
    """

    def __init__(self, coefficients, unitaries):
        kept_c = []
        kept_u = []
        dropped = 0
        for i, (c, u) in enumerate(zip(coefficients, unitaries, strict=True)):
            c = complex(c)
            if not np.isfinite(c):
                raise ValueError(f"term {i} has a non-finite coefficient {c}")
            u = qcore.as_matrix(u)
            weight = abs(c)
            if weight == 0.0:
                dropped += 1
                continue
            if c != weight:
                u = (c / weight) * u  # fold the phase into the unitary
            if not qcore.is_unitary(u):
                raise ValueError("term matrix is not unitary within tolerance")
            kept_c.append(weight)
            kept_u.append(u)
        if dropped:
            warnings.warn(f"dropped {dropped} zero-coefficient term(s)", stacklevel=2)
        if not kept_c:
            raise ValueError("degenerate decomposition: no terms with positive coefficient")
        if len({u.shape for u in kept_u}) != 1:
            raise ValueError("terms do not share one dimension")
        # summed in term order: a pairwise numpy sum could move the last
        # digit of |c|_1, hence of every p_i and of the sampled shots
        self.one_norm = float(sum(kept_c))
        self.coefficients = np.array(kept_c)
        self.unitaries = np.stack(kept_u)
        self.m, self.dimension = self.unitaries.shape[:2]
        self.probs = self.coefficients / self.one_norm
        if not abs(self.probs.sum() - 1.0) <= TOL.prob_norm:
            raise qcore.InvariantViolation(f"term probabilities sum to {self.probs.sum()!r}, not 1")
        for a in (self.coefficients, self.unitaries, self.probs):
            a.setflags(write=False)
        self.dropped = dropped

    @classmethod
    def from_terms(cls, coefficients, unitaries) -> "LcuDecomposition":
        """The constructor, under the name the drivers call it by."""
        return cls(coefficients, unitaries)


def assemble_klcu(dec: LcuDecomposition) -> np.ndarray:
    """The normalized sum ``sum_i p_i U_i`` (generally non-unitary)."""
    return np.tensordot(dec.probs, dec.unitaries, axes=1)


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

