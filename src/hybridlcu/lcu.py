"""Linear combinations of unitaries and the coherent-LCU map.

An operator ``K = sum_i c_i U_i`` with nonnegative weights ``c_i`` and
unitaries ``U_i`` is stored as an :class:`LcuDecomposition`: one read-only
``(m, d, d)`` stack of the ``U_i`` beside the weights ``c_i`` and
``p_i = c_i / |c|_1``. Every operator built from it is one contraction
over the stack. The normalized sum ``K_lcu = sum_i p_i U_i`` is the group
operator of ``Partition.coherent(m)``: the coherent-LCU map is
``hybrid.HybridChannel`` on that partition, and its success probability P
is ``partition.reduction_factor`` there.

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
