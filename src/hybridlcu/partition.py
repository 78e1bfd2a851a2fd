"""Set partitions of the term indices and the reduction factor R.

Partitioning the index set of an LCU decomposition fixes which terms are
implemented coherently (inside one group, sharing a block encoding) and
which interferences are simulated virtually (across groups). The reduction
factor

    R = sum_k q_k tr[K_k^dag K_k rho],   q_k = sum_{i in S_k} p_i,

is the second-moment scale of the hybrid estimator and satisfies
``P <= R <= 1`` with the coherent/singleton partitions attaining the
extremes. R (W = 1), R^O and the split increase (W = O^2) and the channel
expectation (W = O) are quadratic forms in one m x m matrix per instance,
``G_ij = p_i p_j Re tr[W U_i rho U_j^dag]``; group operators are assembled
only for block encodings. R sums ``f(S) = 1^T G[S,S] 1 / q_S`` over groups,
so the exhaustive scan reads it from one table of f over all 2^m subsets.

Indices are 0-based internally; the text form (``1,2|3|4,5``) is 1-based.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import lcu, qcore

__all__ = [
    "PartitionError",
    "OverlapError",
    "GapError",
    "EmptyGroupError",
    "Partition",
    "group_operators",
    "GroupOperator",
    "gram",
    "subset_values",
    "r_from_gram",
    "reduction_factor",
    "reduction_factor_obs",
    "is_refinement",
    "split_delta",
    "fragment_bound",
    "harmonic_mean",
    "tail_bound_R",
    "label_arrays",
    "enumerate_partitions",
    "scan",
    "MAX_ENUM_M",
]

MAX_ENUM_M = 10  # B(10) = 115975; enumeration beyond this blows up


class PartitionError(ValueError):
    pass


class OverlapError(PartitionError):
    pass


class GapError(PartitionError):
    pass


class EmptyGroupError(PartitionError):
    pass


class Partition:
    """Canonicalized set partition of ``range(m)``.

    The constructor checks that ``groups`` cover ``range(m)`` disjointly
    and raises :class:`EmptyGroupError`, :class:`PartitionError` (index out
    of range), :class:`OverlapError` or :class:`GapError` otherwise. Groups
    are ordered by least member, members ascending, so equal partitions are
    structurally equal.
    """

    def __init__(self, groups, m: int):
        seen: set[int] = set()
        cleaned = []
        for g in groups:
            g = [int(i) for i in g]
            if not g:
                raise EmptyGroupError("partition contains an empty group")
            for i in g:
                if i < 0 or i >= m:
                    raise PartitionError(f"index {i} outside range(0, {m})")
                if i in seen:
                    raise OverlapError(f"index {i} appears in more than one group")
                seen.add(i)
            cleaned.append(tuple(sorted(g)))
        if len(seen) != m:
            missing = sorted(set(range(m)) - seen)
            raise GapError(f"indices {missing} not covered by any group")
        self.groups = tuple(sorted(cleaned, key=lambda g: g[0]))
        self.m = m
        self.G = len(cleaned)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.groups == other.groups and self.m == other.m

    def __hash__(self):
        return hash((self.groups, self.m))

    def __repr__(self):
        return f"Partition({self.to_text()!r}, m={self.m})"

    @property
    def a_star(self) -> int:
        """Common ancilla width ``max_k ceil(log2 |S_k|)`` of the block encodings."""
        return max((len(g) - 1).bit_length() for g in self.groups)

    def to_text(self) -> str:
        return "|".join(",".join(str(i + 1) for i in g) for g in self.groups)

    @classmethod
    def coherent(cls, m: int) -> "Partition":
        return cls([tuple(range(m))], m)

    @classmethod
    def singletons(cls, m: int) -> "Partition":
        return cls([(i,) for i in range(m)], m)


class GroupOperator(NamedTuple):
    """Weight, normalized operator and member indices of one group."""

    weight: float
    operator: np.ndarray
    members: tuple[int, ...]


def group_operators(dec: lcu.LcuDecomposition, part: Partition) -> list[GroupOperator]:
    """Assemble ``q_k = sum p_i`` and ``K_k = sum (p_i/q_k) U_i`` per group."""
    if part.m != dec.m:
        raise ValueError(f"partition over {part.m} indices, decomposition has {dec.m} terms")
    ops = []
    for g in part.groups:
        # summed in member order, like |c|_1: q_k feeds the sampled pair weights
        q = float(sum(dec.probs[i] for i in g))
        k = np.tensordot(dec.probs[list(g)] / q, dec.unitaries[list(g)], axes=1)
        k.setflags(write=False)
        ops.append(GroupOperator(weight=q, operator=k, members=tuple(g)))
    return ops


def gram(dec: lcu.LcuDecomposition, state, weight=None) -> np.ndarray:
    """Real symmetric ``G_ij = p_i p_j Re tr[W U_i rho U_j^dag]``; ``W = 1`` when omitted."""
    rho = qcore.density(state)
    us = dec.unitaries
    left = us @ rho if weight is None else np.asarray(weight) @ us @ rho
    # tr[A U^dag] is the flat inner product of A with conj(U)
    g = (left.reshape(dec.m, -1) @ us.reshape(dec.m, -1).conj().T).real
    g *= np.outer(dec.probs, dec.probs)
    return (g + g.T) / 2.0


def _sum_left(x: np.ndarray) -> np.ndarray:
    """Left-to-right sums along the last axis, with the sign of a zero sum dropped."""
    return np.cumsum(x, axis=-1)[..., -1] + 0.0


def subset_values(g: np.ndarray, probs, masks: np.ndarray) -> np.ndarray:
    """``f(S) = 1^T G[S,S] 1 / q_S`` per row S of the boolean ``(n, m)`` array ``masks``; 0 for S empty.

    Both sums run left to right over members by elementwise operations, so
    no row's bits depend on the BLAS kernel or on the other rows.
    """
    block = _sum_left(np.where(masks, _sum_left(np.where(masks[:, None, :], g, 0.0)), 0.0))
    q = _sum_left(np.where(masks, probs, 0.0))
    return np.divide(block, q, out=np.zeros_like(block), where=masks.any(axis=1))


def r_from_gram(g: np.ndarray, probs, part: Partition) -> float:
    """``sum_k f(S_k)`` left to right: R or R^O, by the weight ``g`` was built with."""
    if part.m != g.shape[0]:
        raise ValueError(f"partition over {part.m} indices, Gram matrix has {g.shape[0]} terms")
    masks = np.array([np.isin(np.arange(part.m), grp) for grp in part.groups])
    return float(_sum_left(subset_values(g, probs, masks)))


def reduction_factor(dec: lcu.LcuDecomposition, part: Partition, state) -> float:
    """``R = sum_k q_k tr[K_k^dag K_k rho]``."""
    return r_from_gram(gram(dec, state), dec.probs, part)


def reduction_factor_obs(dec: lcu.LcuDecomposition, part: Partition, state, obs) -> float:
    """``R^O = sum_k q_k tr[O^2 K_k rho K_k^dag]``, the sampler's E[g^2]."""
    o = qcore.as_observable(obs).matrix
    return r_from_gram(gram(dec, state, o @ o), dec.probs, part)


def is_refinement(fine: Partition, coarse: Partition) -> bool:
    """True iff every group of ``fine`` lies inside one group of ``coarse``."""
    if fine.m != coarse.m:
        raise ValueError("partitions are over different index sets")
    owner = {}
    for gi, g in enumerate(coarse.groups):
        for i in g:
            owner[i] = gi
    for g in fine.groups:
        owners = {owner[i] for i in g}
        if len(owners) != 1:
            return False
    return True


def split_delta(dec, part: Partition, group_idx: int, subset_a, state, obs) -> float:
    """Exact increase of R^O when one group is split in two.

    Splitting group ``S`` into ``A`` and ``B = S \\ A`` changes R^O by

        (q_A q_B / (q_A + q_B)) tr[(O K_A - O K_B)^dag (O K_A - O K_B) rho]

    which is manifestly nonnegative (refinement can only raise R^O). It equals
    ``(q_A q_B / q_S) w^T G w`` on ``W = O^2``, ``w = 1/q_A`` on A, ``-1/q_B`` on B.
    """
    if part.m != dec.m:
        raise ValueError(f"partition over {part.m} indices, decomposition has {dec.m} terms")
    group = part.groups[group_idx]
    sub_a = tuple(sorted(int(i) for i in subset_a))
    if not sub_a or not set(sub_a) < set(group):
        raise ValueError(f"subset {sub_a} is not a proper nonempty subset of group {group}")
    sub_b = tuple(i for i in group if i not in sub_a)
    q_a = float(dec.probs[list(sub_a)].sum())
    q_b = float(dec.probs[list(sub_b)].sum())
    w = np.zeros(dec.m)
    w[list(sub_a)] = 1.0 / q_a
    w[list(sub_b)] = -1.0 / q_b
    o = qcore.as_observable(obs).matrix
    return (q_a * q_b / (q_a + q_b)) * float(w @ gram(dec, state, o @ o) @ w)


def fragment_bound(weights, group_idx: int, obs) -> float:
    """Lemma bound ``|O^2| q_G`` on the R^O cost of fully fragmenting a group."""
    return qcore.as_observable(obs).spectral_norm ** 2 * float(weights[group_idx])


def harmonic_mean(a: float, b: float) -> float:
    if a < 0 or b < 0:
        raise ValueError("harmonic mean takes nonnegative arguments")
    if a + b == 0:
        return 0.0
    return 2.0 * a * b / (a + b)


def tail_bound_R(q_a: float, q_b: float, p: float) -> float:
    """Upper bound ``P + q_B + 2 H(q_A, q_B)`` on R for {S_A} + fragmented S_B."""
    return p + q_b + 2.0 * harmonic_mean(q_a, q_b)


def label_arrays(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Restricted-growth labels of every partition of ``range(m)``, with its group bitmasks.

    Row r of the labels puts index i in group ``r[i]``, groups numbered by
    least member, in :func:`enumerate_partitions` order. Column k of the
    bitmasks holds group k's, 0 past the last group.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > MAX_ENUM_M:
        raise ValueError(f"enumeration capped at m = {MAX_ENUM_M}")
    labels, masks = np.zeros((1, 1), dtype=np.int8), np.eye(1, m, dtype=np.int64)
    for i in range(1, m):
        fan = labels.max(axis=1) + 2  # a row with top label t continues with each of 0..t+1
        child = np.arange(fan.sum()) - np.repeat(np.cumsum(fan) - fan, fan)
        labels = np.column_stack((np.repeat(labels, fan, axis=0), child.astype(np.int8)))
        masks = np.repeat(masks, fan, axis=0)
        masks[np.arange(len(masks)), child] += 1 << i
    return labels, masks


def enumerate_partitions(m: int) -> list[Partition]:
    """All set partitions of ``range(m)`` (count = Bell number B(m))."""
    masks = label_arrays(m)[1].tolist()
    members = [[i for i in range(m) if s >> i & 1] for s in range(1 << m)]
    return [Partition([members[s] for s in row if s], m) for row in masks]


def scan(dec: lcu.LcuDecomposition, state) -> list[tuple[str, int, float, float]]:
    """``(text, a*, R, R - P)`` of every partition, in :func:`enumerate_partitions` order.

    R is the left-to-right sum of one table of f over the row's group
    bitmasks, so it equals :func:`reduction_factor` to the bit.
    """
    masks = label_arrays(dec.m)[1]
    members = (np.arange(1 << dec.m)[:, None] >> np.arange(dec.m)) & 1 == 1
    table = subset_values(gram(dec, state), dec.probs, members)
    r = _sum_left(table[masks])
    digits = [str(i + 1) for i in range(dec.m)]
    texts = np.array([",".join([digits[i] for i in range(dec.m) if s >> i & 1]) for s in range(1 << dec.m)], dtype=object)
    # column 0 always holds the group of index 0; the later groups, and the
    # 0 masks that pad short rows, add "|" + text and "" by object-array sums
    pieces = np.array(["|" + text if text else "" for text in texts], dtype=object)
    parts = texts[masks[:, 0]] + pieces[masks[:, 1:]].sum(axis=1, initial="")
    widths = np.array([max(int(n) - 1, 0).bit_length() for n in members.sum(axis=1)])
    return list(zip(parts.tolist(), widths[masks].max(axis=1).tolist(), r.tolist(), (r - table[-1]).tolist()))
