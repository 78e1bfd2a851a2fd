import math

import numpy as np
import pytest
from conftest import PAULI_Z, PLUS, bell_number, random_density, random_hermitian, random_lcu, random_pure
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlcu import hybrid, lcu, partition
from hybridlcu.partition import (
    MAX_ENUM_M,
    EmptyGroupError,
    GapError,
    OverlapError,
    Partition,
    enumerate_partitions,
    gram,
    group_operators,
    harmonic_mean,
    is_refinement,
    label_arrays,
    reduction_factor,
    reduction_factor_obs,
    scan,
    split_delta,
    tail_bound_R,
)

RHO_PLUS = np.outer(PLUS, PLUS)


## ------------------------------------------------------------------
## validation and canonical form
## ------------------------------------------------------------------

def test_validate_trivial_partitions():
    assert Partition([range(5)], 5).G == 1
    assert Partition([[0], [1], [2]], 3).G == 3


def test_validate_named_errors():
    with pytest.raises(OverlapError):
        Partition([[0, 1], [1, 2]], 3)
    with pytest.raises(GapError):
        Partition([[0, 1]], 3)
    with pytest.raises(EmptyGroupError):
        Partition([[0], []], 1)
    with pytest.raises(partition.PartitionError):
        Partition([[0, 7]], 3)
    # an empty group before the last one is refused by name, not by an IndexError
    with pytest.raises(EmptyGroupError, match="empty group"):
        Partition([(0,), (), (1, 2)], 3)
    with pytest.raises(partition.PartitionError, match=r"index 5 outside range\(0, 3\)"):
        Partition([(0, 5), (1, 2)], 3)
    with pytest.raises(partition.PartitionError, match=r"index -1 outside range\(0, 2\)"):
        Partition([(-1,), (0, 1)], 2)


def test_canonical_ordering():
    p = Partition([[3, 1], [2, 0]], 4)
    assert p.groups == ((0, 2), (1, 3))


def test_text_roundtrip_one_based():
    assert Partition([[4, 3], [2], [1, 0]], 5).to_text() == "1,2|3|4,5"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7), st.integers(0, 10**9))
def test_random_group_assignment_always_validates(m, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, m, size=m)
    groups = [[i for i in range(m) if labels[i] == lab] for lab in set(labels.tolist())]
    p = Partition(groups, m)
    assert sorted(i for g in p.groups for i in g) == list(range(m))


## ------------------------------------------------------------------
## enumeration
## ------------------------------------------------------------------

def test_enumerate_counts_match_bell_numbers():
    for m in range(1, MAX_ENUM_M + 1):
        labels, masks = label_arrays(m)
        assert labels.shape == masks.shape == (bell_number(m), m)
        assert len(np.unique(labels, axis=0)) == len(labels)
        # restricted growth: each label is at most one above every label before it
        assert np.all(labels[:, 0] == 0)
        assert np.all(labels[:, 1:] <= np.maximum.accumulate(labels, axis=1)[:, :-1] + 1)
        # column k of the bitmasks is the set of indices labelled k
        bits = 1 << np.arange(m)
        for k in range(m):
            assert np.array_equal(masks[:, k], ((labels == k) * bits).sum(axis=1))
    for m in (1, 2, 3, 4, 5, 6):
        parts = enumerate_partitions(m)
        assert len(parts) == bell_number(m)
        assert len(set(parts)) == len(parts)


def test_label_rows_validate_in_enumeration_order():
    rng = np.random.default_rng(8)
    for m in range(1, 8):
        labels, _ = label_arrays(m)
        parts = [Partition([np.flatnonzero(row == k) for k in range(row.max() + 1)], m) for row in labels]
        assert parts == enumerate_partitions(m)
        texts = [row[0] for row in scan(random_lcu(m, 2, rng), random_pure(2, rng))]
        assert texts == [p.to_text() for p in parts]


def test_enumerate_cap():
    for enumerate_ in (enumerate_partitions, label_arrays):
        with pytest.raises(ValueError, match="capped"):
            enumerate_(11)
        with pytest.raises(ValueError, match=">= 1"):
            enumerate_(0)


def test_scan_rows_equal_reduction_factor_bitwise():
    for m in range(1, 7):
        for seed in range(3):
            rng = np.random.default_rng(10 * m + seed)
            dec = random_lcu(m, 3, rng)
            state = random_pure(3, rng) if seed % 2 else random_density(3, rng)
            p_value = reduction_factor(dec, Partition.coherent(m), state)
            parts, rows = enumerate_partitions(m), scan(dec, state)
            assert len(rows) == len(parts)
            for part, (text, a_star, r, gap) in zip(parts, rows):
                expected = reduction_factor(dec, part, state)
                assert (text, a_star) == (part.to_text(), part.a_star)
                assert r.hex() == expected.hex()
                assert gap.hex() == (expected - p_value).hex()


def test_scan_text_column_matches_per_row_join():
    # past the CLI cap of m = 8, up to MAX_ENUM_M: the text column against
    # one "|".join per row over the label_arrays group bitmasks
    rng = np.random.default_rng(12)
    for m in (9, MAX_ENUM_M):
        masks = label_arrays(m)[1]
        group_texts = [",".join(str(i + 1) for i in range(m) if s >> i & 1) for s in range(1 << m)]
        expected = ["|".join(group_texts[s] for s in row if s) for row in masks.tolist()]
        assert [row[0] for row in scan(random_lcu(m, 2, rng), random_pure(2, rng))] == expected


def test_a_star_is_one_integer_rule():
    # every nonempty S is the one group of width > 0 in {S} + singletons,
    # so the scan's a* of that partition is its per-mask width, and the
    # block encoding of S carries that many ancilla qubits
    rng = np.random.default_rng(9)
    for m in range(1, MAX_ENUM_M + 1):
        dec = random_lcu(m, 2, rng)
        scanned = {text: a_star for text, a_star, _, _ in scan(dec, random_pure(2, rng))}
        for s in range(1, 1 << m):
            group = [i for i in range(m) if s >> i & 1]
            part = Partition([group] + [[i] for i in range(m) if i not in group], m)
            width = math.ceil(math.log2(len(group)))
            assert scanned[part.to_text()] == part.a_star == width
            (op,) = [g for g in group_operators(dec, part) if list(g.members) == group]
            assert hybrid.build_block_encoding(op, dec).shape == (2**width * 2,) * 2


## ------------------------------------------------------------------
## group operators and reduction factors
## ------------------------------------------------------------------

def test_group_operators_singletons_and_coherent():
    rng = np.random.default_rng(1)
    dec = random_lcu(4, 3, rng)
    singles = group_operators(dec, Partition.singletons(4))
    for i, g in enumerate(singles):
        assert abs(g.weight - dec.probs[i]) <= 1e-15
        assert np.allclose(g.operator, dec.unitaries[i])
    coh = group_operators(dec, Partition.coherent(4))
    assert abs(coh[0].weight - 1.0) <= 1e-12
    assert np.allclose(coh[0].operator, lcu.assemble_klcu(dec), atol=1e-12)


def test_group_operators_weighted_example():
    # p = (0.5, 0.25, 0.25) grouped as {0} | {1,2}
    u = [np.eye(2), PAULI_Z, np.array([[0, 1], [1, 0]], dtype=complex)]
    dec = lcu.LcuDecomposition.from_terms([2.0, 1.0, 1.0], u)
    ops = group_operators(dec, Partition([[0], [1, 2]], 3))
    assert np.allclose([g.weight for g in ops], [0.5, 0.5])
    assert np.allclose(ops[1].operator, (u[1] + u[2]) / 2)


def test_group_reconstruction_invariant():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        dec = random_lcu(5, 3, rng)
        for p in enumerate_partitions(5)[:: max(1, seed + 1)]:
            total = sum(g.weight * g.operator for g in group_operators(dec, p))
            assert np.linalg.norm(total - lcu.assemble_klcu(dec)) <= 1e-12


def test_reduction_factor_extremes():
    rng = np.random.default_rng(3)
    dec = random_lcu(4, 4, rng)
    rho = random_density(4, rng)
    assert abs(reduction_factor(dec, Partition.singletons(4), rho) - 1.0) <= 1e-12
    p_success = lcu.success_probability(dec, rho)
    assert abs(reduction_factor(dec, Partition.coherent(4), rho) - p_success) <= 1e-12


def test_reduction_factor_two_term_example():
    dec = lcu.LcuDecomposition.from_terms([1.0, 1.0], [np.eye(2), PAULI_Z])
    assert abs(reduction_factor(dec, Partition.coherent(2), RHO_PLUS) - 0.5) <= 1e-12


def test_sandwich_property_random():
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        dec = random_lcu(4, 3, rng)
        rho = random_density(3, rng)
        p_success = lcu.success_probability(dec, rho)
        for part in enumerate_partitions(4):
            r = reduction_factor(dec, part, rho)
            assert p_success - 1e-9 <= r <= 1.0 + 1e-9


def test_monotone_under_refinement_exhaustive_m4():
    rng = np.random.default_rng(42)
    dec = random_lcu(4, 3, rng)
    rho = random_density(3, rng)
    parts = enumerate_partitions(4)
    rvals = {p: reduction_factor(dec, p, rho) for p in parts}
    for fine in parts:
        for coarse in parts:
            if is_refinement(fine, coarse):
                assert rvals[coarse] <= rvals[fine] + 1e-9


def test_reduction_factor_obs_cases():
    rng = np.random.default_rng(5)
    dec = random_lcu(4, 2, rng)
    rho = random_density(2, rng)
    for part in (Partition.singletons(4), Partition.coherent(4), Partition([[0, 2], [1, 3]], 4)):
        r = reduction_factor(dec, part, rho)
        assert abs(reduction_factor_obs(dec, part, rho, np.eye(2)) - r) <= 1e-12
        # O with O^2 = 1 keeps R^O = R
        assert abs(reduction_factor_obs(dec, part, rho, PAULI_Z) - r) <= 1e-12


def test_reduction_factor_obs_norm_bound():
    rng = np.random.default_rng(6)
    dec = random_lcu(5, 3, rng)
    rho = random_density(3, rng)
    obs = np.diag([0.3, -1.7, 0.9]).astype(complex)
    norm2 = 1.7**2
    for part in enumerate_partitions(5)[::7]:
        r = reduction_factor(dec, part, rho)
        r_obs = reduction_factor_obs(dec, part, rho, obs)
        assert r_obs <= r * norm2 + 1e-10


## ------------------------------------------------------------------
## Gram core against explicitly assembled group operators
## ------------------------------------------------------------------


def reference_r(dec, part, rho):
    return sum(
        g.weight * np.trace(g.operator.conj().T @ g.operator @ rho).real for g in group_operators(dec, part)
    )


def reference_r_obs(dec, part, rho, obs):
    o2 = obs @ obs
    return sum(
        g.weight * np.trace(o2 @ g.operator @ rho @ g.operator.conj().T).real for g in group_operators(dec, part)
    )


def reference_split_delta(dec, part, group_idx, subset_a, rho, obs):
    group = part.groups[group_idx]
    sub_b = [i for i in group if i not in subset_a]

    def weight_and_op(idx):
        q = float(sum(dec.probs[i] for i in idx))
        return q, sum((dec.probs[i] / q) * dec.unitaries[i] for i in idx)

    q_a, k_a = weight_and_op(subset_a)
    q_b, k_b = weight_and_op(sub_b)
    diff = obs @ k_a - obs @ k_b
    return (q_a * q_b / (q_a + q_b)) * np.trace(diff.conj().T @ diff @ rho).real


def test_gram_forms_match_group_operator_assembly_exhaustive_m6():
    rng = np.random.default_rng(606)
    dec = random_lcu(6, 3, rng)
    rho = random_density(3, rng)
    obs = random_hermitian(3, rng)
    parts = enumerate_partitions(6)
    assert len(parts) == 203
    for part in parts:
        assert abs(reduction_factor(dec, part, rho) - reference_r(dec, part, rho)) <= 1e-12
        assert abs(reduction_factor_obs(dec, part, rho, obs) - reference_r_obs(dec, part, rho, obs)) <= 1e-12
        for gidx, group in enumerate(part.groups):
            if len(group) < 2:
                continue
            subset_a = group[::2]
            got = split_delta(dec, part, gidx, subset_a, rho, obs)
            assert abs(got - reference_split_delta(dec, part, gidx, subset_a, rho, obs)) <= 1e-12


def test_gram_is_symmetric():
    rng = np.random.default_rng(607)
    dec = random_lcu(5, 4, rng)
    rho = random_density(4, rng)
    obs = random_hermitian(4, rng)
    for weight in (None, obs, obs @ obs):
        g = gram(dec, rho, weight)
        assert g.shape == (5, 5)
        assert np.array_equal(g, g.T)


## ------------------------------------------------------------------
## refinement predicate
## ------------------------------------------------------------------

def test_is_refinement_cases():
    m = 4
    anything = Partition([[0, 1], [2, 3]], m)
    assert is_refinement(Partition.singletons(m), anything)
    assert is_refinement(anything, Partition.coherent(m))
    a = Partition([[0, 1], [2]], 3)
    b = Partition([[0, 2], [1]], 3)
    assert not is_refinement(a, b)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**9))
def test_refinement_partial_order_properties(m, seed):
    rng = np.random.default_rng(seed)
    parts = enumerate_partitions(m)
    p = parts[rng.integers(len(parts))]
    q = parts[rng.integers(len(parts))]
    assert is_refinement(p, p)
    if is_refinement(p, q) and is_refinement(q, p):
        assert p == q


## ------------------------------------------------------------------
## split delta and the lemma bounds
## ------------------------------------------------------------------

def test_split_delta_duplicate_unitaries_zero():
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    dec = lcu.LcuDecomposition.from_terms([1.0, 1.0], [u, u.copy()])
    rng = np.random.default_rng(0)
    rho = random_density(2, rng)
    d = split_delta(dec, Partition.coherent(2), 0, [0], rho, np.eye(2))
    assert abs(d) <= 1e-12


def test_split_delta_matches_direct_difference():
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        m = int(rng.integers(3, 6))
        dec = random_lcu(m, 3, rng)
        rho = random_density(3, rng)
        obs = np.diag(rng.uniform(-1, 1, size=3)).astype(complex)
        parts = enumerate_partitions(m)
        part = parts[rng.integers(len(parts))]
        sizes = [len(g) for g in part.groups]
        if max(sizes) < 2:
            continue
        gidx = max(range(len(sizes)), key=lambda i: sizes[i])
        group = part.groups[gidx]
        cut = int(rng.integers(1, len(group)))
        subset_a = group[:cut]
        delta = split_delta(dec, part, gidx, subset_a, rho, obs)
        split_groups = [g for i, g in enumerate(part.groups) if i != gidx]
        split_groups += [subset_a, tuple(i for i in group if i not in subset_a)]
        fine = Partition(split_groups, m)
        direct = reduction_factor_obs(dec, fine, rho, obs) - reduction_factor_obs(dec, part, rho, obs)
        assert delta >= -1e-12
        assert abs(delta - direct) <= 1e-9


def test_split_delta_harmonic_mean_bound():
    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        dec = random_lcu(4, 2, rng)
        rho = random_density(2, rng)
        obs = np.diag(rng.uniform(-1, 1, size=2)).astype(complex)
        part = Partition.coherent(4)
        group = part.groups[0]
        subset_a = group[:2]
        q_a = float(sum(dec.probs[list(subset_a)]))
        q_b = float(sum(dec.probs[i] for i in group if i not in subset_a))
        delta = split_delta(dec, part, 0, subset_a, rho, obs)
        o2_norm = float(np.abs(np.diag(obs)).max()) ** 2
        assert delta <= 2.0 * o2_norm * harmonic_mean(q_a, q_b) + 1e-12


def test_split_delta_rejects_bad_subset():
    dec = lcu.LcuDecomposition.from_terms([1.0, 1.0], [np.eye(2), PAULI_Z])
    with pytest.raises(ValueError):
        split_delta(dec, Partition.coherent(2), 0, [0, 1], RHO_PLUS, np.eye(2))
    with pytest.raises(ValueError):
        split_delta(dec, Partition.coherent(2), 0, [], RHO_PLUS, np.eye(2))
    with pytest.raises(ValueError, match="partition over 3 indices, decomposition has 2 terms"):
        split_delta(dec, Partition.coherent(3), 0, [0], RHO_PLUS, np.eye(2))


def test_fragment_bound_formula_and_instances():
    assert abs(partition.fragment_bound([0.9, 0.1], 1, np.eye(3)) - 0.1) <= 1e-15
    for seed in range(2):
        rng = np.random.default_rng(400 + seed)
        dec = random_lcu(5, 3, rng)
        rho = random_density(3, rng)
        obs = np.diag(rng.uniform(-1, 1, size=3)).astype(complex)
        part = Partition([[0, 1], [2, 3, 4]], 5)
        weights = [g.weight for g in group_operators(dec, part)]
        fragmented = Partition([[0, 1], [2], [3], [4]], 5)
        diff = reduction_factor_obs(dec, fragmented, rho, obs) - reduction_factor_obs(dec, part, rho, obs)
        assert diff <= partition.fragment_bound(weights, 1, obs) + 1e-12


def test_harmonic_mean_values():
    assert harmonic_mean(1.0, 1.0) == 1.0
    assert harmonic_mean(0.7, 0.0) == 0.0
    assert abs(harmonic_mean(0.3, 0.6) - 0.4) <= 1e-15


def test_tail_bound_r():
    assert tail_bound_R(0.5, 0.0, 0.3) == 0.3
    # q_a = q_b = 0.5 gives H = 0.5, so the bound reads P + 0.5 + 1.0
    assert abs(tail_bound_R(0.5, 0.5, 0.2) - 1.7) <= 1e-15
    # bound holds on an explicit instance: {S_A} plus fragmented S_B
    rng = np.random.default_rng(77)
    dec = random_lcu(5, 3, rng)
    rho = random_density(3, rng)
    part = Partition([[0, 1, 2], [3], [4]], 5)
    q_a = float(dec.probs[:3].sum())
    q_b = 1.0 - q_a
    from hybridlcu.lcu import success_probability

    r = reduction_factor(dec, part, rho)
    assert r <= tail_bound_R(q_a, q_b, success_probability(dec, rho)) + 1e-9
