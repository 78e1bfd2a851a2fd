"""Channel construction, the two evaluation backends and the shot sampler."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from conftest import PAULI_Z, random_density, random_hermitian, random_lcu
from rounds import DegenerateRoundError, compose_rounds, expectation_rounds

from hybridlcu import __version__, hybrid, lcu, partition, prng, qcore
from hybridlcu.hybrid import (
    HybridChannel,
    Sampler,
    exact_expectation,
    first_block_column,
    outcome_distribution,
    write_shot_csv,
)
from hybridlcu.partition import Partition, group_operators, reduction_factor


def random_partition(m: int, rng: np.random.Generator) -> Partition:
    labels = rng.integers(0, m, size=m)
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(int(lab), []).append(i)
    return Partition(list(groups.values()), m)


## ------------------------------------------------------------------
## block encodings
## ------------------------------------------------------------------


def test_householder_prepare_first_column():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        w = rng.uniform(0.05, 1.0, size=n)
        col = np.sqrt(w / w.sum())
        pre = hybrid._householder_prepare(col)
        assert np.linalg.norm(pre @ pre.T - np.eye(n)) < 1e-12
        assert np.linalg.norm(pre[:, 0] - col) < 1e-12


def test_householder_prepare_e0_fixed_point():
    col = np.zeros(4)
    col[0] = 1.0
    assert np.array_equal(hybrid._householder_prepare(col), np.eye(4))


def reference_block_encoding(group, dec):
    """The dense sandwich ``kron(P, 1)^T . SELECT . kron(P, 1)`` of the same encoding."""
    members = group.members
    d = dec.dimension
    if len(members) == 1:
        return dec.unitaries[members[0]]
    na = 2 ** math.ceil(math.log2(len(members)))
    column = np.zeros(na)
    for slot, i in enumerate(members):
        column[slot] = math.sqrt(dec.probs[i] / group.weight)
    prepare = hybrid._householder_prepare(column)
    select = np.zeros((na * d, na * d), dtype=complex)
    for slot in range(na):
        block = dec.unitaries[members[slot]] if slot < len(members) else np.eye(d)
        select[slot * d : (slot + 1) * d, slot * d : (slot + 1) * d] = block
    big_pre = np.kron(prepare, np.eye(d))
    return big_pre.T @ select @ big_pre


def test_block_encoding_matches_select_sandwich():
    # group sizes that are not powers of two pad SELECT with identities
    rng = np.random.default_rng(11)
    for size in range(2, 9):
        for dim in (2, 3, 5):
            dec = random_lcu(size + 2, dim, rng)
            members = sorted(rng.choice(size + 2, size=size, replace=False).tolist())
            rest = [i for i in range(size + 2) if i not in members]
            groups = group_operators(dec, Partition([members, rest], size + 2))
            g = next(g for g in groups if list(g.members) == members)
            col = first_block_column(g, dec)
            ref = reference_block_encoding(g, dec)
            assert ref.shape == (2 ** math.ceil(math.log2(size)) * dim,) * 2
            assert col.shape == (len(ref) // dim, dim, dim)
            # block a of the column is rows a*d .. (a+1)*d of the first d columns
            assert np.linalg.norm(col.reshape(-1, dim) - ref[:, :dim]) <= 1e-12, (size, dim)


def test_block_encoding_invariant():
    # block 0 of L_k|0>_A must reproduce K_k = sum_{i in S_k} (p_i/q_k) U_i,
    # and the column of a unitary is an isometry: sum_a B_a^dag B_a = 1
    rng = np.random.default_rng(1)
    for _ in range(15):
        m = int(rng.integers(2, 7))
        dim = int(rng.integers(2, 5))
        dec = random_lcu(m, dim, rng)
        part = random_partition(m, rng)
        for g in group_operators(dec, part):
            col = first_block_column(g, dec)
            na = len(col)
            assert col.shape == (na, dim, dim)
            assert np.linalg.norm(np.einsum("aji,ajk->ik", col.conj(), col) - np.eye(dim)) < 1e-10
            assert np.linalg.norm(col[0] - g.operator) < 1e-10
            expect_a = math.ceil(math.log2(len(g.members))) if len(g.members) > 1 else 0
            assert na == 2**expect_a


def test_block_encoding_singleton_is_bare_unitary():
    rng = np.random.default_rng(2)
    dec = random_lcu(3, 4, rng)
    part = Partition.singletons(3)
    for idx, g in enumerate(group_operators(dec, part)):
        col = first_block_column(g, dec)
        # no ancilla: one block, the stored unitary to the bit
        assert col.shape == (1, 4, 4)
        assert col.tobytes() == dec.unitaries[idx].tobytes()
        # a singleton passes the same invariant check as any group, so a wrong K_k is refused
        with pytest.raises(qcore.InvariantViolation, match="block-encoding"):
            first_block_column(g._replace(operator=dec.unitaries[(idx + 1) % 3]), dec)


def test_first_columns_are_padded_encodings_first_block_column():
    rng = np.random.default_rng(4)
    dec = random_lcu(6, 3, rng)
    # ancilla widths 4, 2 and 1 under a common a* = 2
    ch = HybridChannel(dec, Partition([[0, 1, 2], [3, 4], [5]], 6))
    assert ch.a_star == 2
    cols = ch.first_columns
    assert cols.shape == (3, 4, 3, 3)
    assert not cols.flags.writeable
    for k, g in enumerate(ch.group_ops):
        l_mat = reference_block_encoding(g, dec)
        na = len(l_mat) // 3
        assert np.array_equal(cols[k, :na], first_block_column(g, dec))
        assert np.all(cols[k, na:] == 0.0)
        # the first d columns of the dense L_k with identity ancillas tensored on the left up to a*
        assert np.linalg.norm(cols[k].reshape(12, 3) - np.kron(np.eye(4 // na), l_mat)[:, :3]) <= 1e-12
        assert np.linalg.norm(cols[k, 0] - g.operator) < 1e-10


def test_first_columns_memory_is_a_few_columns():
    # m = 8, d = 64 in one group of eight, so 2**a* = 8: the first block
    # column takes 8 x 64 x 64 x 16 B = 0.5 MB, and the channel builds it
    # from the member unitaries alone, never the 512 x 512 encoding (4 MB)
    rng = np.random.default_rng(16)
    ch = HybridChannel(random_lcu(8, 64, rng), Partition.coherent(8))
    assert ch.a_star == 3
    peak = _traced_peak(lambda: ch.first_columns)
    nbytes = ch.first_columns.nbytes
    assert peak < 5 * nbytes, peak / nbytes


## ------------------------------------------------------------------
## exact backends
## ------------------------------------------------------------------


def test_backend_agreement_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 5))
        dec = random_lcu(m, dim, rng)
        part = random_partition(m, rng)
        ch = HybridChannel(dec, part)
        rho = random_density(dim, rng)
        obs = random_hermitian(dim, rng)
        ana = exact_expectation(ch, rho, obs, backend="analytic")
        cir = exact_expectation(ch, rho, obs, backend="circuit")
        assert abs(ana - cir) <= 1e-9


def test_backend_unknown_name_rejected():
    rng = np.random.default_rng(6)
    dec = random_lcu(2, 2, rng)
    ch = HybridChannel(dec, Partition.coherent(2))
    with pytest.raises(ValueError):
        exact_expectation(ch, np.eye(2) / 2, PAULI_Z, backend="tensor")


def test_coherent_limit_matches_plain_lcu():
    # one group: the channel is exactly the normalized LCU map
    rng = np.random.default_rng(7)
    for seed in range(5):
        sub = np.random.default_rng(seed)
        dec = random_lcu(4, 3, sub)
        ch = HybridChannel(dec, Partition.coherent(4))
        rho = random_density(3, sub)
        obs = random_hermitian(3, sub)
        k = lcu.assemble_klcu(dec)
        want = np.trace(obs @ k @ rho @ k.conj().T).real
        assert abs(exact_expectation(ch, rho, obs) - want) <= 1e-12
        p = np.trace(k @ rho @ k.conj().T).real
        assert abs(partition.reduction_factor_obs(ch.decomposition, ch.partition, rho, np.eye(3)) - p) <= 1e-12
        assert abs(reduction_factor(dec, Partition.coherent(4), rho) - p) <= 1e-12


def test_singleton_limit_unit_R_and_unbiased_mean():
    rng = np.random.default_rng(8)
    dec = random_lcu(5, 3, rng)
    part = Partition.singletons(5)
    ch = HybridChannel(dec, part)
    rho = random_density(3, rng)
    obs = random_hermitian(3, rng)
    assert abs(partition.reduction_factor_obs(ch.decomposition, ch.partition, rho, np.eye(3)) - 1.0) <= 1e-12
    k = lcu.assemble_klcu(dec)
    want = np.trace(obs @ k @ rho @ k.conj().T).real
    assert abs(exact_expectation(ch, rho, obs) - want) <= 1e-12
    direct = sum(
        p * np.trace(obs @ obs @ u @ rho @ u.conj().T).real for p, u in zip(dec.probs, dec.unitaries)
    )
    assert abs(partition.reduction_factor_obs(ch.decomposition, ch.partition, rho, obs) - direct) <= 1e-12


## ------------------------------------------------------------------
## exhaustive outcome distributions
## ------------------------------------------------------------------


def test_outcome_distribution_normalized_and_moment_exact(monkeypatch):
    rng = np.random.default_rng(9)
    for _ in range(8):
        m = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 5))
        dec = random_lcu(m, dim, rng)
        ch = HybridChannel(dec, random_partition(m, rng))
        rho = random_density(dim, rng)
        obs = qcore.Observable(random_hermitian(dim, rng))
        sign = np.array([1.0, -1.0])
        keep = np.array([1.0, 0.0])
        mean = 0.0
        msq = 0.0
        for k in range(ch.G):
            for kp in range(ch.G):
                probs = outcome_distribution(ch, rho, obs, k, kp)
                assert abs(probs.sum() - 1.0) <= 1e-10
                g_vals = keep[:, None, None] * sign[None, :, None] * obs.eigenvalues[None, None, :]
                pair_mean = float((probs * g_vals).sum())
                # per-pair oracle: interference term between the two group operators
                want = np.trace(
                    obs.matrix @ ch.group_ops[k].operator @ rho @ ch.group_ops[kp].operator.conj().T
                ).real
                assert abs(pair_mean - want) <= 1e-9
                w = ch.weights[k] * ch.weights[kp]
                mean += w * pair_mean
                msq += w * float((probs * g_vals**2).sum())
        assert abs(mean - exact_expectation(ch, rho, obs)) <= 1e-9
        assert abs(msq - partition.reduction_factor_obs(ch.decomposition, ch.partition, rho, obs)) <= 1e-9
    # the sampler refuses a table whose rows do not sum to 1
    monkeypatch.setattr(hybrid, "outcome_distribution", lambda *args: 1.01 * outcome_distribution(*args))
    with pytest.raises(qcore.InvariantViolation, match="not normalized"):
        Sampler(ch, rho, obs)


def test_outcome_distribution_diagonal_pair_has_no_b1_plane():
    rng = np.random.default_rng(10)
    dec = random_lcu(4, 2, rng)
    ch = HybridChannel(dec, Partition([[0, 1], [2, 3]], 4))
    rho = random_density(2, rng)
    probs = outcome_distribution(ch, rho, PAULI_Z, 1, 1)
    assert np.all(probs[:, 1, :] == 0.0)


def _dense_pair_state(ch, rho, k, kp):
    # reference: L_c (|+><+|_B (x) |0><0|_A (x) rho) L_c^dag, the whole
    # pair-circuit density on (B x ancilla x system), built with np.kron: each
    # dense encoding padded with identity ancillas up to width a*, and the
    # controlled pair L_c = [[L_k', 0], [0, L_k]] with L_k' on the zero branch of B
    na = 2**ch.a_star
    zero_a = np.zeros((na, na))
    zero_a[0, 0] = 1.0
    l_k, l_kp = (reference_block_encoding(ch.group_ops[i], ch.decomposition) for i in (k, kp))
    l_k, l_kp = (np.kron(np.eye(na * ch.dimension // len(l_mat)), l_mat) for l_mat in (l_k, l_kp))
    zero = np.zeros_like(l_k)
    l_c = np.block([[l_kp, zero], [zero, l_k]])
    return l_c @ np.kron(np.full((2, 2), 0.5), np.kron(zero_a, rho)) @ l_c.conj().T


@pytest.mark.parametrize(
    "groups, dim, a_star",
    [
        ([[0, 1, 2], [3, 4]], 4, 2),  # mixed ancilla widths: the second encoding is padded
        ([[0], [1, 2], [3, 4, 5]], 3, 2),
        ([[0, 1, 2, 3]], 4, 2),  # one group: only k = k' = 0
        ([[0], [1], [2], [3]], 3, 0),  # all singletons: no ancilla
    ],
)
def test_circuit_backend_matches_dense_pair_circuit(groups, dim, a_star):
    rng = np.random.default_rng(len(groups) * 10 + dim)
    m = sum(len(g) for g in groups)
    ch = HybridChannel(random_lcu(m, dim, rng), Partition(groups, m))
    assert ch.a_star == a_star
    rho = random_density(dim, rng)
    assert np.linalg.matrix_rank(rho) == dim
    obs = random_hermitian(dim, rng)
    zero_a = np.zeros((2**a_star, 2**a_star))
    zero_a[0, 0] = 1.0
    meas = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.kron(zero_a, obs))
    want = sum(
        ch.weights[k] * ch.weights[kp] * np.trace(meas @ _dense_pair_state(ch, rho, k, kp)).real
        for k in range(ch.G)
        for kp in range(ch.G)
    )
    assert abs(exact_expectation(ch, rho, obs, backend="circuit") - want) <= 1e-12


def test_outcome_distribution_refuses_bad_pairs_and_sizes():
    rng = np.random.default_rng(14)
    ch = HybridChannel(random_lcu(4, 2, rng), Partition([[0, 1], [2, 3]], 4))
    rho = random_density(2, rng)
    # a negative index is not read from the end, and G is past the last group
    for k, kp in ((-1, 0), (0, -1), (2, 0), (0, 2)):
        with pytest.raises(ValueError, match=rf"pair \(k, k'\) = \({k}, {kp}\) is outside range\(2\)"):
            outcome_distribution(ch, rho, PAULI_Z, k, kp)
    # the state and observable are checked against the decomposition, as in exact_expectation
    with pytest.raises(ValueError, match="dimension mismatch: decomposition 2, state 3, observable 3"):
        outcome_distribution(ch, random_density(3, rng), np.eye(3), 0, 0)
    with pytest.raises(ValueError, match="dimension mismatch: decomposition 2, state 2, observable 4"):
        outcome_distribution(ch, rho, np.eye(4), 1, 1)


def _pair_circuit_table(ch, rho, obs, k, kp):
    # reference: the Born diagonal of the dense pair-circuit density, B read
    # in the Hadamard basis and the system in O's eigenbasis
    na, d = 2**ch.a_star, ch.dimension
    basis = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0), np.kron(np.eye(na), obs.eigenvectors))
    final = _dense_pair_state(ch, rho, k, kp)
    diag = np.einsum("ij,jk,ki->i", basis.conj().T, final, basis).real.reshape(2, na, d)
    return np.clip(np.stack([diag[:, 0], diag[:, 1:].sum(axis=1)]), 0.0, None)


@pytest.mark.parametrize(
    "groups, dim",
    [
        ([[0, 1, 2], [3, 4]], 4),  # mixed widths: the second encoding is padded
        ([[0], [1, 2], [3, 4, 5]], 8),
        ([[0, 1, 2, 3, 4], [5, 6]], 8),
        ([[0, 1, 2, 3]], 4),  # one group: only k = k' = 0
    ],
)
def test_outcome_distribution_matches_pair_circuit(groups, dim):
    rng = np.random.default_rng(len(groups) * 100 + dim)
    m = sum(len(g) for g in groups)
    ch = HybridChannel(random_lcu(m, dim, rng), Partition(groups, m))
    rho = random_density(dim, rng)
    assert np.linalg.matrix_rank(rho) == dim
    obs = qcore.Observable(random_hermitian(dim, rng))
    for k in range(ch.G):
        for kp in range(ch.G):
            want = _pair_circuit_table(ch, rho, obs, k, kp)
            assert np.abs(outcome_distribution(ch, rho, obs, k, kp) - want).max() <= 1e-12


## ------------------------------------------------------------------
## sampler
## ------------------------------------------------------------------


def _moment_instance(seed=11):
    rng = np.random.default_rng(seed)
    dec = random_lcu(4, 4, rng)
    ch = HybridChannel(dec, Partition([[0, 1], [2], [3]], 4))
    rho = random_density(4, rng)
    obs = qcore.Observable(random_hermitian(4, rng))
    return ch, rho, obs


def test_sampler_single_shot_fields():
    ch, rho, obs = _moment_instance()
    sampler = Sampler(ch, rho, obs)
    for stream in (0, 1):
        batch = sampler.table[sampler.sample_shots(seed=5, count=200, stream=stream)]
        assert np.all((0 <= batch.k) & (batch.k < ch.G)) and np.all((0 <= batch.kprime) & (batch.kprime < ch.G))
        assert np.isin(batch.z, (0, 1)).all() and np.isin(batch.b, (0, 1)).all()
        assert np.all((0 <= batch.j) & (batch.j < ch.dimension))
        assert np.all(np.abs(batch.g) <= obs.spectral_norm + 1e-12)


def test_sampler_moments_within_five_se():
    ch, rho, obs = _moment_instance()
    sampler = Sampler(ch, rho, obs)
    n = 100_000
    batch = sampler.table[sampler.sample_shots(seed=123, count=n)]
    # exact fourth moment from the same exhaustive tables that drive sampling
    sign = np.array([1.0, -1.0])
    keep = np.array([1.0, 0.0])
    g_vals = keep[:, None, None] * sign[None, :, None] * obs.eigenvalues[None, None, :]
    m4 = 0.0
    for k in range(ch.G):
        for kp in range(ch.G):
            probs = outcome_distribution(ch, rho, obs, k, kp)
            m4 += ch.weights[k] * ch.weights[kp] * float((probs * g_vals**4).sum())
    mu = sampler.exact_mean
    m2 = sampler.exact_second
    se_mean = math.sqrt((m2 - mu**2) / n)
    se_m2 = math.sqrt(max(m4 - m2**2, 0.0) / n)
    assert abs(batch.g.mean() - mu) <= 5 * se_mean
    assert abs((batch.g**2).mean() - m2) <= 5 * se_m2
    assert np.all(np.abs(batch.g) <= obs.spectral_norm + 1e-12)


def test_sampler_pair_frequencies_multinomial():
    ch, rho, obs = _moment_instance()
    sampler = Sampler(ch, rho, obs)
    n = 100_000
    batch = sampler.table[sampler.sample_shots(seed=321, count=n)]
    for k in range(ch.G):
        for kp in range(ch.G):
            p = ch.weights[k] * ch.weights[kp]
            freq = np.mean((batch.k == k) & (batch.kprime == kp))
            assert abs(freq - p) <= 5 * math.sqrt(p * (1 - p) / n)


def test_sample_shots_chunks_reassemble_exactly():
    # per-shot substreams: any chunking of the shot range gives identical codes
    ch, rho, obs = _moment_instance()
    sampler = Sampler(ch, rho, obs)
    whole = sampler.sample_shots(seed=77, count=1000)
    parts = [
        sampler.sample_shots(seed=77, count=400, start=0),
        sampler.sample_shots(seed=77, count=350, start=400),
        sampler.sample_shots(seed=77, count=250, start=750),
    ]
    assert isinstance(whole, np.ndarray) and whole.dtype == np.intp
    assert np.array_equal(whole, np.concatenate(parts))


@pytest.mark.parametrize("name", ["three-groups", "1600-pairs"])
def test_sample_shots_in_reused_buffers(name):
    # one set of buffers, drawn in chunk after chunk (shorter ones and an
    # empty one too), gives each chunk the codes of freshly allocated arrays,
    # also where guide buckets hold a threshold and shots run the search
    sampler = _guide_sampler(name)
    buffers = Sampler.shot_buffers(400)
    for start, count in ((0, 400), (400, 350), (750, 0), (750, 250), (1000, 400)):
        codes = sampler.sample_shots(seed=77, count=count, start=start, stream=2, buffers=buffers)
        assert np.array_equal(codes, sampler.sample_shots(seed=77, count=count, start=start, stream=2))
        assert count == 0 or np.shares_memory(codes, buffers[2])


def test_sample_shots_matches_table_gather_oracle():
    # the outcome code must be the table row the full N x 4d comparison
    # against each shot's cumulative table row picks; the second instance
    # has 1600 pairs, past the 31 groups a pair index folded above a
    # 53-bit lattice would allow
    rng = np.random.default_rng(808)
    n = 20_000
    for dim, part in ((8, Partition([(0,), (1, 2), (3, 4, 5)], 6)), (2, Partition.singletons(40))):
        ch = HybridChannel(random_lcu(part.m, dim, rng), part)
        sampler = Sampler(ch, random_density(dim, rng), random_hermitian(dim, rng))
        codes = sampler.sample_shots(seed=2718, count=n, start=1000, stream=4)
        u = prng.uniforms(2718, 1000, n, 2, stream=4)
        pair = np.clip(np.searchsorted(sampler.pair_cum, u[:, 0], side="right"), 0, len(sampler.pair_cum) - 1)
        out = (u[:, 1:2] >= sampler.table_cum[pair]).sum(axis=1)
        out = np.clip(out, 0, sampler.table_cum.shape[1] - 1)
        code = pair * sampler.table_cum.shape[1] + out
        if ch.G == 3:
            assert len(np.unique(pair)) == ch.G**2
        else:
            assert pair.max() >= 32**2
        assert np.array_equal(codes, code)
        # the table's pair fields name the pair each code was drawn in
        batch = sampler.table[codes]
        assert np.array_equal(batch.k * ch.G + batch.kprime, pair)


def test_sample_shots_exact_at_table_boundaries(monkeypatch):
    # u1 one ulp below and exactly at each cumulative boundary of pairs past
    # 1000: a pair index added to u1 as a float would round both onto the
    # boundary and pick the same outcome
    rng = np.random.default_rng(909)
    ch = HybridChannel(random_lcu(40, 2, rng), Partition.singletons(40))
    sampler = Sampler(ch, random_density(2, rng), random_hermitian(2, rng))
    n_out = sampler.table_cum.shape[1]
    pairs = np.repeat(np.arange(1000, 1600, 7), n_out)
    bounds = sampler.table_cum[pairs, np.arange(len(pairs)) % n_out]
    u0 = np.tile(sampler.pair_cum[pairs - 1], 2)
    u1 = np.concatenate([np.nextafter(bounds, 0.0), bounds])
    # real draws stay below 1.0
    u = np.column_stack([u0, u1])[u1 < 1.0]
    monkeypatch.setattr(prng, "uniforms", lambda seed, start, count, n, stream=0, out=None: u.copy())
    codes = sampler.sample_shots(seed=0, count=len(u))
    pair = np.searchsorted(sampler.pair_cum, u[:, 0], side="right")
    assert np.array_equal(pair, np.tile(pairs, 2)[u1 < 1.0])
    out = (u[:, 1:2] >= sampler.table_cum[pair]).sum(axis=1)
    assert np.array_equal(codes, pair * n_out + out)


def _edge_values(buckets: int) -> np.ndarray:
    """Every bucket edge k / buckets below 1 and the double one ulp below each edge above 0."""
    edges = np.arange(buckets + 1) / buckets
    return np.concatenate([edges[:-1], np.nextafter(edges[1:], 0.0)])


def _guide_sampler(name: str) -> Sampler:
    rng = np.random.default_rng(515)
    if name == "three-groups":
        return Sampler(*_moment_instance(seed=515))
    if name == "1600-pairs":
        ch = HybridChannel(random_lcu(40, 2, rng), Partition.singletons(40))
        return Sampler(ch, random_density(2, rng), random_hermitian(2, rng))
    # dyadic rho and diagonal observables: every pair weight and outcome
    # probability is a power of two, so the thresholds sit on bucket edges,
    # and the empty z = 1 planes (no ancilla) and b = 1 planes repeat them
    rho = np.diag([0.5, 0.25, 0.125, 0.125])
    if name == "one-group-dyadic":
        one = lcu.LcuDecomposition([1.0], [np.eye(4)])
        return Sampler(HybridChannel(one, Partition.coherent(1)), rho, np.diag([0.4, 0.3, 0.2, 0.1]))
    two = lcu.LcuDecomposition([0.5, 0.5], [np.eye(4), np.diag([1.0, 1.0, -1.0, -1.0])])
    return Sampler(HybridChannel(two, Partition.singletons(2)), rho, np.diag([0.1, 0.2, 0.3, 0.4]))


@pytest.mark.parametrize("name", ["three-groups", "1600-pairs", "one-group-dyadic", "two-groups-dyadic"])
def test_guided_search_exact_at_bucket_edges(monkeypatch, name):
    # u0 on every pair-guide edge and one ulp below it, and for every pair,
    # u1 on every table-guide edge and one ulp below it: the guided lookup
    # must pick the rows of the full comparison against the cumulative rows
    sampler = _guide_sampler(name)
    n_pairs, n_out = sampler.table_cum.shape
    buckets = sampler.table_guide.size // n_pairs
    assert sampler.pair_guide.nbytes + sampler.table_guide.nbytes <= 2**20
    u1 = _edge_values(buckets)
    u0_pairs = np.concatenate([[0.0], sampler.pair_cum[:-1]])
    u0 = np.concatenate([np.repeat(u0_pairs, len(u1)), _edge_values(sampler.pair_guide.size)])
    u1 = np.resize(u1, len(u0))
    u = np.column_stack([u0, u1])
    monkeypatch.setattr(prng, "uniforms", lambda seed, start, count, n, stream=0, out=None: u.copy())
    codes = sampler.sample_shots(seed=0, count=len(u))
    pair = np.searchsorted(sampler.pair_cum, u0, side="right")
    assert np.array_equal(np.unique(pair), np.arange(n_pairs))
    out = (u1[:, None] >= sampler.table_cum[pair]).sum(axis=1)
    assert np.array_equal(codes, pair * n_out + out)
    if name.endswith("dyadic"):
        # thresholds on the edges, some repeated: no bucket holds one inside
        on_edge = sampler.table_cum * buckets
        assert np.array_equal(on_edge, np.floor(on_edge))
        assert np.any(np.diff(sampler.table_cum, axis=1) == 0.0)
        assert (sampler.table_guide >= 0).all() and (sampler.pair_guide >= 0).all()
    else:
        # most buckets answer from the guide; the rest hold a threshold
        assert 0 < (sampler.table_guide < 0).mean() < 0.5


def test_guide_size_follows_table_width_within_cap():
    # 64 buckets per threshold rounded up to a power of two, at most
    # _GUIDE_ENTRIES per guide and never less than one bucket per row
    assert hybrid._guide_buckets(1, 4) == 256
    assert hybrid._guide_buckets(4, 32) == 2048
    assert hybrid._guide_buckets(1, 1600) == hybrid._GUIDE_ENTRIES
    assert hybrid._guide_buckets(1600, 8) == 32
    assert hybrid._guide_buckets(2 * hybrid._GUIDE_ENTRIES, 8) == 1
    for rows, width in ((1, 1), (3, 5), (9, 32), (1600, 8), (5000, 512)):
        buckets = hybrid._guide_buckets(rows, width)
        assert buckets & (buckets - 1) == 0
        assert rows * buckets <= max(hybrid._GUIDE_ENTRIES, rows)


def test_sample_shots_rejects_negative_count():
    ch, rho, obs = _moment_instance()
    with pytest.raises(ValueError, match="count"):
        Sampler(ch, rho, obs).sample_shots(seed=5, count=-5)


def test_sample_shots_streams_differ():
    ch, rho, obs = _moment_instance()
    sampler = Sampler(ch, rho, obs)
    a = sampler.sample_shots(seed=5, count=200, stream=0)
    b = sampler.sample_shots(seed=5, count=200, stream=1)
    assert not np.array_equal(sampler.table.g[a], sampler.table.g[b])


def test_identity_observable_samples_R():
    # with O = 1 the estimator mean is P and the second moment is R
    rng = np.random.default_rng(12)
    dec = random_lcu(3, 3, rng)
    part = Partition([[0, 1], [2]], 3)
    ch = HybridChannel(dec, part)
    rho = random_density(3, rng)
    sampler = Sampler(ch, rho, np.eye(3))
    k = lcu.assemble_klcu(dec)
    assert abs(sampler.exact_mean - np.trace(k @ rho @ k.conj().T).real) <= 1e-12
    assert abs(sampler.exact_second - reduction_factor(dec, part, rho)) <= 1e-12


## ------------------------------------------------------------------
## multi-round composition
## ------------------------------------------------------------------


def test_compose_rounds_single_round_factor():
    rng = np.random.default_rng(13)
    dec = random_lcu(4, 3, rng)
    part = Partition([[0, 2], [1, 3]], 4)
    ch = HybridChannel(dec, part)
    rho = random_density(3, rng)
    intermediates, r_total = compose_rounds([ch], rho)
    assert len(intermediates) == 1
    assert abs(r_total - reduction_factor(dec, part, rho)) <= 1e-12
    assert abs(np.trace(intermediates[0]).real - 1.0) <= 1e-12


def test_compose_rounds_product_law():
    rng = np.random.default_rng(14)
    dec1 = random_lcu(3, 3, rng)
    dec2 = random_lcu(2, 3, rng)
    ch1 = HybridChannel(dec1, Partition.coherent(3))
    ch2 = HybridChannel(dec2, Partition.singletons(2))
    rho = random_density(3, rng)
    inter, r_total = compose_rounds([ch1, ch2], rho)
    _, r1 = compose_rounds([ch1], rho)
    _, r2 = compose_rounds([ch2], inter[0])
    assert abs(r_total - r1 * r2) <= 1e-12


def test_compose_rounds_degenerate_raises():
    dec = lcu.LcuDecomposition.from_terms([1.0, 1.0], [np.eye(2), -np.eye(2)])
    ch = HybridChannel(dec, Partition.coherent(2))
    with pytest.raises(DegenerateRoundError):
        compose_rounds([ch], np.eye(2) / 2)


def test_expectation_rounds_matches_direct_product():
    rng = np.random.default_rng(15)
    dec1 = random_lcu(3, 3, rng)
    dec2 = random_lcu(2, 3, rng)
    ch1 = HybridChannel(dec1, Partition.coherent(3))
    ch2 = HybridChannel(dec2, Partition.coherent(2))
    rho = random_density(3, rng)
    obs = random_hermitian(3, rng)
    k1 = lcu.assemble_klcu(dec1)
    k2 = lcu.assemble_klcu(dec2)
    direct = np.trace(obs @ k2 @ k1 @ rho @ k1.conj().T @ k2.conj().T).real
    assert abs(expectation_rounds([ch1, ch2], rho, obs) - direct) <= 1e-12
    assert abs(expectation_rounds([ch1], rho, obs) - exact_expectation(ch1, rho, obs)) <= 1e-12


## ------------------------------------------------------------------
## shot CSV
## ------------------------------------------------------------------


def test_write_shot_csv_format(tmp_path):
    ch, rho, obs = _moment_instance()
    sampler = Sampler(ch, rho, obs)
    codes = sampler.sample_shots(seed=9, count=5)
    path = tmp_path / "shots.csv"
    write_shot_csv(path, sampler.table, 9, [codes])
    lines = path.read_text().splitlines()
    assert lines[0] == "shot,k,kprime,z,b,j,g"
    assert len(lines) == 7
    assert lines[-1] == "# seed=9 version=0.1.0"
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[6]) == sampler.table.g[codes[0]]


def test_write_shot_csv_refuses_codes_outside_the_table(tmp_path):
    # a negative code would read a table row from the end, and one past the
    # end has no row; each is refused with the range, in any chunk
    table = Sampler(*_moment_instance()).table
    n = len(table)
    for bad in (-1, n):
        with pytest.raises(ValueError, match=rf"outside range\({n}\)"):
            write_shot_csv(tmp_path / "shots.csv", table, 0, [np.array([0, 2]), np.array([bad, 2])])
    write_shot_csv(tmp_path / "shots.csv", table, 0, [np.array([0, n - 1])])
    assert len((tmp_path / "shots.csv").read_text().splitlines()) == 4


def _write_shot_csv_per_row(path, table, seed, codes):
    # row-at-a-time reference for the table-tail writer
    with open(path, "w") as fh:
        fh.write("shot,k,kprime,z,b,j,g\n")
        for shot, row in enumerate(table[codes]):
            fh.write(f"{shot},{int(row.k)},{int(row.kprime)},{int(row.z)},{int(row.b)},{int(row.j)},{row.g:.17g}\n")
        fh.write(f"# seed={seed} version={__version__}\n")


def test_write_shot_csv_matches_per_row_writer(tmp_path):
    # -0.0 and 0.0 print differently and sit in separate table rows; two-digit
    # k, a row count past two chunks and code arrays split at points that are
    # neither chunk nor thousand boundaries cover the joins
    rng = np.random.default_rng(5)
    g_values = [0.0, -0.0, 0.1, -0.1, 1.0 / 3.0, -2.5e-17, 1.0]
    rows = 40
    ints = [rng.integers(0, high, rows) for high in (12, 12, 2, 2, 8)]
    ints[0][:2] = 11
    g = [g_values[i % len(g_values)] for i in range(rows)]
    table = np.rec.fromarrays([*ints, g], names="k,kprime,z,b,j,g")
    n = 2 * hybrid._CSV_CHUNK_ROWS + 37
    codes = rng.integers(0, rows, n)
    assert np.any(np.signbit(table.g[codes]) & (table.g[codes] == 0))
    assert np.any(~np.signbit(table.g[codes]) & (table.g[codes] == 0))
    whole, split, reference = tmp_path / "whole.csv", tmp_path / "split.csv", tmp_path / "reference.csv"
    write_shot_csv(whole, table, 2**64 - 1, [codes])
    _write_shot_csv_per_row(reference, table, 2**64 - 1, codes)
    assert whole.read_bytes() == reference.read_bytes()
    cuts = [0, 777, 777, 2011, hybrid._CSV_CHUNK_ROWS + 5, n - 1, n]
    write_shot_csv(split, table, 2**64 - 1, (codes[lo:hi] for lo, hi in zip(cuts, cuts[1:])))
    assert split.read_bytes() == whole.read_bytes()
    # no shots, as no chunk or one empty chunk, is the header and trailer alone
    empty = np.zeros(0, dtype=np.intp)
    _write_shot_csv_per_row(reference, table, 3, empty)
    for chunks in ([], [empty]):
        write_shot_csv(whole, table, 3, chunks)
        assert whole.read_bytes() == reference.read_bytes()


def _assert_shot_digits(lo: int, n: int) -> None:
    highs, lows = hybrid._shot_digits(lo, n)
    assert [high + low for high, low in zip(highs, lows, strict=True)] == [str(i) for i in range(lo, lo + n)]


@pytest.mark.parametrize("first", [0, 995, 10**6 - 10, 2**63 - 500, 2**64 - 1 - 3012, 2**64 - 3012])
def test_write_shot_csv_index_boundaries(first):
    # consecutive index ranges of sizes that are not multiples of 1000 cross
    # the unpadded indices below 1000, thousand and decade boundaries, 2**63
    # and the top of the counter range; each index must print as str(i)
    for lo, hi in itertools.pairwise([0, 777, 2011, 3012]):
        _assert_shot_digits(first + lo, hi - lo)
    _assert_shot_digits(first, 0)


def test_write_shot_csv_indices_past_int64():
    # the counter range reaches 2**64 - 1; indices past 2**63 - 1 stay positive
    _assert_shot_digits(2**63 - 1, 3)
    # a numpy start must not wrap past 2**64 into an empty batch
    ch, rho, obs = _moment_instance()
    with pytest.raises(ValueError, match="64-bit counter range"):
        Sampler(ch, rho, obs).sample_shots(seed=3, count=5, start=np.uint64(2**64 - 3))


def _traced_peak(func, *args, **kwargs):
    tracemalloc.start()
    try:
        func(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shot_path_memory_does_not_grow_with_n_or_d(tmp_path):
    # the writer holds one chunk at a time, and the sampler's per-shot
    # memory does not depend on the outcome count 4d
    ch, rho, obs = _moment_instance()
    sampler = Sampler(ch, rho, obs)
    peaks = []
    for n in (100_000, 400_000):
        codes = sampler.sample_shots(seed=1, count=n)
        peaks.append(_traced_peak(write_shot_csv, tmp_path / "shots.csv", sampler.table, 1, [codes]))
    assert peaks[1] <= 1.25 * peaks[0], peaks
    rng = np.random.default_rng(12)
    n = 200_000
    per_shot = []
    for dim in (2, 8):
        ch = HybridChannel(random_lcu(4, dim, rng), Partition([[0, 1], [2], [3]], 4))
        sampler = Sampler(ch, random_density(dim, rng), random_hermitian(dim, rng))
        per_shot.append(_traced_peak(sampler.sample_shots, seed=1, count=n) / n)
    assert abs(per_shot[1] - per_shot[0]) <= 0.1 * per_shot[0], per_shot


def test_circuit_oracle_memory_is_the_first_block_columns():
    # m = 8, d = 64 in two groups of four, so W = 2**a* * d = 256: the first
    # block columns of both groups take 2 x 4 x 64 x 64 x 16 B = 0.5 MB, and no
    # W x W encoding (1 MB) is built
    rng = np.random.default_rng(15)
    ch = HybridChannel(random_lcu(8, 64, rng), Partition([[0, 1, 2, 3], [4, 5, 6, 7]], 8))
    assert ch.a_star == 2
    rho = random_density(64, rng)
    obs = random_hermitian(64, rng)
    peak = _traced_peak(exact_expectation, ch, rho, obs, backend="circuit")
    assert peak < 5_000_000, peak
