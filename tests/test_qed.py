"""Steane-code detection checks: projector algebra, biased noise, R vs P."""

import numpy as np
import pytest
from conftest import random_density
from rounds import hybrid_qed_channel, sector_elements, steane_projectors

from hybridlcu import cli, lcu, qcore, qed
from hybridlcu.qed import (
    NoiseModel,
    apply_biased_noise,
    apply_pauli_channel,
    fig_sweep,
    qed_metrics,
    random_codeword,
    write_sweep_csv,
)


def codeword_density(seed: int) -> np.ndarray:
    psi = random_codeword(np.random.default_rng(seed))
    return np.outer(psi, psi.conj())


# ---------------------------------------------------------------------------
# stabilizers

PAULI_2X2 = {"I": np.eye(2), "X": np.array([[0.0, 1.0], [1.0, 0.0]]), "Z": np.diag([1.0, -1.0])}
# the standard Steane generators by 1-based qubit support
SUPPORTS = ((1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7))


def kron_string(kind: str, support) -> np.ndarray:
    """Pauli `kind` on the 1-based qubits in `support` as a 7-fold Kronecker product."""
    out = np.eye(1)
    for q in range(1, 8):
        out = np.kron(out, PAULI_2X2[kind if q in support else "I"])
    return out


def kron_elements(kind: str) -> list[np.ndarray]:
    """Sector elements built generator by generator: identity, g1, g2, g1 g2, g3, ..."""
    elements = [np.eye(128)]
    for support in SUPPORTS:
        gen = kron_string(kind, support)
        elements = elements + [e @ gen for e in elements]
    return elements


def test_steane_projectors_match_kron_reference():
    px, pz, pc = steane_projectors()
    want_x = sum(kron_elements("X")) / 8
    want_z = sum(kron_elements("Z")) / 8
    assert np.array_equal(px, want_x)
    assert np.array_equal(pz, want_z)
    assert np.array_equal(pc, want_z @ want_x)
    for proj in (px, pz, pc):
        assert proj.dtype == np.complex128
        assert not proj.flags.writeable


def test_hybrid_channel_elements_match_kron_reference(monkeypatch):
    # the unitaries handed to the two LCU rounds, in element order
    seen = []
    from_terms = lcu.LcuDecomposition.from_terms

    def record(coefficients, unitaries):
        unitaries = list(unitaries)
        seen.append(unitaries)
        return from_terms(coefficients, unitaries)

    monkeypatch.setattr(lcu.LcuDecomposition, "from_terms", record)
    hybrid_qed_channel(codeword_density(0))
    assert len(seen) == 2
    for got, kind in zip(seen, "XZ"):
        want = kron_elements(kind)
        assert len(got) == len(want) == 8
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_pauli_string_matrix_is_hermitian_unitary():
    for kind in "XZ":
        for m in sector_elements(kind):
            assert np.array_equal(m, m.conj().T)
            assert qcore.is_unitary(m)


def test_pauli_string_kron_ordering():
    # the mask of qubit 0 is the most significant bit: X there swaps the two 64-dim half-blocks
    m = np.eye(128)[qed._flip(0b1000000)]
    assert np.array_equal(m, kron_string("X", (1,)))
    assert m[0, 64] == 1.0
    assert m[64, 0] == 1.0
    assert m[0, 0] == 0.0
    assert np.array_equal(qed._signs(0b1000000), np.repeat([1.0, -1.0], 64))


def test_steane_projector_traces_and_counts():
    px, _, pc = steane_projectors()
    assert len(set(qed._ELEMENT_MASKS)) == 8
    assert np.trace(px).real == pytest.approx(16.0, abs=1e-12)
    assert np.trace(pc).real == pytest.approx(2.0, abs=1e-12)


def test_steane_projectors_idempotent_commuting():
    px, pz, pc = steane_projectors()
    for proj in (px, pz, pc):
        assert np.abs(proj @ proj - proj).max() <= 1e-10
    assert np.abs(px @ pz - pz @ px).max() <= 1e-12
    assert np.abs(pz @ px - pc).max() <= 1e-12


def test_steane_code_space_rank_two():
    _, _, pc = steane_projectors()
    vals = np.linalg.eigvalsh(pc)
    assert ((vals > 0.5).sum()) == 2
    assert np.abs(vals[(vals <= 0.5)]).max() <= 1e-12


def test_group_closure_of_x_sector():
    # X strings multiply by XOR of their masks, with sign +1
    masks = set(qed._ELEMENT_MASKS)
    elements = list(sector_elements("X"))
    index = {mask: k for k, mask in enumerate(qed._ELEMENT_MASKS)}
    for a in qed._ELEMENT_MASKS:
        for b in qed._ELEMENT_MASKS:
            assert a ^ b in masks
            assert np.array_equal(elements[index[a]] @ elements[index[b]], elements[index[a ^ b]])


# ---------------------------------------------------------------------------
# codewords


def test_code_basis_closed_form():
    basis = qed._code_basis()
    assert basis is qed._code_basis()
    assert basis.shape == (128, 2)
    assert not basis.flags.writeable
    assert np.abs(basis.T @ basis - np.eye(2)).max() <= 1e-15
    # Z^f X^e maps amplitude i to (-1)^parity(i & f) times amplitude i ^ e
    for f in qed._ELEMENT_MASKS:
        for e in qed._ELEMENT_MASKS:
            moved = qed._signs(f)[:, None] * basis[qed._flip(e)]
            assert np.array_equal(moved, basis)
    _, _, pc = steane_projectors()
    assert np.abs(basis @ basis.conj().T - pc).max() <= 1e-12


def test_random_codeword_fixpoint_and_norm():
    _, _, pc = steane_projectors()
    rng = np.random.default_rng(3)
    for _ in range(5):
        psi = random_codeword(rng)
        assert np.linalg.norm(psi) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(pc @ psi - psi) <= 1e-10


def test_random_codeword_overlap_statistics():
    # Haar pairs on a 2-dim space have E|<a|b>|^2 = 1/2
    rng = np.random.default_rng(7)
    vals = []
    for _ in range(200):
        a = random_codeword(rng)
        b = random_codeword(rng)
        vals.append(abs(np.vdot(a, b)) ** 2)
    assert abs(np.mean(vals) - 0.5) <= 0.1  # 5 standard errors


# ---------------------------------------------------------------------------
# noise channel


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(p_z=-0.1, r=0.1)
    with pytest.raises(ValueError):
        NoiseModel(p_z=1.1, r=0.1)
    with pytest.raises(ValueError):
        NoiseModel(p_z=0.8, r=2.0)  # p_x = 1.6
    for p_z in (0.0, 0.01):
        for r in (float("nan"), float("inf")):  # at p_z = 0, p_x = inf * 0 is nan
            with pytest.raises(ValueError):
                NoiseModel(p_z=p_z, r=r)
    with pytest.raises(ValueError):
        fig_sweep(r_values=(float("nan"),), pz_grid=[0.01])
    assert NoiseModel(p_z=0.5, r=0.2).p_x == pytest.approx(0.1)


def test_noiseless_channel_is_identity():
    rho = codeword_density(0)
    out = apply_biased_noise(rho, NoiseModel(p_z=0.0, r=0.3))
    assert np.abs(out - rho).max() <= 1e-15


def test_half_probability_dephasing_kills_coherence():
    # |+><+| on qubit 0, |0> elsewhere; p_z = 1/2 leaves the qubit maximally mixed
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    psi = plus
    for _ in range(6):
        psi = np.kron(psi, np.array([1.0, 0.0]))
    rho = np.outer(psi, psi.conj())
    out = apply_pauli_channel(rho, 0, 0.5, "Z")
    # reduced state of qubit 0: trace out the other six qubits
    reduced = np.trace(out.reshape(2, 64, 2, 64), axis1=1, axis2=3)
    assert np.abs(reduced - np.eye(2) / 2.0).max() <= 1e-12
    # and in the X basis: a |0><0| qubit dephased by X at 1/2 also mixes
    zero = np.zeros(128)
    zero[0] = 1.0
    out_x = apply_pauli_channel(np.outer(zero, zero), 0, 0.5, "X")
    reduced_x = np.trace(out_x.reshape(2, 64, 2, 64), axis1=1, axis2=3)
    assert np.abs(reduced_x - np.eye(2) / 2.0).max() <= 1e-12


def test_pauli_channel_matches_matrix_conjugation():
    rho = codeword_density(5)
    for qubit, kind in ((0, "Z"), (3, "Z"), (2, "X"), (6, "X")):
        pauli = kron_string(kind, (qubit + 1,))
        expected = 0.7 * rho + 0.3 * (pauli @ rho @ pauli)
        got = apply_pauli_channel(rho, qubit, 0.3, kind)
        assert np.abs(got - expected).max() <= 1e-13
    with pytest.raises(ValueError, match="X and Z"):
        apply_pauli_channel(rho, 0, 0.3, "Y")
    for qubit in (-1, 7):
        with pytest.raises(IndexError):
            apply_pauli_channel(rho, qubit, 0.3, "Z")


def test_biased_noise_preserves_trace_and_psd():
    rho = codeword_density(9)
    out = apply_biased_noise(rho, NoiseModel(p_z=0.07, r=0.3))
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(out).min() >= -1e-12


# ---------------------------------------------------------------------------
# metrics


def test_noiseless_codeword_has_unit_metrics():
    m = qed_metrics(codeword_density(1))
    assert m.p == pytest.approx(1.0, abs=1e-12)
    assert m.r_factor == pytest.approx(1.0, abs=1e-12)


def test_pure_x_noise_keeps_r_at_one():
    rho = codeword_density(2)
    for q in range(7):
        rho = apply_pauli_channel(rho, q, 0.1, "X")
    m = qed_metrics(rho)
    assert m.r_factor == pytest.approx(1.0, abs=1e-12)
    assert m.p < 1.0


def test_r_independent_of_bias_ratio():
    rho = codeword_density(4)
    for p_z in (0.01, 0.05):
        values = []
        for r in (0.0, 0.1, 0.2, 0.3, 1.0):
            noisy = apply_biased_noise(rho, NoiseModel(p_z=p_z, r=r))
            values.append(qed_metrics(noisy).r_factor)
        assert max(values) - min(values) <= 1e-12


def test_metrics_sandwich():
    rng = np.random.default_rng(11)
    for _ in range(5):
        noisy = apply_biased_noise(codeword_density(int(rng.integers(100))), NoiseModel(p_z=0.05, r=0.2))
        m = qed_metrics(noisy)
        assert 0.0 <= m.p <= m.r_factor + 1e-12
        assert m.r_factor <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# hybrid wiring


def test_hybrid_channel_matches_projector_traces():
    rho = apply_biased_noise(codeword_density(6), NoiseModel(p_z=0.05, r=0.2))
    rep = hybrid_qed_channel(rho)
    assert abs(rep.r_composed - rep.r_direct) <= 1e-9
    assert abs(rep.p_composed - rep.p_direct) <= 1e-9
    assert rep.r_direct >= rep.p_direct - 1e-12


def test_hybrid_channel_identity_round_reduces_to_px():
    rho = apply_biased_noise(codeword_density(7), NoiseModel(p_z=0.03, r=0.1))
    rep = hybrid_qed_channel(rho, z_round_identity_only=True)
    assert abs(rep.r_composed - rep.r_direct) <= 1e-9
    # with the trivial second round the identity expectation is R, not P
    assert abs(rep.p_composed - rep.r_direct) <= 1e-9


# ---------------------------------------------------------------------------
# sweep


def test_fig_sweep_shape_and_invariants():
    rows = fig_sweep(r_values=(0.1, 0.3), pz_grid=np.geomspace(1e-3, 1e-1, 4), codewords=4, seed=2)
    assert len(rows) == 8
    by_pz = {}
    for row in rows:
        by_pz.setdefault(row.p_z, []).append(row.r_factor)
        assert row.gap >= -1e-12
        assert row.p_x == pytest.approx(row.r * row.p_z, rel=1e-15)
    for values in by_pz.values():
        assert len(set(values)) == 1  # R reads p_Z alone, to the bit
    for r in (0.1, 0.3):
        ps = [row.p for row in rows if row.r == r]
        assert all(a > b for a, b in zip(ps, ps[1:]))


def test_fig_sweep_matches_codeword_closed_forms():
    # every stabilizer fixes a codeword, so each trace is 1: P and R are the
    # mean noise weights, (sum wz)(sum wx)/64 and sum wx/8
    weights = np.array([bin(mask).count("1") for mask in qed._ELEMENT_MASKS])
    rows = fig_sweep(seed=4)
    assert len(rows) == 30
    for row in rows:
        wx = ((1.0 - 2.0 * row.p_z) ** weights).sum()
        wz = ((1.0 - 2.0 * row.p_x) ** weights).sum()
        assert abs(row.p - wz * wx / 64) <= 1e-14
        assert abs(row.r_factor - wx / 8) <= 1e-14


def test_codeword_trace_table_is_all_ones():
    # every Z^f X^e in the table is a Steane stabilizer, which fixes each code
    # state, so the codeword average has T = 1 whatever the seed or set size
    for seed in range(200):
        for codewords in (1, 2, 3, 5, 32, 100):
            rng = np.random.default_rng(seed)
            states = np.array([random_codeword(rng) for _ in range(codewords)])
            traces = qed.stabilizer_traces(states.T @ states.conj() / codewords)
            assert np.abs(traces - 1.0).max() <= 1e-15, (seed, codewords)


def test_fig_sweep_is_the_weight_enumerator():
    # the X sector is the identity and seven weight-4 strings, so with T = 1
    # R = (1 + 7x^4)/8 at x = 1 - 2 p_Z and P = R (1 + 7y^4)/8 at y = 1 - 2 p_X
    rows = fig_sweep(seed=1)
    for row, one in zip(rows, fig_sweep(seed=1, codewords=1)):
        r_factor = (1.0 + 7.0 * (1.0 - 2.0 * row.p_z) ** 4) / 8.0
        p = r_factor * (1.0 + 7.0 * (1.0 - 2.0 * row.p_x) ** 4) / 8.0
        assert abs(row.r_factor - r_factor) <= 1e-15 * r_factor and abs(row.p - p) <= 1e-15 * p
        assert abs(one.r_factor - r_factor) <= 1e-15 * r_factor and abs(one.p - p) <= 1e-15 * p


def test_fig_sweep_reads_neither_seed_nor_codeword_count():
    # the table is all ones for every code state, so the seed only labels the
    # rows and the codeword count changes no bit. A drawn codeword set can
    # round to the same bits by chance (seed 9 with one codeword matches seed 0
    # with 32), so three other runs are compared as well
    rows = fig_sweep(seed=0, codewords=32)
    for seed, codewords in ((9, 1), (1, 1), (2, 3), (3, 100)):
        others = fig_sweep(seed=seed, codewords=codewords)
        assert len(others) == len(rows) == 30
        for row, other in zip(rows, others):
            assert (row.seed, other.seed) == (0, seed)
            assert row._replace(seed=seed) == other


def test_qed_run_draws_no_random_number(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("random draw")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(qed, "random_codeword", refuse)
    assert cli.main(["qed", "--seed", "3", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "qed_sweep.csv").is_file()


def test_qed_run_calls_no_eigensolver(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolver called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(qcore, "eigh", refuse)
    qed._code_basis.cache_clear()  # build the basis under the patch
    assert len(fig_sweep(r_values=(0.2,), pz_grid=[0.01, 0.1], codewords=3, seed=8)) == 2
    assert cli.main(["qed", "--seed", "3", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "qed_sweep.csv").is_file()


def reference_sweep(r_values, pz_grid, codewords, seed):
    """Per-codeword loop: own eigh basis, one noise pass and one trace pair
    per codeword, averaged afterwards."""
    _, _, pc = steane_projectors()
    vals, vecs = np.linalg.eigh(pc)
    basis = vecs[:, vals > 0.5]
    rng = np.random.default_rng(seed)
    densities = []
    for _ in range(codewords):
        psi = basis @ (rng.normal(size=2) + 1j * rng.normal(size=2))
        psi /= np.linalg.norm(psi)
        densities.append(np.outer(psi, psi.conj()))
    out = []
    for r in r_values:
        for p_z in pz_grid:
            metrics = [qed_metrics(apply_biased_noise(rho, NoiseModel(p_z=p_z, r=r))) for rho in densities]
            out.append((np.mean([m.p for m in metrics]), np.mean([m.r_factor for m in metrics])))
    return out


def test_fig_sweep_matches_per_codeword_average():
    # the sweep's all-ones table against a per-codeword average through the dense channel
    r_values, pz_grid = (0.1, 0.3), (1e-3, 1e-2, 1e-1)
    rows = fig_sweep(r_values=r_values, pz_grid=pz_grid, codewords=5, seed=3)
    expected = reference_sweep(r_values, pz_grid, codewords=5, seed=3)
    assert len(rows) == len(expected)
    for row, (p, r_factor) in zip(rows, expected):
        assert abs(row.p - p) <= 1e-14
        assert abs(row.r_factor - r_factor) <= 1e-14


def dense_metrics(rho, p_z, p_x):
    """(P, R) by the Schroedinger-picture channel and the dense projectors."""
    px, _, pc = steane_projectors()
    if p_z > 0.0:
        noise = NoiseModel(p_z=p_z, r=p_x / p_z)
        assert noise.p_x == p_x
        rho = apply_biased_noise(rho, noise)
    else:
        # no NoiseModel has p_z = 0 < p_x: the X half of apply_biased_noise
        for q in range(7):
            rho = apply_pauli_channel(rho, q, p_x, "X")
    return np.trace(pc @ rho).real, np.trace(px @ rho).real


def test_trace_table_matches_dense_channel_on_mixed_states():
    # full-rank mixed states: unlike codewords, they have traces off the code
    # space, and tr[Z^f X^e rho] differs from tr[Z^e X^f rho]
    rng = np.random.default_rng(17)
    rates = (0.0, 0.03, 0.5, 1.0)
    for _ in range(3):
        rho = random_density(128, rng)
        traces = qed.stabilizer_traces(rho)
        assert traces.shape == (8, 8)
        assert np.abs(traces - traces.T).max() > 1e-3
        assert qed_metrics(rho) == qed.metrics_from_traces(traces)
        for p_z in rates:
            for p_x in rates:
                got = qed.metrics_from_traces(traces, p_z, p_x)
                p, r_factor = dense_metrics(rho, p_z, p_x)
                assert abs(got.p - p) <= 1e-14
                assert abs(got.r_factor - r_factor) <= 1e-14
    with pytest.raises(ValueError):
        qed_metrics(np.eye(64) / 64)


def test_write_sweep_csv(tmp_path):
    rows = fig_sweep(r_values=(0.1,), pz_grid=np.array([0.01, 0.05]), codewords=2, seed=1)
    path = tmp_path / "qed.csv"
    write_sweep_csv(path, rows, seed=1)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,pZ,pX,P,R,R_minus_P,seed"
    assert len(lines) == 4
    assert lines[-1] == "# seed=1 version=0.1.0"
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(0.01)
    assert float(first[5]) == pytest.approx(rows[0].gap, abs=1e-15)
