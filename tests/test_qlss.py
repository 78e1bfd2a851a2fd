"""Linear-system driver checks: grids, reduction factors, inverse error."""

import dataclasses
import math

import numpy as np
import pytest

from hybridlcu import cli, lcu, partition, qcore, qlss
from hybridlcu.qlss import (
    QlssConfig,
    QlssGrid,
    ancilla_counts,
    build_grid,
    fit_exponents,
    group_operator,
    inverse_error,
    k_scalar,
    random_instance,
    reduction_factors,
    sweep,
    write_table_csv,
)

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def identity_config(dim: int = 2, epsilon: float = 0.1, kappa: float = 1.0) -> QlssConfig:
    b = np.zeros(dim)
    b[0] = 1.0
    return QlssConfig(m_matrix=np.eye(dim), b=b, kappa=kappa, epsilon=epsilon)


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_epsilon_out_of_range():
    for eps in (1.0, 1.5, 0.0, -0.1):
        with pytest.raises(ValueError):
            identity_config(epsilon=eps)


def test_config_rejects_kappa_below_one():
    with pytest.raises(ValueError):
        identity_config(kappa=0.5)


def test_config_rejects_non_unit_b():
    with pytest.raises(ValueError):
        QlssConfig(m_matrix=np.eye(2), b=np.array([1.0, 1.0]), kappa=2.0, epsilon=0.1)
    with pytest.raises(ValueError, match="b length"):
        QlssConfig(m_matrix=np.eye(2), b=np.array([1.0, 0.0, 0.0]), kappa=2.0, epsilon=0.1)


def test_config_rejects_singular_values_outside_band():
    # eigenvalue 2 > 1
    with pytest.raises(ValueError):
        QlssConfig(m_matrix=np.diag([2.0, 1.0]), b=np.array([1.0, 0.0]), kappa=4.0, epsilon=0.1)
    # eigenvalue 0.1 < 1/kappa = 0.5
    with pytest.raises(ValueError):
        QlssConfig(m_matrix=np.diag([1.0, 0.1]), b=np.array([1.0, 0.0]), kappa=2.0, epsilon=0.1)


def test_config_rejects_non_hermitian():
    m = np.array([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        QlssConfig(m_matrix=m, b=np.array([1.0, 0.0]), kappa=2.0, epsilon=0.1)


def test_config_accepts_negative_eigenvalues():
    cfg = QlssConfig(
        m_matrix=np.diag([1.0, -0.5]), b=np.array([0.0, 1.0]), kappa=2.0, epsilon=0.1
    )
    assert cfg.dimension == 2


def test_config_arrays_are_read_only():
    cfg = random_instance(4.0, 0.05, dim=4, seed=0, haar_b=True)
    for a in (cfg.eigenvalues, cfg.eigenvectors, cfg.b, cfg.b_eigen):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


# ---------------------------------------------------------------------------
# grid construction


def test_grid_example_values():
    # kappa=2, eps=0.1: log factor ln 20 = 2.9957..., so
    # J = ceil(2 * 20 * ln 20) = 120, K = ceil(2 * 2 * ln 20) = 12,
    # Dy = 0.1/sqrt(ln 20), Dz = 0.5/sqrt(ln 20)
    cfg = QlssConfig(
        m_matrix=np.diag([1.0, 0.5]), b=np.array([1.0, 0.0]), kappa=2.0, epsilon=0.1
    )
    grid = build_grid(cfg)
    assert grid.j_count == 120
    assert grid.k_count == 12
    assert grid.dy == pytest.approx(0.0577761, rel=1e-5)
    assert grid.dz == pytest.approx(0.2888807, rel=1e-5)


def test_grid_z_cutoff_tracks_sqrt_log():
    # K*Dz should equal C_K*C_Z*sqrt(log(kappa/eps)) up to one ceil step
    for kappa in (2.0, 5.0, 17.0, 40.0):
        cfg = identity_config(epsilon=0.02, kappa=kappa)
        grid = build_grid(cfg)
        target = qlss.C_K * qlss.C_Z * math.sqrt(cfg.log_factor)
        assert abs(grid.k_count * grid.dz - target) <= grid.dz


def test_grid_weights_termwise():
    grid = build_grid(identity_config(epsilon=0.2))
    beta_loop = 0.0
    for idx in range(2 * grid.k_count + 1):
        k = idx - grid.k_count
        z = k * grid.dz
        w = grid.dz * z * math.exp(-0.5 * z * z)
        assert grid.z_nodes[idx] == pytest.approx(z, abs=1e-15)
        assert grid.z_weights[idx] == pytest.approx(w, rel=1e-13, abs=1e-18)
        beta_loop += abs(w)
    assert grid.beta == pytest.approx(beta_loop, rel=1e-13)


def test_oversized_inner_grid_is_refused_before_allocation(monkeypatch):
    # 2K+1 ~ 1e11 nodes at kappa = 1e9: refused by the cap, not by numpy's
    # allocation; an infinite log factor is refused before ceil overflows on it
    for kappa in (1e9, math.inf):
        with pytest.raises(ValueError, match="too large to materialize"):
            build_grid(identity_config(kappa=kappa, epsilon=1e-2))
    # the cap is exact: dim * (2K+1) <= 64 at dimension 2 allows K = 15 and no more
    monkeypatch.setattr(qlss, "MAX_GRID_ENTRIES", 64)
    assert build_grid(identity_config(kappa=2.3)).k_count == 15
    with pytest.raises(ValueError, match="too large to materialize"):
        build_grid(identity_config(kappa=2.4))


def test_beta_close_to_two_at_operating_points():
    for kappa in (4.0, 8.0, 16.0, 32.0):
        grid = build_grid(identity_config(epsilon=1e-2, kappa=kappa))
        assert abs(grid.beta - 2.0) <= 0.1
    # the coarse example grid stays inside the band as well
    grid = build_grid(identity_config(epsilon=0.1, kappa=2.0))
    assert abs(grid.beta - 2.0) <= 0.1


def test_one_norm_identity_and_double_sum():
    grid = build_grid(identity_config(epsilon=0.2, kappa=1.5))
    assert grid.one_norm == pytest.approx(
        grid.j_count * grid.dy * grid.beta / SQRT_TWO_PI, rel=1e-14
    )
    total = 0.0
    for _ in range(grid.j_count):
        for idx in range(2 * grid.k_count + 1):
            z = grid.z_nodes[idx]
            total += grid.dy * grid.dz * abs(z) * math.exp(-0.5 * z * z)
    assert grid.one_norm == pytest.approx(total / SQRT_TWO_PI, rel=1e-12)


def test_one_norm_scales_linearly_in_kappa():
    kappas = np.geomspace(2.0, 64.0, 7)
    norms = []
    for kappa in kappas:
        grid = build_grid(identity_config(epsilon=1e-2, kappa=float(kappa)))
        norms.append(grid.one_norm)
    slope = np.polyfit(np.log(kappas), np.log(norms), 1)[0]
    assert abs(slope - 1.0) <= 0.1


def test_degenerate_grid_rejected():
    grid = build_grid(identity_config())
    cases = [
        ("one node per axis", dict(j_count=0)),
        ("steps", dict(dy=0.0)),
        ("steps", dict(dz=-grid.dz)),
        (r"2K\+1", dict(z_nodes=grid.z_nodes[:-1])),
        ("matching shapes", dict(z_weights=grid.z_weights[:-1])),
        ("zero weight", dict(z_weights=np.zeros_like(grid.z_weights), beta=0.0, one_norm=0.0)),
    ]
    for match, bad in cases:
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(grid, **bad)


# ---------------------------------------------------------------------------
# hybrid partition


def test_partition_weights_uniform_and_normalized():
    # each outer node carries Dy beta / sqrt(2pi) of the 1-norm, so q_j = 1/J
    cfg = random_instance(4.0, 1e-2, dim=4, seed=5, haar_b=True)
    grid = build_grid(cfg)
    q = grid.beta * grid.dy / (grid.one_norm * SQRT_TWO_PI)
    assert abs(grid.j_count * q - 1.0) <= 1e-12


def test_partition_operator_at_y_zero_vanishes():
    cfg = random_instance(4.0, 1e-2, dim=4, seed=5, haar_b=True)
    assert np.abs(group_operator(cfg, build_grid(cfg), 0)).max() <= 1e-14


def test_partition_operators_subnormalized():
    cfg = random_instance(6.0, 0.05, dim=5, seed=3, haar_b=True)
    grid = build_grid(cfg)
    for j in (1, 5, grid.j_count // 3, grid.j_count - 1):
        assert np.linalg.norm(group_operator(cfg, grid, j), 2) <= 1.0 + 1e-9


def test_partition_operator_matches_gaussian_pulse():
    # exact inner sum vs the closed-form pulse sqrt(2pi)/beta * My exp(-(My)^2/2)
    cfg = random_instance(4.0, 1e-2, dim=4, seed=5, haar_b=True)
    grid = build_grid(cfg)
    v = cfg.eigenvectors
    for j in (1, 7, grid.j_count // 4, grid.j_count // 2, grid.j_count - 1):
        arg = cfg.eigenvalues * j * grid.dy
        pulse = SQRT_TWO_PI / grid.beta * arg * np.exp(-0.5 * arg**2)
        approx = (v * pulse[None, :]) @ v.conj().T
        assert np.linalg.norm(group_operator(cfg, grid, j) - approx, 2) <= 1e-4


def test_k_scalar_unit_eigenvalue_oracle():
    # M = (1), y = 1: the inner sum approximates sqrt(2pi)/beta * e^{-1/2}
    cfg = QlssConfig(m_matrix=np.array([[1.0]]), b=np.array([1.0]), kappa=1.0, epsilon=0.01)
    grid = build_grid(cfg)
    expected = SQRT_TWO_PI / grid.beta * math.exp(-0.5)
    got = k_scalar(grid, 1.0, 1.0)[0]
    assert abs(got - expected) <= 1e-3


def test_k_scalar_odd_in_lambda():
    grid = build_grid(identity_config(epsilon=0.05))
    plus = k_scalar(grid, 0.7, 1.3)[0]
    minus = k_scalar(grid, -0.7, 1.3)[0]
    assert plus == pytest.approx(-minus, rel=1e-12)


def test_geometric_sum_matches_direct_sum_past_two_pi():
    # the lag kernel reaches |x| = 7.52 at kappa = 1.368, epsilon = 0.947 (J = 2);
    # at and near x = 2pi the sum is count, not -count or a quotient of rounding
    # errors. The direct sum rounds each x j itself, by up to 1e-14 at x j = 48.
    x = np.concatenate([np.linspace(-8.0, 8.0, 1601), 2 * math.pi * np.array([-1.0, 1.0, 1.0 - 1e-10, 1.0 + 1e-14])])
    for count in (1, 2, 7):
        direct = np.exp(-1j * np.outer(x, np.arange(count))).sum(axis=1)
        assert np.abs(qlss._geometric_sum(x, count) - direct).max() <= 1e-13
    cfg = random_instance(1.368, 0.947, dim=8, seed=7)
    grid = build_grid(cfg)
    lags = np.arange(-2 * grid.k_count, 2 * grid.k_count + 1)
    assert grid.j_count == 2 and np.abs(cfg.eigenvalues).max() * grid.dy * grid.dz * lags.max() > 7.5


# ---------------------------------------------------------------------------
# reduction factors


def test_reduction_sandwich_on_random_instances():
    rng = np.random.default_rng(20)
    for trial in range(20):
        kappa = float(rng.uniform(1.5, 20.0))
        eps = float(rng.uniform(0.02, 0.3))
        dim = int(rng.integers(2, 9))
        cfg = random_instance(kappa, eps, dim=dim, seed=100 + trial, haar_b=True)
        grid = build_grid(cfg)
        rf = reduction_factors(cfg, grid)
        assert rf.r_rand == 1.0
        assert rf.r_conv <= rf.r_int + 1e-9
        assert rf.r_int <= 1.0 + 1e-9
        assert rf.r_conv > 0.0


def test_r_int_direct_matches_bruteforce():
    cfg = random_instance(2.0, 0.2, dim=3, seed=2, haar_b=True)
    grid = build_grid(cfg)
    rf = reduction_factors(cfg, grid)
    brute = 0.0
    for j in range(grid.j_count):
        vec = group_operator(cfg, grid, j) @ cfg.b
        brute += float(np.vdot(vec, vec).real) / grid.j_count
    assert rf.r_int == pytest.approx(brute, abs=1e-12)


def test_r_int_matches_closed_form_at_operating_points():
    for kappa in (4.0, 8.0):
        for eps in (0.05, 0.01):
            cfg = random_instance(kappa, eps, dim=8, seed=13, haar_b=True)
            grid = build_grid(cfg)
            rf = reduction_factors(cfg, grid)
            rel = abs(rf.r_int - rf.r_int_closed_form) / rf.r_int_closed_form
            assert rel <= 0.10


def test_closed_form_identity_matrix():
    # |M|^{-1} = 1, so the closed form reduces to pi*sqrt(2)/(4*beta*|c|_1)
    cfg = identity_config(dim=3, epsilon=0.01)
    grid = build_grid(cfg)
    rf = reduction_factors(cfg, grid)
    assert rf.r_int_closed_form == pytest.approx(
        math.pi * math.sqrt(2.0) / (4.0 * grid.beta * grid.one_norm), rel=1e-12
    )


def test_r_int_ordering_follows_inverse_magnitude():
    m = np.diag([1.0, 0.125])
    small = QlssConfig(m_matrix=m, b=np.array([0.0, 1.0]), kappa=8.0, epsilon=0.01)
    large = QlssConfig(m_matrix=m, b=np.array([1.0, 0.0]), kappa=8.0, epsilon=0.01)
    grid = build_grid(small)
    r_small = reduction_factors(small, grid).r_int
    r_large = reduction_factors(large, grid).r_int
    assert r_small > r_large


def test_reduction_factors_match_generic_partition_machinery():
    # expand the double sum into an explicit LCU and check the generic
    # reduction-factor code reproduces R_int (group by j), P (one group)
    # and R_rand = 1 (singletons)
    cfg = random_instance(1.5, 0.25, dim=3, seed=2, haar_b=True)
    grid = build_grid(cfg)
    coeffs = []
    unis = []
    for j in range(grid.j_count):
        y = j * grid.dy
        for k in range(-grid.k_count, grid.k_count + 1):
            if k == 0:
                continue  # zero coefficient, the constructor would drop it anyway
            z = k * grid.dz
            coeffs.append(grid.dy * grid.dz * abs(z) * math.exp(-0.5 * z * z) / SQRT_TWO_PI)
            unis.append(1j * np.sign(z) * qcore.expm_i_hermitian(cfg.m_matrix, y * z))
    dec = lcu.LcuDecomposition.from_terms(coeffs, unis)
    assert dec.one_norm == pytest.approx(grid.one_norm, rel=1e-12)
    per_group = 2 * grid.k_count
    groups = [list(range(j * per_group, (j + 1) * per_group)) for j in range(grid.j_count)]
    rho = np.outer(cfg.b, cfg.b.conj())
    rf = reduction_factors(cfg, grid)
    r_grouped = partition.reduction_factor(dec, partition.Partition(groups, dec.m), rho)
    assert r_grouped == pytest.approx(rf.r_int, abs=1e-9)
    p_coherent = partition.reduction_factor(dec, partition.Partition.coherent(dec.m), rho)
    assert p_coherent == pytest.approx(rf.r_conv, abs=1e-9)
    r_singletons = partition.reduction_factor(dec, partition.Partition.singletons(dec.m), rho)
    assert r_singletons == pytest.approx(1.0, abs=1e-12)


def test_sanity_bounds_on_moments():
    for seed in range(5):
        cfg = random_instance(7.0, 0.05, dim=6, seed=seed, haar_b=True)
        probs = np.abs(cfg.b_eigen) ** 2
        m_minus2 = float((probs / cfg.eigenvalues**2).sum())
        abs_inv = float((probs / np.abs(cfg.eigenvalues)).sum())
        assert m_minus2 <= cfg.kappa**2 * (1.0 + 1e-9)
        assert abs_inv <= cfg.kappa * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# inverse error


def test_inverse_error_within_budget():
    for kappa in (1.0, 2.0, 10.0):
        for eps in (0.01, 0.1):
            for dim in (4, 16):
                cfg = random_instance(kappa, eps, dim=dim, seed=11, haar_b=True)
                grid = build_grid(cfg)
                assert inverse_error(cfg, grid) <= 5.0 * eps


def test_inverse_error_scalar_quadrature_oracle():
    # dim 1, M = (1): the assembled sum is a plain double quadrature of
    # known shape; recompute it with explicit loops
    cfg = QlssConfig(m_matrix=np.array([[1.0]]), b=np.array([1.0]), kappa=1.0, epsilon=0.01)
    grid = build_grid(cfg)
    acc = 0.0
    for j in range(grid.j_count):
        for k in range(-grid.k_count, grid.k_count + 1):
            z = k * grid.dz
            acc += grid.dy * grid.dz * z * math.exp(-0.5 * z * z) * math.sin(j * grid.dy * z)
    g_loop = acc / SQRT_TWO_PI
    assert inverse_error(cfg, grid) == pytest.approx(abs(g_loop - 1.0), abs=1e-12)
    assert inverse_error(cfg, grid) <= 5.0 * cfg.epsilon


def test_inverse_error_matches_assembled_matrix_route():
    cfg = random_instance(5.0, 0.05, dim=6, seed=8, haar_b=True)
    grid = build_grid(cfg)
    approx = qlss.assemble(cfg, grid)
    assert np.abs(approx - approx.conj().T).max() <= 1e-10
    truth = np.linalg.solve(cfg.m_matrix, cfg.b)
    direct = np.linalg.norm(approx @ cfg.b - truth) / np.linalg.norm(truth)
    assert inverse_error(cfg, grid) == pytest.approx(direct, rel=1e-10)


def even_weights(grid: QlssGrid) -> QlssGrid:
    """The grid with |w_k| for its odd inner weights w_k, so the assembled scalars are not real."""
    return dataclasses.replace(grid, z_weights=np.abs(grid.z_weights))


def test_assembled_scalars_that_are_not_real_are_an_invariant_violation(monkeypatch, tmp_path, capsys):
    cfg = random_instance(4.0, 1e-2, dim=4, seed=1)
    with pytest.raises(qcore.InvariantViolation, match="assembled scalars are not real"):
        reduction_factors(cfg, even_weights(build_grid(cfg)))
    # a numerical fault, exit 3, and no CSV is written
    monkeypatch.setattr(qlss, "build_grid", lambda config: even_weights(build_grid(config)))
    capsys.readouterr()
    assert cli.main(["qlss", "--out", str(tmp_path)]) == 3
    assert "invariant violation: assembled scalars are not real" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


def test_inverse_error_per_eigenvalue_reduction():
    # diagonal M: the error decomposes over eigenvalues, so zeroing the
    # b-weight on the worst eigenvalue cannot increase the error
    m = np.diag([1.0, 0.25])
    cfg_mixed = QlssConfig(
        m_matrix=m, b=np.array([1.0, 1.0]) / math.sqrt(2.0), kappa=4.0, epsilon=0.05
    )
    grid = build_grid(cfg_mixed)
    errs = []
    for b in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        cfg = QlssConfig(m_matrix=m, b=b, kappa=4.0, epsilon=0.05)
        errs.append(inverse_error(cfg, grid))
    mixed = inverse_error(cfg_mixed, grid)
    assert min(errs) <= mixed <= max(errs) + 1e-15


def test_inverse_error_grows_when_j_halved():
    cfg = random_instance(4.0, 0.05, dim=4, seed=9, haar_b=True)
    grid = build_grid(cfg)
    half_j = grid.j_count // 2
    half = QlssGrid(
        j_count=half_j,
        k_count=grid.k_count,
        dy=grid.dy,
        dz=grid.dz,
        z_nodes=grid.z_nodes,
        z_weights=grid.z_weights,
        beta=grid.beta,
        one_norm=half_j * grid.dy * grid.beta / SQRT_TWO_PI,
    )
    assert inverse_error(cfg, half) > inverse_error(cfg, grid)


# ---------------------------------------------------------------------------
# table sweep, exponents, ancillas, csv


def test_table_exponents():
    rows = sweep([4, 8, 16, 32], epsilon=1e-2, dim=8, seed=7)
    slope_int, slope_conv = fit_exponents(rows)
    assert abs(slope_int - (-0.5)) <= 0.15
    assert abs(slope_conv - (-1.0)) <= 0.15
    with pytest.raises(ValueError, match="two rows"):
        fit_exponents(rows[:1])


def test_table_rows_consistent():
    rows = sweep([4, 8], epsilon=1e-2, dim=4, seed=1)
    for row in rows:
        assert row.r_rand == 1.0
        assert row.p <= row.r_int + 1e-9 <= 1.0 + 2e-9
        assert row.anc_hybrid < row.anc_coherent


def test_ancilla_counts_example():
    grid = build_grid(identity_config(epsilon=0.1, kappa=2.0))
    # 2K+1 = 25 -> 5 qubits; J(2K+1) = 3000 -> 12 qubits
    assert ancilla_counts(grid) == (5, 12)


def test_ancilla_counts_power_of_two_edge():
    grid = build_grid(identity_config())
    padded = QlssGrid(
        j_count=2,
        k_count=grid.k_count,
        dy=grid.dy,
        dz=grid.dz,
        z_nodes=grid.z_nodes,
        z_weights=grid.z_weights,
        beta=grid.beta,
        one_norm=2 * grid.dy * grid.beta / SQRT_TWO_PI,
    )
    inner = 2 * grid.k_count + 1
    hybrid_bits, coherent_bits = ancilla_counts(padded)
    assert hybrid_bits == math.ceil(math.log2(inner))
    assert coherent_bits == math.ceil(math.log2(2 * inner))


def test_write_table_csv(tmp_path):
    rows = sweep([4, 8], epsilon=1e-2, dim=4, seed=1)
    path = tmp_path / "qlss.csv"
    write_table_csv(path, rows, seed=1)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "kappa,epsilon,J,K,one_norm,P,R_int,R_int_closed_form,R_rand,"
        "anc_hybrid,anc_coherent"
    )
    assert len(lines) == len(rows) + 2
    assert lines[-1] == "# seed=1 version=0.1.0"
    first = lines[1].split(",")
    assert float(first[0]) == 4.0
    assert int(first[2]) == rows[0].j_count
    assert float(first[6]) == pytest.approx(rows[0].r_int, rel=1e-15)
