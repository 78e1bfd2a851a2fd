"""Ground-state filter checks: cosine/Gaussian stages, hybrid report, complexity."""

import math

import numpy as np
import pytest
from rounds import compose_rounds
from scipy.linalg import cosm

from hybridlcu import gsp, hybrid, lcu, partition, qcore
from hybridlcu.gsp import (
    GspConfig,
    complexity_report,
    cosine_filter,
    cosine_params,
    hybrid_gsp,
    random_gsp_instance,
    write_report_rows_csv,
)


def ground_of(h: np.ndarray) -> np.ndarray:
    return np.linalg.eigh(h)[1][:, 0]


# ---------------------------------------------------------------------------
# cosine filter


def test_cosine_filter_projects_two_level_example():
    h = np.diag([0.0, math.pi / 2.0])
    filt = cosine_filter(h, 0.0, 0.0, 1)
    assert np.abs(filt - np.diag([1.0, 0.0])).max() <= 1e-12


def test_cosine_filter_order_zero_is_identity():
    rng = np.random.default_rng(4)
    h = rng.normal(size=(5, 5))
    h = 0.5 * (h + h.T)
    filt = cosine_filter(h, 0.3, 0.1, 0)
    assert np.abs(filt - np.eye(5)).max() <= 1e-12


def test_cosine_filter_rejects_negative_order():
    with pytest.raises(ValueError):
        cosine_filter(np.eye(2), 0.0, 0.0, -1)


def test_cosine_filter_commutes_with_h():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = 0.5 * (z + z.conj().T)
    filt = cosine_filter(h, 0.2, 0.05, 7)
    assert np.abs(filt @ h - h @ filt).max() <= 1e-10


def test_cosine_filter_matches_matrix_cosine_power():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = 0.25 * (z + z.conj().T)
    e, tau, order = 0.1, 0.07, 5
    filt = cosine_filter(h, e, tau, order)
    shifted = h - (e - tau) * np.eye(5)
    ref = np.linalg.matrix_power(cosm(shifted), order)
    assert np.abs(filt - ref).max() <= 1e-9


# ---------------------------------------------------------------------------
# cosine parameters


def test_cosine_params_unit_example():
    # Delta=1 and p0*eps = 1/e make the log factor exactly 1
    order, tau = cosine_params(1.0, 1.0, math.exp(-1.0))
    assert order == 1
    assert tau == pytest.approx(1.0, rel=1e-12)


def test_cosine_params_halved_gap_quadruples_order():
    eps = math.exp(-2.0)  # log factor exactly 2, no ceil slack
    order_full, _ = cosine_params(0.5, 1.0, eps)
    order_half, _ = cosine_params(0.25, 1.0, eps)
    assert order_full == 16
    assert order_half == 64


def test_cosine_params_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        cosine_params(0.0, 0.5, 0.1)
    with pytest.raises(ValueError):
        cosine_params(1.0, 1.0, 1.0)  # log factor 0
    with pytest.raises(ValueError):
        cosine_params(1.0, 0.5, -0.1)


# ---------------------------------------------------------------------------
# filter quality


def test_filter_quality_ground_state_input():
    h, _ = random_gsp_instance(6, 0.2, 0.5, seed=1)
    lam0 = np.linalg.eigvalsh(h)[0]
    order, tau = 9, 0.08
    filt = cosine_filter(h, lam0, tau, order)
    dist, surv = gsp._filter_quality(ground_of(h), ground_of(h), filt)
    assert dist <= 1e-7
    assert surv == pytest.approx(math.cos(tau) ** order, rel=1e-12)


def test_filter_quality_two_level_uniform_perfect_filter():
    h = np.diag([0.0, math.pi / 2.0])
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    filt = cosine_filter(h, 0.0, 0.0, 1)
    dist, surv = gsp._filter_quality(ground_of(h), psi, filt)
    assert dist <= 1e-12
    assert surv == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_filter_quality_identity_keeps_initial_distance():
    h, psi = random_gsp_instance(5, 0.2, 0.4, seed=3)
    dist, surv = gsp._filter_quality(ground_of(h), psi, np.eye(5))
    ground = ground_of(h)
    expected = math.sqrt(2.0 - 2.0 * abs(np.vdot(ground, psi)))
    assert dist == pytest.approx(expected, abs=1e-12)
    assert surv == pytest.approx(1.0, rel=1e-12)


def test_filter_quality_global_phase_invariant():
    h, psi = random_gsp_instance(5, 0.2, 0.4, seed=8)
    filt = cosine_filter(h, np.linalg.eigvalsh(h)[0], 0.1, 4)
    d1, s1 = gsp._filter_quality(ground_of(h), psi, filt)
    d2, s2 = gsp._filter_quality(ground_of(h), np.exp(1j * 0.83) * psi, filt)
    assert d1 == pytest.approx(d2, abs=1e-12)
    assert s1 == pytest.approx(s2, rel=1e-12)


def test_filter_quality_rejects_unnormalized_input():
    h, psi = random_gsp_instance(4, 0.2, 0.4, seed=0)
    with pytest.raises(ValueError):
        gsp._filter_quality(ground_of(h), 2.0 * psi, np.eye(4))


# ---------------------------------------------------------------------------
# gaussian filter


def test_gaussian_filter_sigma_zero_is_identity():
    h, _ = random_gsp_instance(5, 0.2, 0.4, seed=2)
    assert np.abs(gsp._gaussian_filter(qcore.eigh(h), 0.3, 0.1, 0.0) - np.eye(5)).max() <= 1e-12
    with pytest.raises(ValueError, match="sigma2"):
        gsp._gaussian_filter(qcore.eigh(h), 0.3, 0.1, -1e-3)


def test_gaussian_filter_fixes_shifted_ground_state():
    h, _ = random_gsp_instance(5, 0.2, 0.4, seed=5)
    lam0 = np.linalg.eigvalsh(h)[0]
    tau_prime = 0.07
    filt = gsp._gaussian_filter(qcore.eigh(h), lam0 + tau_prime, tau_prime, 40.0)
    ground = ground_of(h)
    assert np.linalg.norm(filt @ ground - ground) <= 1e-12


def test_gaussian_filter_psd_and_subnormalized():
    h, _ = random_gsp_instance(7, 0.15, 0.4, seed=6)
    filt = gsp._gaussian_filter(qcore.eigh(h), 0.2, 0.05, 30.0)
    vals = np.linalg.eigvalsh(filt)
    assert vals.min() >= -1e-12
    assert vals.max() <= 1.0 + 1e-12


def test_gaussian_filter_alone_meets_distance_target():
    # single-stage run with the documented widths on a 16-dim instance
    delta, p0, eps = 0.2, 0.5, 1e-3
    h, psi = random_gsp_instance(16, delta, p0, seed=12)
    lam0 = np.linalg.eigvalsh(h)[0]
    sigma2 = math.log(p0 / eps) / delta**2
    tau_prime = delta / math.sqrt(math.log(p0 / eps))
    filt = gsp._gaussian_filter(qcore.eigh(h), lam0, tau_prime, sigma2)
    dist, surv = gsp._filter_quality(ground_of(h), psi, filt)
    assert dist <= 5.0 * eps
    # survival is at least the ground component times the ground filter
    # value exp(-sigma2 tau'^2 / 2) = exp(-1/2)
    assert surv >= math.sqrt(p0) * math.exp(-0.5) - 1e-12


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_bad_spectrum():
    with pytest.raises(ValueError):
        GspConfig(h_matrix=np.diag([0.0, 1.5]), p0=0.5, epsilon=0.1)
    with pytest.raises(ValueError):
        GspConfig(h_matrix=np.diag([-0.2, 0.5]), p0=0.5, epsilon=0.1)


def test_config_rejects_degenerate_ground_state():
    with pytest.raises(ValueError):
        GspConfig(h_matrix=np.diag([0.3, 0.3, 0.8]), p0=0.5, epsilon=0.1)


def test_config_rejects_epsilon_not_below_p0():
    h, _ = random_gsp_instance(4, 0.2, 0.5, seed=0)
    with pytest.raises(ValueError):
        GspConfig(h_matrix=h, p0=0.5, epsilon=0.5)
    with pytest.raises(ValueError):
        GspConfig(h_matrix=h, p0=0.5, epsilon=0.0)
    for p0 in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="p0"):
            GspConfig(h_matrix=h, p0=p0, epsilon=0.1)
    for c_tau in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="c_tau"):
            GspConfig(h_matrix=h, p0=0.5, epsilon=0.1, c_tau=c_tau)


def test_config_derived_parameters():
    h, _ = random_gsp_instance(6, 0.2, 0.5, seed=1)
    cfg = GspConfig(h_matrix=h, p0=0.5, epsilon=1e-3)
    t_prime, tau = cfg.stage1_params
    log_p0_sq = math.log(1.0 / 0.25)  # stage-1 targets distance p0
    assert t_prime == math.ceil(log_p0_sq**2 / cfg.gap**2)
    assert tau == pytest.approx(cfg.gap / log_p0_sq, rel=1e-12)
    log_ratio = math.log(0.5 / 1e-3)
    assert cfg.sigma2 == pytest.approx(log_ratio / cfg.gap**2, rel=1e-12)
    assert cfg.tau_prime == pytest.approx(cfg.gap / math.sqrt(log_ratio), rel=1e-12)
    assert cfg.e_estimate == pytest.approx(cfg.lambda0)


# ---------------------------------------------------------------------------
# instance generator


def test_random_instance_has_exact_gap_and_overlap():
    for seed in range(5):
        h, psi = random_gsp_instance(10, 0.17, 0.45, seed=seed)
        w = np.linalg.eigvalsh(h)
        assert w[1] - w[0] == pytest.approx(0.17, abs=1e-12)
        assert w.min() >= -1e-12
        assert w.max() <= 1.0 + 1e-12
        assert np.linalg.norm(psi) == pytest.approx(1.0, rel=1e-12)
        overlap = abs(np.vdot(ground_of(h), psi)) ** 2
        assert overlap == pytest.approx(0.45, abs=1e-12)


# ---------------------------------------------------------------------------
# hybrid two-stage run


def test_hybrid_report_at_operating_point():
    for seed in range(5):
        h, psi = random_gsp_instance(16, 0.2, 0.5, seed=seed)
        cfg = GspConfig(h_matrix=h, p0=0.5, epsilon=1e-3)
        rep = hybrid_gsp(cfg, psi)
        assert rep.precondition_ok
        assert rep.t_prime == 49
        assert rep.sigma2 == pytest.approx(155.365, abs=0.01)
        assert rep.stage1_distance <= 5.0 * cfg.p0
        assert rep.final_distance <= 5.0 * cfg.epsilon
        # R equals the spectral expectation of cos^{2T'}
        w, v = np.linalg.eigh(h)
        amps = v.conj().T @ psi
        spectral = float(
            (np.abs(amps) ** 2 * np.cos(w - (cfg.e_estimate - rep.tau)) ** (2 * rep.t_prime)).sum()
        )
        assert abs(rep.r_factor - spectral) <= 1e-10
        assert rep.r_factor <= 1.0 + 1e-12
        assert rep.r_factor == pytest.approx(rep.stage1_survival**2, abs=1e-12)


def test_hybrid_diagonalises_once(monkeypatch):
    # the config's one eigendecomposition feeds both filters and the ground vector,
    # and the report matches the filters rebuilt from a fresh eigendecomposition
    h, psi = random_gsp_instance(16, 0.2, 0.5, seed=1)
    calls = []
    unpatched = qcore.eigh
    monkeypatch.setattr(qcore, "eigh", lambda m: calls.append(1) or unpatched(m))
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    cfg = GspConfig(h_matrix=h, p0=0.5, epsilon=1e-3)
    rep = hybrid_gsp(cfg, psi)
    assert len(calls) == 1
    monkeypatch.undo()
    t_prime, tau = cfg.stage1_params
    filt1 = cosine_filter(h, cfg.e_estimate, tau, t_prime)
    assert (rep.stage1_distance, rep.stage1_survival) == gsp._filter_quality(ground_of(h), psi, filt1)
    psi1 = filt1 @ psi / np.linalg.norm(filt1 @ psi)
    filt2 = gsp._gaussian_filter(qcore.eigh(h), cfg.e_prime_estimate, cfg.tau_prime, cfg.sigma2)
    assert (rep.final_distance, rep.final_survival) == gsp._filter_quality(ground_of(h), psi1, filt2)


def test_distances_match_eigenbasis_reference():
    # in the eigenbasis the filtered state's part off the ground state is read
    # directly, so 2 - 2|overlap| is never formed; at the CLI's default instance
    # (seed 1) the final overlap is 1 - 2e-9, where that difference keeps about
    # seven digits
    for seed in (1, 2, 3):
        h, psi = random_gsp_instance(16, 0.2, 0.5, seed=seed)
        cfg = GspConfig(h_matrix=h, p0=0.5, epsilon=1e-3)
        rep = hybrid_gsp(cfg, psi)
        w, v = np.linalg.eigh(h)
        t_prime, tau = cfg.stage1_params
        a1 = np.cos(w - (cfg.e_estimate - tau)) ** t_prime * (v.conj().T @ psi)
        shifted = w - (cfg.e_prime_estimate - cfg.tau_prime)
        a2 = np.exp(-0.5 * cfg.sigma2 * shifted**2) * a1 / np.linalg.norm(a1)
        for a, got in ((a1, rep.stage1_distance), (a2, rep.final_distance)):
            u = a / np.linalg.norm(a)
            want = math.sqrt(2.0) * np.linalg.norm(u[1:]) / math.sqrt(1.0 + abs(u[0]))
            assert got == pytest.approx(want, rel=1e-11), (seed, got, want)


def test_config_arrays_are_read_only():
    h, _ = random_gsp_instance(6, 0.2, 0.5, seed=1)
    cfg = GspConfig(h_matrix=h, p0=0.5, epsilon=1e-3)
    for a in (*cfg.spectrum, cfg.ground):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_hybrid_flags_low_overlap():
    h, _ = random_gsp_instance(8, 0.2, 0.5, seed=2)
    w, v = np.linalg.eigh(h)
    psi = math.sqrt(0.2) * v[:, 0] + math.sqrt(0.8) * v[:, 3]
    cfg = GspConfig(h_matrix=h, p0=0.5, epsilon=1e-3)
    rep = hybrid_gsp(cfg, psi)
    assert not rep.precondition_ok
    assert rep.overlap == pytest.approx(0.2, abs=1e-12)
    # a low overlap is flagged, an unnormalized state refused
    with pytest.raises(ValueError, match="normalized"):
        hybrid_gsp(cfg, 2.0 * psi)


def test_hybrid_weak_filter_limit():
    # ground-state input and a vanishing shift: R = cos^{2T'}(tau) -> 1
    h, _ = random_gsp_instance(4, 0.8, 0.5, seed=3, lambda0_range=(0.05, 0.1))
    cfg = GspConfig(h_matrix=h, p0=0.5, epsilon=0.1, c_tau=0.01)
    rep = hybrid_gsp(cfg, ground_of(h))
    assert rep.t_prime <= 4
    assert rep.r_factor >= 0.99
    stronger = GspConfig(h_matrix=h, p0=0.5, epsilon=0.1, c_tau=1.0)
    assert hybrid_gsp(stronger, ground_of(h)).r_factor < rep.r_factor


def test_hybrid_r_matches_multi_round_composition():
    # cosine stage as its binomial LCU (one coherent group), Gaussian stage
    # abstracted as any probability mixture of unitaries (singletons):
    # the composite R from the generic machinery is the cosine survival
    h, psi = random_gsp_instance(6, 0.25, 0.4, seed=4)
    cfg = GspConfig(h_matrix=h, p0=0.4, epsilon=0.1)
    rep = hybrid_gsp(cfg, psi)
    shifted = h - (cfg.e_estimate - rep.tau) * np.eye(6)
    t = rep.t_prime
    coeffs = [math.comb(t, j) / 2.0**t for j in range(t + 1)]
    unis = [qcore.expm_i_hermitian(shifted, -(t - 2 * j)) for j in range(t + 1)]
    dec = lcu.LcuDecomposition.from_terms(coeffs, unis)
    assert dec.one_norm == pytest.approx(1.0, abs=1e-12)
    ch1 = hybrid.HybridChannel(dec, partition.Partition.coherent(dec.m))
    dec2 = lcu.LcuDecomposition.from_terms(
        [0.5, 0.5],
        [qcore.expm_i_hermitian(h, 0.3), qcore.expm_i_hermitian(h, -0.7)],
    )
    ch2 = hybrid.HybridChannel(dec2, partition.Partition.singletons(dec2.m))
    _, r_total = compose_rounds([ch1, ch2], psi)
    assert abs(r_total - rep.r_factor) <= 1e-10


def test_filter_monotonicity_in_order():
    for seed in range(5):
        h, psi = random_gsp_instance(8, 0.15, 0.4, seed=seed)
        lam0 = np.linalg.eigvalsh(h)[0]
        prev = 0.0
        for order in range(1, 51):
            filt = cosine_filter(h, lam0, 0.1, order)
            dist, _ = gsp._filter_quality(ground_of(h), psi, filt)
            fidelity = 1.0 - 0.5 * dist**2
            assert fidelity >= prev - 1e-12
            prev = fidelity


def test_energy_estimate_robustness():
    h, psi = random_gsp_instance(16, 0.2, 0.5, seed=3)
    base = hybrid_gsp(GspConfig(h_matrix=h, p0=0.5, epsilon=1e-3), psi).final_distance
    allowed = 0.2 / math.log(1.0 / (0.5 * 1e-3))
    rng = np.random.default_rng(0)
    for _ in range(20):
        off = float(rng.uniform(-allowed, allowed))
        rep = hybrid_gsp(GspConfig(h_matrix=h, p0=0.5, epsilon=1e-3, e_offset=off), psi)
        assert rep.final_distance <= 2.0 * base


def test_refined_estimate_robustness():
    # an E' within tau_prime of the ground energy keeps the final distance
    # O(epsilon); E' enters only the Gaussian stage, so R does not move
    h, psi = random_gsp_instance(16, 0.2, 0.5, seed=3)
    cfg = GspConfig(h_matrix=h, p0=0.5, epsilon=1e-3)
    base = hybrid_gsp(cfg, psi)
    rng = np.random.default_rng(1)
    for _ in range(20):
        off = float(rng.uniform(-cfg.tau_prime, cfg.tau_prime))
        rep = hybrid_gsp(GspConfig(h_matrix=h, p0=0.5, epsilon=1e-3, e_prime_offset=off), psi)
        assert rep.final_distance <= 2.0 * cfg.epsilon
        assert rep.r_factor == base.r_factor
        assert rep.stage1_distance == base.stage1_distance
    # the scale binds: four times tau_prime off, the filter misses the ground state
    far = hybrid_gsp(GspConfig(h_matrix=h, p0=0.5, epsilon=1e-3, e_prime_offset=4.0 * cfg.tau_prime), psi)
    assert far.final_distance > 0.1


# ---------------------------------------------------------------------------
# complexity report


def test_complexity_limit_formula():
    rep = complexity_report(0.25, 0.5, 0.01)
    # p0^-1 Delta^-1 eps^-2 log(1/eps) = 4 * 2 * 1e4 * ln 100
    assert rep.limit_large_alpha == pytest.approx(368413.61487904737, rel=1e-10)
    assert rep.total == pytest.approx(rep.term1 + rep.term2, rel=1e-15)


def test_complexity_alpha_one_degenerates():
    rep = complexity_report(0.5, 1.0, 0.5)
    assert rep.alpha == pytest.approx(1.0, abs=1e-12)
    assert rep.term2 == 0.0
    assert rep.total == rep.term1
    # sqrt(1 - 1/alpha) term vanishes, leaving limit * log(1/eps)/Delta
    assert rep.interpolated == pytest.approx(rep.limit_large_alpha * math.log(2.0), rel=1e-12)


def test_complexity_delta_one_normalization():
    p0, eps = 0.25, 0.05
    rep = complexity_report(p0, 1.0, eps)
    assert rep.term1 == pytest.approx(math.log(4.0) ** 2 / (p0 * eps**2), rel=1e-12)


def test_report_total_time_is_complexity_report():
    # hybrid_gsp's two total-time columns are complexity_report's terms, bit for bit
    for p0 in (0.3, 0.7):
        for eps in (1e-3, 0.05, 0.2):
            for seed in range(3):
                h, psi = random_gsp_instance(8, 0.2, p0, seed=seed)
                rep = hybrid_gsp(GspConfig(h_matrix=h, p0=p0, epsilon=eps), psi)
                cost = complexity_report(p0, rep.gap, eps)
                assert (rep.total_time_term1, rep.total_time_term2) == (cost.term1, cost.term2), (p0, eps, seed)


def test_complexity_rejects_bad_alpha():
    with pytest.raises(ValueError):
        complexity_report(0.5, 1.0, 0.25, alpha=0.9)
    with pytest.raises(ValueError):
        complexity_report(0.5, 1.0, 0.6)  # eps > p0
    for delta in (0.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="gap"):
            complexity_report(0.5, delta, 0.25)
    for p0 in (0.0, 1.0):
        with pytest.raises(ValueError, match="p0"):
            complexity_report(p0, 1.0, 0.25)


# ---------------------------------------------------------------------------
# csv


def test_write_report_rows_csv(tmp_path):
    reports = []
    for seed in range(3):
        h, psi = random_gsp_instance(8, 0.2, 0.5, seed=seed)
        reports.append(hybrid_gsp(GspConfig(h_matrix=h, p0=0.5, epsilon=1e-2), psi))
    path = tmp_path / "gsp.csv"
    write_report_rows_csv(path, reports, seed=5)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "dim,Delta,p0,eps,Tprime,sigma2,R,stage1_dist,final_dist,"
        "total_time_term1,total_time_term2"
    )
    assert len(lines) == 5
    assert lines[-1] == "# seed=5 version=0.1.0"
    first = lines[1].split(",")
    assert int(first[0]) == 8
    assert float(first[6]) == pytest.approx(reports[0].r_factor, rel=1e-15)
