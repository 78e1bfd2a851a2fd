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


def staged(h, order: int, tau: float, **attrs) -> GspConfig:
    """A config for h whose cosine stage is (order, tau), with any other attribute overridden.

    Order 0 makes the cosine stage the identity, so the Gaussian stage acts on psi itself.
    """
    cfg = GspConfig(h_matrix=h, p0=0.5, epsilon=1e-3)
    cfg.stage1_params = (order, tau)
    vars(cfg).update(attrs)
    return cfg


def test_filter_quality_ground_state_input():
    h, _ = random_gsp_instance(6, 0.2, 0.5, seed=1)
    order, tau = 9, 0.08
    rep = hybrid_gsp(staged(h, order, tau), ground_of(h))
    assert rep.stage1_distance <= 1e-7
    assert rep.stage1_survival == pytest.approx(math.cos(tau) ** order, rel=1e-12)


def test_filter_quality_two_level_uniform_perfect_filter():
    # cos(w - (0 - tau)) vanishes at w = 1 for tau = pi/2 - 1 and is sin(1) at w = 0
    h = np.diag([0.0, 1.0])
    psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rep = hybrid_gsp(staged(h, 1, math.pi / 2.0 - 1.0), psi)
    assert rep.stage1_distance <= 1e-12
    assert rep.stage1_survival == pytest.approx(math.sin(1.0) / math.sqrt(2.0), rel=1e-12)
    # a filter that keeps nothing reads as the largest distance
    assert gsp._filter_quality(np.zeros(3, dtype=complex)) == (math.sqrt(2.0), 0.0)


@pytest.mark.filterwarnings("error")
def test_cosine_stage_that_keeps_nothing_leaves_nothing():
    # on psi = |1> the cosine stage is cos(pi/2)^20, below the smallest float,
    # so the Gaussian stage gets no amplitude to normalise and both read as
    # the largest distance, with no nan and no numpy warning
    h = np.diag([0.0, 1.0])
    rep = hybrid_gsp(staged(h, 20, math.pi / 2.0 - 1.0), np.array([0.0, 1.0]))
    assert (rep.stage1_distance, rep.stage1_survival) == (math.sqrt(2.0), 0.0)
    assert (rep.final_distance, rep.final_survival) == (math.sqrt(2.0), 0.0)
    assert rep.r_factor == 0.0


def test_filter_quality_identity_keeps_initial_distance():
    h, psi = random_gsp_instance(5, 0.2, 0.4, seed=3)
    rep = hybrid_gsp(staged(h, 0, 0.1), psi)
    expected = math.sqrt(2.0 - 2.0 * abs(np.vdot(ground_of(h), psi)))
    assert rep.stage1_distance == pytest.approx(expected, abs=1e-12)
    assert rep.stage1_survival == pytest.approx(1.0, rel=1e-12)


def test_filter_quality_global_phase_invariant():
    h, psi = random_gsp_instance(5, 0.2, 0.4, seed=8)
    cfg = staged(h, 4, 0.1)
    r1, r2 = hybrid_gsp(cfg, psi), hybrid_gsp(cfg, np.exp(1j * 0.83) * psi)
    assert r1.stage1_distance == pytest.approx(r2.stage1_distance, abs=1e-12)
    assert r1.stage1_survival == pytest.approx(r2.stage1_survival, rel=1e-12)
    assert r1.final_distance == pytest.approx(r2.final_distance, abs=1e-12)
    assert r1.final_survival == pytest.approx(r2.final_survival, rel=1e-12)


def test_filter_quality_rejects_unnormalized_input():
    # psi's norm is checked once, to within 1e-9
    h, psi = random_gsp_instance(4, 0.2, 0.4, seed=0)
    cfg = GspConfig(h_matrix=h, p0=0.4, epsilon=0.1)
    for scale in (2.0, 1.0 + 1e-8):
        with pytest.raises(ValueError, match="normalized"):
            hybrid_gsp(cfg, scale * psi)
    assert hybrid_gsp(cfg, (1.0 + 1e-10) * psi).r_factor == pytest.approx(hybrid_gsp(cfg, psi).r_factor, rel=1e-12)


# ---------------------------------------------------------------------------
# gaussian filter


def test_gaussian_filter_sigma_zero_is_identity():
    h, psi = random_gsp_instance(5, 0.2, 0.4, seed=2)
    rep = hybrid_gsp(staged(h, 3, 0.1, sigma2=0.0), psi)
    assert rep.final_distance == pytest.approx(rep.stage1_distance, rel=1e-12)
    assert rep.final_survival == pytest.approx(1.0, rel=1e-12)


def test_gaussian_filter_fixes_shifted_ground_state():
    h, _ = random_gsp_instance(5, 0.2, 0.4, seed=5)
    lam0 = np.linalg.eigvalsh(h)[0]
    tau_prime = 0.07
    cfg = staged(h, 0, 0.0, e_prime_estimate=lam0 + tau_prime, tau_prime=tau_prime, sigma2=40.0)
    rep = hybrid_gsp(cfg, ground_of(h))
    assert rep.final_distance <= 1e-12
    assert rep.final_survival == pytest.approx(1.0, abs=1e-12)


def test_gaussian_filter_psd_and_subnormalized():
    # on each eigenvector the stage multiplies by its value there, which lies in (0, 1]
    h, psi = random_gsp_instance(7, 0.15, 0.4, seed=6)
    cfg = staged(h, 0, 0.0, e_prime_estimate=0.2, tau_prime=0.05, sigma2=30.0)
    w, v = np.linalg.eigh(h)
    values = np.exp(-15.0 * (w - 0.15) ** 2)
    survivals = [hybrid_gsp(cfg, v[:, k]).final_survival for k in range(7)]
    assert survivals == pytest.approx(values, rel=1e-12)
    assert all(0.0 < s <= 1.0 for s in survivals)
    assert hybrid_gsp(cfg, psi).final_survival <= 1.0 + 1e-12


def test_gaussian_filter_alone_meets_distance_target():
    # single-stage run with the documented widths on a 16-dim instance
    delta, p0, eps = 0.2, 0.5, 1e-3
    h, psi = random_gsp_instance(16, delta, p0, seed=12)
    cfg = staged(h, 0, 0.0)
    assert cfg.sigma2 == pytest.approx(math.log(p0 / eps) / delta**2, rel=1e-12)
    assert cfg.tau_prime == pytest.approx(delta / math.sqrt(math.log(p0 / eps)), rel=1e-12)
    rep = hybrid_gsp(cfg, psi)
    assert rep.final_distance <= 5.0 * eps
    # survival is at least the ground component times the ground filter
    # value exp(-sigma2 tau'^2 / 2) = exp(-1/2)
    assert rep.final_survival >= math.sqrt(p0) * math.exp(-0.5) - 1e-12


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_bad_spectrum():
    with pytest.raises(ValueError):
        GspConfig(h_matrix=np.diag([0.0, 1.5]), p0=0.5, epsilon=0.1)
    with pytest.raises(ValueError):
        GspConfig(h_matrix=np.diag([-0.2, 0.5]), p0=0.5, epsilon=0.1)
    with pytest.raises(ValueError, match="two-level"):
        GspConfig(h_matrix=np.array([[0.5]]), p0=0.5, epsilon=0.1)


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
    # the ground energy is drawn from [0.05, 0.15], so a gap of 0.99 leaves [0, 1]
    with pytest.raises(ValueError, match="gap too large"):
        random_gsp_instance(10, 0.99, 0.45, seed=0)


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


def gaussian_matrix(h, e_prime: float, tau_prime: float, sigma2: float) -> np.ndarray:
    """exp(-sigma2 (H - (e_prime - tau_prime) 1)^2 / 2) as a matrix, from np.linalg.eigh."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-0.5 * sigma2 * (w - (e_prime - tau_prime)) ** 2)) @ v.conj().T


def matrix_route(cfg: GspConfig, psi) -> tuple[float, float, float, float]:
    """(stage-1 distance, stage-1 survival, final distance, final survival) from the two filter matrices.

    The distance of u = F psi / ||F psi|| from the ground vector g is
    sqrt(2) ||u - <g|u> g|| / sqrt(1 + |<g|u>|), which equals
    sqrt(2 - 2 |<g|u>|) without its cancellation near |<g|u>| = 1.
    """
    ground = ground_of(cfg.h_matrix)
    t_prime, tau = cfg.stage1_params
    filters = (
        cosine_filter(cfg.h_matrix, cfg.e_estimate, tau, t_prime),
        gaussian_matrix(cfg.h_matrix, cfg.e_prime_estimate, cfg.tau_prime, cfg.sigma2),
    )
    out, state = [], psi
    for filt in filters:
        filtered = filt @ state
        survival = float(np.linalg.norm(filtered))
        state = filtered / survival
        c = np.vdot(ground, state)
        out += [math.sqrt(2.0) * float(np.linalg.norm(state - c * ground)) / math.sqrt(1.0 + abs(c)), survival]
    return tuple(out)


def report_route(rep) -> tuple[float, float, float, float]:
    return rep.stage1_distance, rep.stage1_survival, rep.final_distance, rep.final_survival


def test_hybrid_diagonalises_once(monkeypatch):
    # the config's one eigendecomposition feeds both stages and the overlap,
    # and the report matches the filter matrices rebuilt from a fresh one
    h, psi = random_gsp_instance(16, 0.2, 0.5, seed=1)
    calls = []
    unpatched = qcore.eigh
    monkeypatch.setattr(qcore, "eigh", lambda m: calls.append(1) or unpatched(m))
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    cfg = GspConfig(h_matrix=h, p0=0.5, epsilon=1e-3)
    rep = hybrid_gsp(cfg, psi)
    assert len(calls) == 1
    monkeypatch.undo()
    assert report_route(rep) == pytest.approx(matrix_route(cfg, psi), rel=1e-11)


def test_distances_match_eigenbasis_reference():
    # the eigen-amplitude route against the filter matrices applied to psi; at
    # the CLI's default instance (seed 1) the final overlap is 1 - 2e-9, where
    # 2 - 2|overlap| would keep about seven digits, so both routes read the
    # part off the ground state instead
    for seed in (1, 2, 3):
        h, psi = random_gsp_instance(16, 0.2, 0.5, seed=seed)
        cfg = GspConfig(h_matrix=h, p0=0.5, epsilon=1e-3)
        rep = hybrid_gsp(cfg, psi)
        want = matrix_route(cfg, psi)
        assert report_route(rep) == pytest.approx(want, rel=1e-11), seed
        assert rep.r_factor == pytest.approx(want[1] ** 2, rel=1e-11), seed


def test_config_arrays_are_read_only():
    h, _ = random_gsp_instance(6, 0.2, 0.5, seed=1)
    cfg = GspConfig(h_matrix=h, p0=0.5, epsilon=1e-3)
    for a in cfg.spectrum:
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


def test_hybrid_weak_filter_limit(monkeypatch):
    # ground-state input and a vanishing shift: R = cos^{2T'}(tau) -> 1
    h, _ = random_gsp_instance(4, 0.8, 0.5, seed=3)
    stronger = GspConfig(h_matrix=h, p0=0.5, epsilon=0.1)
    monkeypatch.setattr(gsp, "C_TAU", 0.01)
    cfg = GspConfig(h_matrix=h, p0=0.5, epsilon=0.1)
    rep = hybrid_gsp(cfg, ground_of(h))
    assert rep.t_prime <= 4
    assert rep.tau == pytest.approx(0.01 * stronger.stage1_params[1], rel=1e-15)
    assert rep.r_factor >= 0.99
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
        prev = 0.0
        for order in range(1, 51):
            dist = hybrid_gsp(staged(h, order, 0.1), psi).stage1_distance
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
