"""Propagator-driver checks: splitting, quadrature, bounds, tail sampling."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import random_hermitian
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import chi2

from hybridlcu import lchs, lcu, partition, qcore
from hybridlcu.lchs import (
    LchsConfig,
    discretization_at,
    discretize,
    fig_sweep,
    measured_p,
    measured_r,
    node_count,
    propagator_error,
    rp_bound,
    rp_bound_approx,
    sample_tail,
    split_hermitian,
    truncation_k1,
    window_operator,
    window_weight_sum,
    write_sweep_csv,
)


def random_a(seed: int, dim: int = 4, l_max: float = 2.0) -> np.ndarray:
    """Random matrix with PSD Hermitian part of spectral norm l_max."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    l_part = z @ z.conj().T
    l_part *= l_max / np.abs(np.linalg.eigvalsh(l_part)).max()
    return l_part + 1j * random_hermitian(dim, rng)


def loop_propagators(config: LchsConfig, ks) -> np.ndarray:
    """Oracle for the batched propagators: one exp(-iT(H + kL)) per node."""
    h, l_psd = config.antihermitian_part, config.hermitian_part
    return np.array([qcore.expm_i_hermitian(h + k * l_psd, config.t) for k in ks])


## ------------------------------------------------------------------
## splitting and truncation
## ------------------------------------------------------------------


def test_split_hermitian_psd_input():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = z @ z.conj().T
    l_psd, h, shift = split_hermitian(a)
    assert shift == 0.0
    assert np.linalg.norm(h) <= 1e-12
    assert np.linalg.norm(l_psd - a) <= 1e-12


def test_split_hermitian_antihermitian_input():
    h_target = random_hermitian(3, np.random.default_rng(1))
    l_psd, h, shift = split_hermitian(1j * h_target)
    assert shift == 0.0
    assert np.linalg.norm(l_psd) <= 1e-12
    assert np.linalg.norm(h - h_target) <= 1e-12


def test_split_hermitian_reassembly_and_psd():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        l_psd, h, shift = split_hermitian(a)
        back = (l_psd - shift * np.eye(4)) + 1j * h
        assert np.linalg.norm(back - a) <= 1e-12
        assert np.linalg.eigvalsh(l_psd)[0] >= -1e-12


def test_truncation_k1_values():
    assert abs(truncation_k1(0.5) - 1.0) <= 1e-12
    k1 = truncation_k1(5e-5)
    assert abs(k1 - 12732.395421176952) <= 1e-6
    # large-cutoff asymptote 2/(pi eps)
    assert abs(k1 - 2.0 / (math.pi * 5e-5)) / k1 <= 1e-4
    assert truncation_k1(1.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        truncation_k1(0.0)
    with pytest.raises(ValueError):
        truncation_k1(1.5)


## ------------------------------------------------------------------
## discretization
## ------------------------------------------------------------------


def test_discretize_empty_window():
    config = LchsConfig(None, t=3.0, epsilon=0.1, k2=0.0, l_norm=2.0)
    disc = discretize(config)
    assert disc.m == 0
    assert disc.s_norm1 == 0.0
    assert disc.q_window == 0.0
    assert disc.alpha == pytest.approx(math.atan(truncation_k1(0.1)))


def test_discretize_no_tail_at_k2_equal_k1():
    config = LchsConfig(None, t=1.0, epsilon=0.2, l_norm=1.0)
    disc = discretize(config)
    assert disc.k2 == disc.k1
    assert disc.alpha == 0.0
    assert disc.q_tail == 0.0


def test_discretize_node_and_weight_shapes():
    config = LchsConfig(None, t=3.0, epsilon=1e-3, k2=1.0, l_norm=2.0)
    disc = discretize(config)
    assert disc.nodes.size == disc.m + 1
    assert np.all(disc.weights > 0)
    steps = np.diff(disc.nodes)
    assert np.allclose(steps, steps[0])
    assert disc.nodes[0] == -1.0 and disc.nodes[-1] == 1.0
    # halved endpoints
    interior = disc.weights[1] * (1.0 + disc.nodes[1] ** 2)
    assert disc.weights[0] * (1.0 + disc.nodes[0] ** 2) == pytest.approx(interior / 2.0)
    assert abs(disc.q_window + disc.q_tail - 1.0) <= 1e-12


def test_weight_sum_matches_arctan_integral():
    # |s|_1 -> (2/pi) arctan K2 =: half for K2 = 1
    config = LchsConfig(None, t=3.0, epsilon=1e-3, k2=1.0, l_norm=2.0)
    disc = discretization_at(config, 2000)
    assert abs(disc.s_norm1 - 0.5) / 0.5 <= 0.01
    assert disc.s_norm1 == pytest.approx(window_weight_sum(1.0, 2000))


def test_weight_sum_large_m_uses_limit():
    # past the node cap the series lands on the trapezoid limit (2/pi) arctan K2
    val = window_weight_sum(100.0, lchs.MAX_WINDOW_NODES + 1)
    assert abs(val - (2.0 / math.pi) * math.atan(100.0)) <= 1e-9
    # and allocates no node array, even at the fully coherent default window
    tracemalloc.start()
    try:
        window_weight_sum(truncation_k1(5e-5), 1 << 29)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # no row of the default bound sweep builds a node array
    with mock.patch.object(lchs, "_trapezoid", side_effect=AssertionError("node array built")):
        assert len(fig_sweep()) == 60


@settings(max_examples=200, deadline=None)
@given(st.floats(math.log(0.1), math.log(1e4)), st.floats(0.0, 1.0))
def test_weight_sum_series_matches_explicit_trapezoid(log_k2, frac):
    # M from just above the smallest node count whose remainder bound h^8/15 is
    # negligible (h = 2 K2 / M) up to 2^16; there the series must equal the
    # explicit sum
    k2 = math.exp(log_k2)
    m_min = math.ceil(1.001 * 2.0 * k2 / (15.0 * 2.0**-52 * math.atan(k2)) ** 0.125)
    assume(m_min <= 1 << 16)
    m = m_min + round(frac * ((1 << 16) - m_min))
    explicit = float(lchs._trapezoid(k2, m)[1].sum())
    with mock.patch.object(lchs, "_trapezoid", side_effect=AssertionError("series not used")):
        series = window_weight_sum(k2, m)
    assert abs(series - explicit) <= 1e-14 * explicit


def test_weight_sum_coarse_windows_sum_explicitly():
    # a coarse grid is summed node by node, and past the node cap it is refused
    config = LchsConfig(None, t=3.0, epsilon=1e-3, k2=30.0, l_norm=2.0)
    assert window_weight_sum(30.0, 64) == discretization_at(config, 64).s_norm1
    assert window_weight_sum(30.0, 0) == 0.0
    with pytest.raises(ValueError, match="too large"):
        window_weight_sum(1e6, lchs.MAX_WINDOW_NODES + 1)


def test_node_count_monotone_in_k2():
    counts = [
        node_count(LchsConfig(None, t=3.0, epsilon=1e-4, k2=k2, l_norm=2.0))
        for k2 in (0.5, 2.0, 8.0, 32.0)
    ]
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_discretize_rejects_monster_window():
    config = LchsConfig(None, t=3.0, epsilon=5e-5, l_norm=2.0)
    with pytest.raises(ValueError):
        discretize(config)


def test_config_validation():
    with pytest.raises(ValueError):
        LchsConfig(None, t=-1.0, epsilon=0.1, l_norm=1.0)
    with pytest.raises(ValueError):
        LchsConfig(None, t=1.0, epsilon=0.1, k2=100.0, l_norm=1.0)
    with pytest.raises(ValueError):
        LchsConfig(None, t=1.0, epsilon=0.1)
    for bad in ({"t": math.inf}, {"t": math.nan}, {"l_norm": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            LchsConfig(None, **{"t": 1.0, "epsilon": 0.1, "l_norm": 1.0, **bad})
    for epsilon in (0.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            LchsConfig(None, t=1.0, epsilon=epsilon, l_norm=1.0)
    # finite inputs whose node count overflows a float
    with pytest.raises(ValueError, match="node count"):
        node_count(LchsConfig(None, t=1e300, epsilon=5e-5, l_norm=2.0))
    with pytest.raises(ValueError, match="K1 = 0"):
        fig_sweep(epsilon=1.0)


def test_norm_only_config_refuses_matrix_operations():
    # the parts are plain None, and every operation that builds a propagator
    # refuses the config by name
    config = LchsConfig(None, t=1.0, epsilon=0.1, k2=1.0, l_norm=1.0)
    assert config.hermitian_part is None and config.antihermitian_part is None and config.shift is None
    disc = discretization_at(config, 8)
    for call in (
        lambda: lchs._propagators(config, np.array([3.0])),
        lambda: window_operator(config, disc),
        lambda: lchs.assemble(config, disc),
        lambda: measured_r(config, disc, np.eye(2) / 2.0),
    ):
        with pytest.raises(ValueError, match="needs the matrix"):
            call()


def test_matrix_config_takes_its_own_norm():
    # a second norm beside the matrix once set the node counts: 18 nodes
    # at l_norm = 0.01 against 127 at the matrix's |L| = 2
    a_matrix = np.diag([1.0, 2.0])
    config = LchsConfig(a_matrix, t=10.0, epsilon=0.05, k2=2.0)
    assert config.l_norm == 2.0
    assert node_count(config) == 127
    with pytest.raises(ValueError, match="not both"):
        LchsConfig(a_matrix, t=10.0, epsilon=0.05, k2=2.0, l_norm=0.01)


## ------------------------------------------------------------------
## R - P bound
## ------------------------------------------------------------------


def test_rp_bound_limits():
    k1 = truncation_k1(0.01)
    assert rp_bound(k1, k1, 0.9) == 0.0
    assert rp_bound(k1, k1, 0.0) == 0.0  # no window weight and no tail
    assert abs(rp_bound(k1, 0.0, 0.0) - 1.0) <= 1e-12
    assert rp_bound_approx(k1, k1) == pytest.approx(0.0, abs=1e-12)
    assert rp_bound_approx(k1, 0.0) == 1.0


def test_rp_bound_equals_approx_at_limit_weight():
    # substituting |s|_1 = (2/pi) arctan K2 collapses the exact form onto the approximation
    k1 = truncation_k1(1e-3)
    for k2 in (0.5, 3.0, 40.0, 300.0):
        s1 = (2.0 / math.pi) * math.atan(k2)
        assert rp_bound(k1, k2, s1) == pytest.approx(rp_bound_approx(k1, k2), rel=1e-12)


def test_rp_bound_is_tail_bound_in_normalized_weights():
    k1, k2, s1 = truncation_k1(0.01), 3.0, 0.55
    alpha = math.atan(k1) - math.atan(k2)
    z = s1 + (2.0 / math.pi) * alpha
    q_a, q_b = s1 / z, (2.0 / math.pi) * alpha / z
    assert rp_bound(k1, k2, s1) == pytest.approx(partition.tail_bound_R(q_a, q_b, 0.0), rel=1e-12)


def test_rp_bound_dominates_measured_gap():
    # explicit small-M instances: R - P never exceeds the bound
    for seed in range(20):
        a = random_a(seed, dim=3, l_max=1.5)
        config = LchsConfig(a, t=1.0, epsilon=0.05, k2=2.0)
        disc = discretize(config)
        assert disc.m <= 64
        rng = np.random.default_rng(seed + 500)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        rho = np.outer(v, v.conj())
        rho /= np.trace(rho).real
        gap = measured_r(config, disc, rho) - measured_p(config, disc, rho)
        assert -1e-9 <= gap <= rp_bound(disc.k1, disc.k2, disc.s_norm1) + 1e-9


def test_measured_r_agrees_with_partition_module():
    a = random_a(3, dim=3)
    config = LchsConfig(a, t=1.0, epsilon=0.05, k2=2.0)
    disc = discretize(config)
    rho = np.eye(3) / 3.0
    dec = lcu.LcuDecomposition(disc.weights, lchs._propagators(config, disc.nodes))
    part = partition.Partition.coherent(dec.m)
    window_r = partition.reduction_factor(dec, part, rho)
    want = disc.q_window * window_r + disc.q_tail
    assert measured_r(config, disc, rho) == pytest.approx(want, abs=1e-12)
    # K2 = 0 leaves no window: every term is a unitary tail singleton
    tail_only = LchsConfig(a, t=1.0, epsilon=0.05, k2=0.0)
    assert discretize(tail_only).m == 0
    assert measured_r(tail_only, discretize(tail_only), rho) == 1.0


## ------------------------------------------------------------------
## figure sweep
## ------------------------------------------------------------------


def test_fig_sweep_operating_point_and_monotone():
    rows = fig_sweep(points=60)
    ms = np.array([r.m for r in rows])
    bounds = np.array([r.rp_bound for r in rows])
    order = np.argsort(ms)
    assert np.all(np.diff(bounds[order]) <= 1e-12)
    # documented operating point: bound <= 1.1e-2 around M = 2^21
    config = LchsConfig(None, t=3.0, epsilon=5e-5, k2=1.0, l_norm=2.0)
    k2_at = (2**21 / (lchs.M_MULTIPLIER * 2.0 * 3.0)) ** (2.0 / 3.0) * 5e-5 ** (1.0 / 3.0)
    at = LchsConfig(None, t=3.0, epsilon=5e-5, k2=k2_at, l_norm=2.0)
    m_at = node_count(at)
    assert abs(m_at - 2**21) / 2**21 <= 0.01
    bound = rp_bound(at.k1, k2_at, window_weight_sum(k2_at, m_at))
    assert bound <= 1.1e-2
    # fully coherent endpoint needs ~2^29 nodes and has zero bound
    assert abs(math.log2(rows[-1].m) - 29.0) <= 0.5
    assert rows[-1].rp_bound == 0.0
    # virtual endpoint: O(1) bound
    assert rows[0].rp_bound >= 0.9


def test_fig_sweep_overhead_column():
    # R <= 1 caps P + rp_bound at 1, so no row exceeds the trivial 1/P^2
    rows = fig_sweep(points=10, p_assumed=1e-2)
    for r in rows:
        assert r.overhead_bound_at_p == pytest.approx(min(1e-2 + r.rp_bound, 1.0) / 1e-4)
        assert r.overhead_bound_at_p <= 1.0 / 1e-4
    assert rows[0].rp_bound > 1.0 - 1e-2 and rows[0].overhead_bound_at_p == 1.0 / 1e-4
    # large-M end approaches the coherent overhead 1/P
    assert rows[-1].overhead_bound_at_p == pytest.approx(100.0)


def test_fig_sweep_refuses_overflowing_overhead():
    # at 1e-155 the quotient overflows to inf; at 1e-200 P^2 underflows to 0
    for p_assumed in (1e-155, 1e-200):
        with pytest.raises(ValueError, match="overhead bound"):
            fig_sweep(points=5, p_assumed=p_assumed)


def test_write_sweep_csv(tmp_path):
    rows = fig_sweep(points=5)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, rows, seed=1)
    lines = path.read_text().splitlines()
    assert lines[0] == "K2,M,alpha,s_norm1,rp_bound,overhead_bound_at_P,P_assumed"
    assert len(lines) == 7
    assert lines[-1].startswith("# seed=1 version=")


## ------------------------------------------------------------------
## tail sampling
## ------------------------------------------------------------------


def test_sample_tail_range_and_cdf():
    k1, k2 = truncation_k1(0.02), 3.0
    rng = np.random.default_rng(4)
    ks = sample_tail(k1, k2, rng.random(20000))
    assert np.all((np.abs(ks) >= k2) & (np.abs(ks) <= k1 * (1 + 1e-12)))
    # CDF of |k| at x: (arctan x - arctan K2)/alpha
    alpha = math.atan(k1) - math.atan(k2)
    for x in (5.0, 10.0, 30.0):
        want = (math.atan(x) - math.atan(k2)) / alpha
        got = np.mean(np.abs(ks) <= x)
        assert abs(got - want) <= 5.0 * math.sqrt(want * (1 - want) / ks.size)


def test_sample_tail_histogram_chi2():
    # uniform in the arctan stretch: chi-square on 20 equiprobable bins
    k1, k2 = truncation_k1(0.05), 1.0
    rng = np.random.default_rng(5)
    ks = sample_tail(k1, k2, rng.random(20000))
    alpha = math.atan(k1) - math.atan(k2)
    theta = (np.arctan(np.abs(ks)) - math.atan(k2)) / alpha
    counts, _ = np.histogram(theta, bins=20, range=(0.0, 1.0))
    expected = ks.size / 20.0
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert stat < chi2.ppf(0.999, 19)


def test_sample_tail_unbiased_against_quadrature():
    # Monte-Carlo tail integral of the unitary matches the deterministic one
    a = random_a(6, dim=2, l_max=1.0)
    config = LchsConfig(a, t=1.0, epsilon=0.05, k2=2.0)
    disc = discretize(config)
    det = lchs._tail_integral(config, disc.k2, disc.k1) / (2 * disc.alpha / math.pi)
    rng = np.random.default_rng(7)
    n = 4000
    ks = sample_tail(disc.k1, disc.k2, rng.random(n))
    samples = lchs._propagators(config, ks)[:, 0, 0].real
    se = samples.std() / math.sqrt(n)
    assert abs(samples.mean() - det[0, 0].real) <= 5.0 * se + 1e-12


def test_sample_tail_domain():
    with pytest.raises(ValueError):
        sample_tail(1.0, 2.0, np.array([0.5]))


## ------------------------------------------------------------------
## propagator accuracy
## ------------------------------------------------------------------


def test_propagator_error_full_window():
    # K2 = K1 (no tail) at eps = 1e-2: within 5 eps of the exact propagator
    for seed in range(3):
        config = LchsConfig(random_a(seed), t=3.0, epsilon=1e-2)
        assert propagator_error(config) <= 5e-2
    with pytest.raises(ValueError, match="needs the matrix"):
        propagator_error(LchsConfig(None, t=3.0, epsilon=1e-2, l_norm=2.0))


def test_propagator_error_with_tail():
    config = LchsConfig(random_a(10), t=2.0, epsilon=2e-2, k2=10.0)
    assert propagator_error(config) <= 0.1


def test_propagator_diagonal_scalar_oracle():
    # Hermitian diagonal A: each diagonal entry equals the 1-dim Cauchy integral
    lam = np.array([0.3, 1.1, 2.0])
    config = LchsConfig(np.diag(lam), t=2.0, epsilon=1e-2)
    disc = discretize(config)
    ours = lchs.assemble(config, disc)
    for i, lam_i in enumerate(lam):
        want_re = quad(lambda k: math.cos(2.0 * k * lam_i) / (math.pi * (1 + k * k)), -disc.k1, disc.k1, limit=400)[0]
        want_im = quad(lambda k: -math.sin(2.0 * k * lam_i) / (math.pi * (1 + k * k)), -disc.k1, disc.k1, limit=400)[0]
        assert abs(ours[i, i] - (want_re + 1j * want_im)) <= 2e-2
        assert abs(ours[i, i] - math.exp(-2.0 * lam_i)) <= 2e-2


def test_propagator_time_zero_reduces_to_weight_error():
    config = LchsConfig(random_a(11), t=0.0, epsilon=1e-2)
    assert propagator_error(config) <= 1.01e-2


def test_propagator_error_grows_when_halving_m():
    # coarser windows never help: trapezoid error vs the exact window
    # integral is nonincreasing in M on every seed
    for seed in range(20):
        config = LchsConfig(random_a(seed, dim=3), t=2.0, epsilon=5e-2, k2=4.0)
        disc = discretize(config)
        exact_window = lchs._tail_integral(config, 0.0, disc.k2)
        half = discretization_at(config, max(1, disc.m // 2))
        err_full = np.linalg.norm(lchs.assemble(config, disc) - lchs._tail_integral(config, disc.k2, disc.k1) - exact_window, 2)
        err_half = np.linalg.norm(lchs.assemble(config, half) - lchs._tail_integral(config, disc.k2, disc.k1) - exact_window, 2)
        assert err_half >= err_full


def test_operators_match_decomposition_oracles():
    # window_operator against the explicit decomposition, and measured_p against
    # q_window * window + q_tail * tail built from the oracle operators
    rng = np.random.default_rng(13)
    for seed, k2 in ((13, 2.0), (14, 0.5), (15, None)):
        config = LchsConfig(random_a(seed, dim=3), t=1.0, epsilon=0.05, k2=k2)
        disc = discretize(config)
        k_a = lcu.assemble_klcu(lcu.LcuDecomposition(disc.weights, lchs._propagators(config, disc.nodes)))
        assert np.linalg.norm(window_operator(config, disc) - k_a, 2) <= 1e-13
        k_norm = disc.q_window * k_a
        if disc.alpha > 0.0:
            tail = lchs._tail_integral(config, disc.k2, disc.k1) / (2 * disc.alpha / math.pi)
            k_norm = k_norm + disc.q_tail * tail
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        rho = np.outer(v, v.conj()) / np.vdot(v, v).real
        want = float(np.trace(k_norm @ rho @ k_norm.conj().T).real)
        assert measured_p(config, disc, rho) == pytest.approx(want, abs=1e-12)
    # neither window nodes nor a tail
    config = LchsConfig(random_a(12), t=1.0, epsilon=1.0)
    with pytest.raises(ValueError, match="empty representation"):
        measured_p(config, discretization_at(config, 0), np.eye(4) / 4.0)


def test_batched_window_matches_per_node_loop():
    for seed in range(3):
        config = LchsConfig(random_a(seed), t=3.0, epsilon=1e-3, k2=2.0)
        disc = discretization_at(config, 64)
        got = lchs._propagators(config, disc.nodes)
        assert got.shape == (65, 4, 4)
        assert np.abs(got - loop_propagators(config, disc.nodes)).max() <= 1e-14


def test_tail_pair_matches_per_node_loop():
    config = LchsConfig(random_a(4), t=3.0, epsilon=1e-3, k2=2.0)
    for k in sample_tail(config.k1, config.k2, np.random.default_rng(8).random(5)):
        want = loop_propagators(config, [k, -k])
        assert np.abs(lchs._propagators(config, np.array([k, -k])) - want).max() <= 1e-14
        assert np.abs(lchs._propagators(config, np.array([k]))[0] - want[0]).max() <= 1e-14


def test_propagator_chunks_change_no_bit(monkeypatch):
    config = LchsConfig(random_a(5), t=3.0, epsilon=1e-3, k2=2.0)
    nodes = discretization_at(config, 64).nodes
    whole = lchs._propagators(config, nodes)
    monkeypatch.setattr(lchs, "_PROPAGATOR_CHUNK", 7)
    assert np.array_equal(lchs._propagators(config, nodes), whole)


def test_propagator_memory_is_bounded_by_the_output():
    # 37,949 nodes at d = 4: the (M, d, d) output is 9.7 MB, and the chunked
    # eigh adds a fixed working set instead of about three more stacks
    config = LchsConfig(random_a(1), t=3.0, epsilon=5e-5, k2=20.0)
    nodes = lchs.discretize(config).nodes
    assert len(nodes) > 30_000
    tracemalloc.start()
    try:
        out = lchs._propagators(config, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * out.nbytes, (peak, out.nbytes)


def test_shifted_stack_is_exactly_hermitian():
    # no node is checked for Hermiticity, so H + kL must be Hermitian bit for bit
    for seed in range(3):
        config = LchsConfig(random_a(seed, dim=5), t=1.0, epsilon=1e-3)
        for k in (-config.k1, -2.5, 0.0, 1.0 / 3.0, 7.25, config.k1):
            stack = config.antihermitian_part + k * config.hermitian_part
            assert np.array_equal(stack, stack.conj().T)


def test_assemble_empty_representation_is_zero():
    config = LchsConfig(random_a(12), t=1.0, epsilon=1.0)
    disc = discretization_at(config, 0)
    assert disc.m == 0 and disc.alpha == 0.0
    total = lchs.assemble(config, disc)
    assert total.shape == (4, 4) and total.dtype == complex
    assert not total.any()


def test_window_operator_requires_nodes():
    config = LchsConfig(random_a(12), t=1.0, epsilon=0.1, k2=0.0)
    disc = discretize(config)
    with pytest.raises(ValueError):
        window_operator(config, disc)
