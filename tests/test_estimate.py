"""Planners, interval estimators and their coverage behavior."""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_density, random_hermitian, random_lcu

from hybridlcu import lcu
from hybridlcu.estimate import (
    _exact_dot,
    EstimationConfig,
    Histogram,
    SampleBatch,
    UndefinedRatioError,
    bernstein_half_width,
    bernstein_n,
    estimate_numerator,
    estimate_R_obs,
    estimate_ratio,
    ratio_n,
    write_report_csv,
    z_quantile,
)
from hybridlcu.hybrid import HybridChannel, Sampler, write_shot_csv
from hybridlcu.partition import Partition, reduction_factor_obs
from hybridlcu.qcore import Observable


def g_identity(batch):
    """Paired identity-observable samples from the same shots (o_j = 1)."""
    return np.where(batch.z == 0, 1.0, 0.0) * np.where(batch.b == 0, 1.0, -1.0)


## ------------------------------------------------------------------
## planners
## ------------------------------------------------------------------


def test_bernstein_n_frozen_values():
    assert bernstein_n(1.0, 1.0, 0.1, 0.05) == 787
    # huge epsilon: the planner bottoms out at a handful of shots
    assert bernstein_n(1.0, 1.0, 10.0, 0.05) == 1


def test_bernstein_n_domain():
    with pytest.raises(ValueError):
        bernstein_n(1.0, 1.0, 0.1, 2.0)
    with pytest.raises(ValueError):
        bernstein_n(-1.0, 1.0, 0.1, 0.05)
    with pytest.raises(ValueError):
        bernstein_n(1.0, 0.0, 0.1, 0.05)


def test_ratio_n_frozen_values():
    config = EstimationConfig(epsilon=0.1, delta=0.05, bound_c=1.0, ratio_bound_cprime=1.0)
    assert ratio_n(config, 1.0, 1.0, 0.5) == 56558
    assert ratio_n(config, 1.0, 1.0, 1.0) == 14257


def test_ratio_n_domain():
    config = EstimationConfig(epsilon=3.0, delta=0.05, bound_c=1.0, ratio_bound_cprime=1.0)
    with pytest.raises(ValueError):
        ratio_n(config, 1.0, 1.0, 0.5)
    ok = EstimationConfig(epsilon=0.1, delta=0.05, bound_c=1.0, ratio_bound_cprime=1.0)
    with pytest.raises(ValueError):
        ratio_n(ok, 1.0, 1.0, 0.0)


def test_ratio_n_refuses_missing_cprime():
    # the theory gives no recipe for c', so the planner does not guess one
    config = EstimationConfig(epsilon=0.1, delta=0.05, bound_c=1.0)
    with pytest.raises(ValueError, match="ratio_bound_cprime"):
        ratio_n(config, 1.0, 1.0, 0.5)


def test_config_domain_and_cprime_default():
    with pytest.raises(ValueError):
        EstimationConfig(epsilon=0.0, delta=0.05, bound_c=1.0)
    for eps in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            EstimationConfig(epsilon=eps, delta=0.05, bound_c=1.0)
    with pytest.raises(ValueError):
        EstimationConfig(epsilon=0.1, delta=1.0, bound_c=1.0)
    with pytest.raises(ValueError):
        EstimationConfig(epsilon=0.1, delta=0.05, bound_c=0.0)
    # c' left out stays None: nothing fills it in from bound_c
    assert EstimationConfig(epsilon=0.1, delta=0.05, bound_c=2.0).ratio_bound_cprime is None


def test_config_rejects_dishonest_bounds():
    for bounds in (
        {"ratio_bound_cprime": 0.0},
        {"ratio_bound_cprime": -1.0},
        {"ratio_bound_cprime": math.nan},
        {"ratio_bound_cprime": math.inf},
        {"bound_c": math.inf},
        {"bound_c": math.nan},
    ):
        with pytest.raises(ValueError):
            EstimationConfig(**{"epsilon": 0.1, "delta": 0.05, "bound_c": 1.0, **bounds})


def test_bernstein_half_width_refuses_dishonest_bounds():
    # a negative variance bound narrows the interval below the one for a bound
    # of 0, and a NaN or infinite bound gives a NaN or infinite width
    for sigma2 in (-0.01, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma2"):
            bernstein_half_width(sigma2, 1.0, 10, 0.05)
    assert 0.0 < bernstein_half_width(0.0, 1.0, 10, 0.05) < math.inf


def test_bernstein_helpers_share_one_argument_check():
    # each case once gave a width of 0 or a too-narrow one, or raised an
    # OverflowError or a NaN-to-int error instead of naming the argument
    bad = [
        ("c", dict(c=0.0)),
        ("c", dict(c=-1.0)),
        ("c", dict(c=math.inf)),
        ("c", dict(c=math.nan)),
        ("delta", dict(delta=0.0)),
        ("delta", dict(delta=1.0)),
        ("delta", dict(delta=1.5)),
        ("delta", dict(delta=2.5)),
        ("delta", dict(delta=math.nan)),
        ("sigma2", dict(sigma2_bound=-1.0)),
        ("sigma2", dict(sigma2_bound=math.inf)),
        ("sigma2", dict(sigma2_bound=math.nan)),
    ]
    for name, override in bad:
        args = {"sigma2_bound": 0.5, "c": 1.0, "delta": 0.05, **override}
        with pytest.raises(ValueError, match=name):
            bernstein_half_width(n=10, **args)
        with pytest.raises(ValueError, match=name):
            bernstein_n(epsilon=0.1, **args)
    for epsilon in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            bernstein_n(0.5, 1.0, epsilon, 0.05)


def test_z_quantile_value_and_bound():
    assert abs(z_quantile(0.05) - 1.9599639845400545) <= 1e-8
    for delta in (0.3, 0.1, 0.05, 0.01, 1e-4):
        z = z_quantile(delta)
        assert z <= math.sqrt(2.0 * math.log(1.0 / delta)) + 1e-10
    with pytest.raises(ValueError):
        z_quantile(0.0)


def test_bernstein_half_width_inverts_planner():
    for sigma2, c, eps, delta in [(1.0, 1.0, 0.1, 0.05), (0.2, 2.0, 0.05, 0.01), (0.0, 1.0, 0.3, 0.1)]:
        n = bernstein_n(sigma2, c, eps, delta)
        assert bernstein_half_width(sigma2, c, n, delta) <= eps + 1e-12
        assert bernstein_half_width(sigma2, c, 2 * n, delta) < bernstein_half_width(sigma2, c, n, delta)
    with pytest.raises(ValueError):
        bernstein_half_width(1.0, 1.0, 0, 0.05)


## ------------------------------------------------------------------
## variance and R^O estimate
## ------------------------------------------------------------------


def test_sample_variance_cases():
    assert Histogram([3.0, 3.0, 3.0]).variance == 0.0
    assert Histogram([0.0, 1.0]).variance == 0.25
    assert Histogram([7.0]).variance == 0.0
    with pytest.raises(ValueError):
        Histogram([]).variance


def test_histogram_counts_match_repeated_samples():
    # a count c on value v sums like c copies of v, bit for bit: the products
    # c*v are rounded only inside the one exact sum
    rng = np.random.default_rng(27)
    values = np.concatenate([rng.normal(size=40), [0.1, 1.0 / 3.0, -2.5e-17, 0.0, -0.0]])
    counts = rng.integers(1, 3000, size=len(values))
    hist = Histogram(values, counts)
    flat = Histogram(np.repeat(values, counts))
    assert hist.n == flat.n == counts.sum()
    assert hist.mean == flat.mean
    assert hist.variance == flat.variance
    # and neither depends on the order of the samples
    shuffled = Histogram(rng.permutation(np.repeat(values, counts)))
    assert (shuffled.mean, shuffled.variance) == (flat.mean, flat.variance)
    # values may repeat, with counts split between the copies
    merged = Histogram(np.concatenate((values[:20], values[10:])), np.concatenate((counts[:20], counts[10:])))
    both = Histogram(np.concatenate((np.repeat(values, counts), np.repeat(values[10:20], counts[10:20]))))
    assert (merged.n, merged.mean, merged.variance) == (both.n, both.mean, both.variance)


def test_histogram_sum_is_exact():
    # 10 * 0.1 is 1 + 2**-54 exactly but rounds to 1.0; adding 2**-53 to the
    # exact product rounds up to 1 + 2**-52, to the rounded one ties down to 1.0
    hist = Histogram([0.1, 2.0**-53], [10, 1])
    exact_sum = float(Fraction(0.1) * 10 + Fraction(2.0**-53))
    assert exact_sum == 1.0 + 2.0**-52
    assert hist.mean == exact_sum / 11 != math.fsum([10 * 0.1, 2.0**-53]) / 11
    assert hist.mean == Histogram([0.1] * 10 + [2.0**-53]).mean
    with pytest.raises(ValueError):
        Histogram([]).mean
    with pytest.raises(ValueError):
        Histogram([1.0, 2.0], [1.0])


@pytest.mark.parametrize("counts", [[0.5, 0.5], [2, -1], [1.0, np.nan], [1.0, np.inf], [3.0, -np.inf]])
def test_histogram_refuses_counts_that_are_not_whole(counts):
    # a fractional count would truncate n, a negative one would give a
    # negative variance, and a NaN would fail in int()
    with pytest.raises(ValueError, match="counts must be finite, nonnegative whole numbers"):
        Histogram([1.0, 3.0], counts)
    # zero counts are whole numbers
    assert Histogram([1.0, 3.0], [0, 2]).mean == 3.0


def test_weighted_sums_match_rational_oracle():
    # counts up to 1e11 and values over 60 decades, signed zeros and zero
    # counts included, against one rounding of the rational sum
    rng = np.random.default_rng(31)
    for trial in range(300):
        n = int(rng.integers(1, 60))
        values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-30, 30, n)
        values[rng.random(n) < 0.1] = rng.choice([0.0, -0.0])
        if trial % 10 == 0:
            values = rng.choice([0.0, -0.0], n)
        counts = rng.integers(0, 10**11, n).astype(float)
        counts[rng.random(n) < 0.1] = 0.0
        counts[0] = 2.0
        got = _exact_dot(counts, values)
        oracle = float(sum(Fraction(v) * int(c) for c, v in zip(counts.tolist(), values.tolist())))
        assert (got, math.copysign(1.0, got)) == (oracle, math.copysign(1.0, oracle))


def test_estimate_R_obs_trivial_and_singleton():
    assert estimate_R_obs(SampleBatch(np.ones(10))) == 1.0
    # singleton partition with O = 1: |g| = 1 every shot, so R-hat is exactly 1
    rng = np.random.default_rng(20)
    dec = random_lcu(3, 3, rng)
    ch = HybridChannel(dec, Partition.singletons(3))
    rho = random_density(3, rng)
    sampler = Sampler(ch, rho, np.eye(3))
    batch = sampler.table[sampler.sample_shots(seed=4, count=2000)]
    assert estimate_R_obs(SampleBatch(batch.g)) == 1.0


def test_estimate_R_obs_converges_to_reduction_factor():
    rng = np.random.default_rng(21)
    dec = random_lcu(2, 3, rng)
    part = Partition.singletons(2)
    ch = HybridChannel(dec, part)
    rho = random_density(3, rng)
    obs = Observable(random_hermitian(3, rng))
    sampler = Sampler(ch, rho, obs)
    n = 100_000
    batch = sampler.table[sampler.sample_shots(seed=6, count=n)]
    r_exact = reduction_factor_obs(dec, part, rho, obs.matrix)
    assert abs(sampler.exact_second - r_exact) <= 1e-12
    # SE of the g^2 mean, from the a.s. bound |g| <= |O|
    se = obs.spectral_norm**2 / math.sqrt(n)
    assert abs(estimate_R_obs(SampleBatch(batch.g)) - r_exact) <= 5 * se


## ------------------------------------------------------------------
## numerator estimator
## ------------------------------------------------------------------


def test_estimate_numerator_constant_batch():
    config = EstimationConfig(epsilon=0.1, delta=0.05, bound_c=1.0)
    report = estimate_numerator(SampleBatch(np.ones(50)), one_norm=1.0, sigma2_bound=0.0, config=config)
    assert report.estimate == 1.0
    assert report.sigma2_obs == 0.0
    assert report.half_width == bernstein_half_width(0.0, 1.0, 50, 0.05) > 0.0
    assert report.method == "bernstein"


def test_estimate_numerator_supplied_bound_path():
    config = EstimationConfig(epsilon=0.1, delta=0.05, bound_c=1.0)
    n = 400
    report = estimate_numerator(SampleBatch(np.zeros(n)), one_norm=2.0, sigma2_bound=0.5, config=config)
    assert report.half_width == 4.0 * bernstein_half_width(0.5, 1.0, n, 0.05)


def test_estimate_numerator_requires_bound():
    # no width from a bound the caller did not state: the plug-in fallback is gone
    config = EstimationConfig(epsilon=0.1, delta=0.05, bound_c=1.0)
    with pytest.raises(TypeError):
        estimate_numerator(SampleBatch(np.ones(5)), one_norm=1.0, config=config)
    with pytest.raises(ValueError):
        estimate_numerator(SampleBatch(np.ones(5)), 1.0, math.nan, config)


def test_estimate_numerator_empty_batch():
    config = EstimationConfig(epsilon=0.1, delta=0.05, bound_c=1.0)
    with pytest.raises(ValueError):
        estimate_numerator(SampleBatch([]), one_norm=1.0, sigma2_bound=0.0, config=config)


def test_numerator_bernstein_coverage():
    # planner soundness: failure rate over 200 planned runs stays within delta + 0.02
    rng = np.random.default_rng(22)
    dec = random_lcu(3, 3, rng)
    ch = HybridChannel(dec, Partition([[0, 1], [2]], 3))
    rho = random_density(3, rng)
    herm = random_hermitian(3, rng)
    obs = Observable(herm / np.abs(np.linalg.eigvalsh(herm)).max())
    sampler = Sampler(ch, rho, obs)
    delta, eps = 0.05, 0.3
    config = EstimationConfig(epsilon=eps, delta=delta, bound_c=1.0)
    n = bernstein_n(sampler.exact_second, 1.0, eps, delta)
    truth = dec.one_norm**2 * sampler.exact_mean
    failures = 0
    for rep in range(200):
        batch = sampler.table[sampler.sample_shots(seed=1000, count=n, stream=rep)]
        report = estimate_numerator(SampleBatch(batch.g), dec.one_norm, sampler.exact_second, config)
        assert abs(report.half_width - dec.one_norm**2 * eps) <= dec.one_norm**2 * 1e-9 or report.half_width <= dec.one_norm**2 * eps
        if abs(report.estimate - truth) > dec.one_norm**2 * eps:
            failures += 1
    assert failures / 200 <= delta + 0.02


## ------------------------------------------------------------------
## ratio estimator
## ------------------------------------------------------------------


def test_estimate_ratio_trivial_cases():
    config = EstimationConfig(epsilon=0.1, delta=0.05, bound_c=1.0)
    batch = SampleBatch(np.full(30, 0.5), np.full(30, 0.5))
    report = estimate_ratio(batch, config)
    assert report.estimate == 1.0
    assert report.half_width == 0.0
    assert report.method == "asymptotic"


def test_estimate_ratio_errors():
    config = EstimationConfig(epsilon=0.1, delta=0.05, bound_c=1.0)
    with pytest.raises(ValueError):
        estimate_ratio(SampleBatch(np.ones(5)), config)
    with pytest.raises(UndefinedRatioError):
        estimate_ratio(SampleBatch(np.ones(4), np.array([1.0, -1.0, 1.0, -1.0])), config)
    with pytest.raises(ValueError):
        SampleBatch(np.ones(4), np.ones(3))


def test_estimate_ratio_identity_batches():
    config = EstimationConfig(epsilon=0.1, delta=0.05, bound_c=1.0)
    rng = np.random.default_rng(23)
    dec = random_lcu(3, 3, rng)
    ch = HybridChannel(dec, Partition([[0, 1], [2]], 3))
    rho = random_density(3, rng)
    sampler = Sampler(ch, rho, np.eye(3))
    batch = sampler.table[sampler.sample_shots(seed=8, count=500)]
    g1 = g_identity(batch)
    assert np.array_equal(batch.g, g1)
    report = estimate_ratio(SampleBatch(batch.g, g1), config)
    assert report.estimate == 1.0


def test_ratio_coverage_synthetic_normals():
    # asymptotic interval at N = 1e4 covers the true ratio in >= 93% of 500 trials
    delta = 0.05
    config = EstimationConfig(epsilon=0.1, delta=delta, bound_c=1.0)
    rng = np.random.default_rng(24)
    n = 10_000
    truth = 0.3 / 0.6
    covered = 0
    for _ in range(500):
        x = rng.normal(0.3, 0.2, size=n)
        y = rng.normal(0.6, 0.3, size=n)
        report = estimate_ratio(SampleBatch(x, y), config)
        if abs(report.estimate - truth) <= report.half_width:
            covered += 1
    assert covered / 500 >= 1.0 - delta - 0.02


def test_sigma_ratio_matches_population_value():
    # plug-in delta-method variance within 10% of its population counterpart at N = 1e5
    rng = np.random.default_rng(25)
    dec = random_lcu(3, 3, rng)
    part = Partition([[0, 1], [2]], 3)
    ch = HybridChannel(dec, part)
    rho = random_density(3, rng)
    herm = random_hermitian(3, rng)
    obs = Observable(herm / np.abs(np.linalg.eigvalsh(herm)).max())
    sampler = Sampler(ch, rho, obs)
    n = 100_000
    batch = sampler.table[sampler.sample_shots(seed=31, count=n)]
    x = batch.g
    y = g_identity(batch)
    var_x = Histogram(x).variance
    var_y = Histogram(y).variance
    plug_in = var_x / y.mean() ** 2 + x.mean() ** 2 * var_y / y.mean() ** 4
    mu_x = sampler.exact_mean
    k = lcu.assemble_klcu(dec)
    p = np.trace(k @ rho @ k.conj().T).real
    pop_var_x = sampler.exact_second - mu_x**2
    pop_var_y = reduction_factor_obs(dec, part, rho, np.eye(3)) - p**2
    population = pop_var_x / p**2 + mu_x**2 * pop_var_y / p**4
    assert abs(plug_in - population) <= 0.10 * population


def test_ratio_error_scales_as_sqrt_R_over_P():
    # RMS error at fixed N across coherent / hybrid / singleton partitions
    # follows sqrt(R^O)/P; log-log regression slope within 20% of 1. The
    # observable is centered so the true ratio is 0, isolating the
    # numerator-variance term of the delta method.
    rng = np.random.default_rng(26)
    dec = random_lcu(4, 4, rng)
    rho = random_density(4, rng)
    herm = random_hermitian(4, rng)
    raw = Observable(herm / np.abs(np.linalg.eigvalsh(herm)).max())
    k = lcu.assemble_klcu(dec)
    p = np.trace(k @ rho @ k.conj().T).real
    shift = np.trace(raw.matrix @ k @ rho @ k.conj().T).real / p
    obs = Observable(raw.matrix - shift * np.eye(4))
    parts = [Partition.coherent(4), Partition([[0, 1], [2], [3]], 4), Partition.singletons(4)]
    n, reps = 2000, 200
    xs, ys = [], []
    for part in parts:
        ch = HybridChannel(dec, part)
        sampler = Sampler(ch, rho, obs)
        assert abs(sampler.exact_mean) <= 1e-12
        r_obs = reduction_factor_obs(dec, part, rho, obs.matrix)
        errs = np.empty(reps)
        for rep in range(reps):
            batch = sampler.table[sampler.sample_shots(seed=40, count=n, stream=rep)]
            errs[rep] = batch.g.mean() / g_identity(batch).mean()
        xs.append(math.log(math.sqrt(r_obs) / p))
        ys.append(math.log(math.sqrt(float(np.mean(errs**2)))))
    slope = np.polyfit(xs, ys, 1)[0]
    assert abs(slope - 1.0) <= 0.2


## ------------------------------------------------------------------
## chunked shots
## ------------------------------------------------------------------


def test_statistics_are_split_invariant(tmp_path):
    # a shot run cut into unequal chunks gives the single batch's CSV bytes,
    # and its outcome codes counted chunk by chunk give the concatenated
    # arrays' statistics
    rng = np.random.default_rng(28)
    dec = random_lcu(3, 3, rng)
    ch = HybridChannel(dec, Partition([[0, 1], [2]], 3))
    rho = random_density(3, rng)
    herm = random_hermitian(3, rng)
    samplers = [Sampler(ch, rho, herm / np.abs(np.linalg.eigvalsh(herm)).max()), Sampler(ch, rho, np.eye(3))]
    sizes = [1, 7000, 65536 + 5, 300, 0, 2999]
    edges = np.concatenate([[0], np.cumsum(sizes)])
    n = int(edges[-1])
    chunks = [
        [sampler.sample_shots(12, int(hi - lo), start=int(lo), stream=stream) for lo, hi in zip(edges, edges[1:])]
        for stream, sampler in enumerate(samplers)
    ]
    whole = [sampler.sample_shots(12, n, stream=stream) for stream, sampler in enumerate(samplers)]

    single, split = tmp_path / "single.csv", tmp_path / "split.csv"
    write_shot_csv(single, samplers[0].table, 12, [whole[0]])
    write_shot_csv(split, samplers[0].table, 12, iter(chunks[0]))
    assert split.read_bytes() == single.read_bytes()

    hists = []
    for sampler, stream_chunks in zip(samplers, chunks):
        counts = sum(np.bincount(chunk, minlength=len(sampler.table)) for chunk in stream_chunks)
        hists.append(Histogram(sampler.table["g"], counts))
    merged = SampleBatch(hists[0], hists[1], seed=12)
    flat = SampleBatch(*(sampler.table.g[np.concatenate(c)] for sampler, c in zip(samplers, chunks)), seed=12)
    for ours, theirs in ((merged.obs, flat.obs), (merged.one, flat.one)):
        assert (ours.n, ours.mean, ours.variance) == (theirs.n, theirs.mean, theirs.variance)
    config = EstimationConfig(epsilon=0.1, delta=0.05, bound_c=1.0)
    # |g| <= 1 bounds the variance of g by 1
    assert estimate_numerator(merged, dec.one_norm, 1.0, config) == estimate_numerator(flat, dec.one_norm, 1.0, config)
    assert estimate_ratio(merged, config) == estimate_ratio(flat, config)


## ------------------------------------------------------------------
## report CSV
## ------------------------------------------------------------------


def test_write_report_csv(tmp_path):
    config = EstimationConfig(epsilon=0.1, delta=0.05, bound_c=1.0)
    reports = [
        estimate_numerator(SampleBatch(np.ones(10), seed=3), one_norm=1.5, sigma2_bound=0.0, config=config),
        estimate_ratio(SampleBatch(np.full(10, 0.5), np.ones(10), seed=3), config),
    ]
    path = tmp_path / "report.csv"
    write_report_csv(path, reports, seed=3)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,target,estimate,half_width,delta,epsilon,N,sigma2_O,sigma2_one,R_hat,seed"
    assert len(lines) == 4
    assert lines[-1] == "# seed=3 version=0.1.0"
    assert lines[1].startswith("bernstein,numerator,")
    assert lines[2].startswith("asymptotic,ratio,0.5,")
