"""Acceptance gate: one test per shipped criterion, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v` for pytest's verdict per criterion,
or add `-s` to also see the printed ACCEPTANCE lines. Tolerances and runtime
budgets are pinned here and are not to be loosened.
"""

import functools
import math
import time

import numpy as np
from conftest import random_hermitian, random_lcu, random_pure

from hybridlcu import cli, estimate, gsp, hybrid, lchs, lcu
from hybridlcu import partition as partition_mod
from hybridlcu import qcore, qed, qlss


def finish(num: int, name: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {num:02d} {name}: {status}")
    assert not failures, f"{len(failures)} violation(s): " + "; ".join(str(f) for f in failures[:5])


def random_split_partition(m: int, rng: np.random.Generator) -> partition_mod.Partition:
    labels = rng.integers(0, max(2, m // 2 + 1), size=m)
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(int(lab), []).append(i)
    return partition_mod.Partition([tuple(g) for g in groups.values()], m)


@functools.lru_cache(maxsize=1)
def sandwich_instances():
    """20 shared (decomposition, state, R-per-partition) records for 1 and 2."""
    parts = partition_mod.enumerate_partitions(5)
    records = []
    for inst in range(20):
        rng = np.random.default_rng(1000 + inst)
        dec = random_lcu(5, 4, rng)
        psi = random_pure(4, rng)
        p_value = partition_mod.reduction_factor(dec, partition_mod.Partition.coherent(5), psi)
        r_values = [partition_mod.reduction_factor(dec, part, psi) for part in parts]
        records.append((dec, psi, p_value, r_values))
    return parts, records


def test_01_sandwich_inequality():
    # 20 instances (m=5, dim=4) x all 52 partitions: P - 1e-9 <= R <= 1 + 1e-9
    start = time.perf_counter()
    parts, records = sandwich_instances()
    failures = []
    for inst, (_, _, p_value, r_values) in enumerate(records):
        for part, r_value in zip(parts, r_values):
            if not (p_value - 1e-9 <= r_value <= 1.0 + 1e-9):
                failures.append(f"instance {inst} partition {part.to_text()}: P={p_value} R={r_value}")
    elapsed = time.perf_counter() - start
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    finish(1, "sandwich-inequality", failures)


def test_02_refinement_monotonicity():
    # all comparable pairs on the same instances: R(coarse) <= R(fine) + 1e-9
    parts, records = sandwich_instances()
    failures = []
    comparable = [
        (i, j)
        for i in range(len(parts))
        for j in range(len(parts))
        if i != j and partition_mod.is_refinement(parts[i], parts[j])
    ]
    for inst, (_, _, _, r_values) in enumerate(records):
        for fine, coarse in comparable:
            if r_values[coarse] > r_values[fine] + 1e-9:
                failures.append(f"instance {inst}: R({parts[coarse].to_text()}) > R({parts[fine].to_text()})")
    finish(2, "refinement-monotonicity", failures)


def test_03_split_delta_exactness():
    # |formula - direct R^O difference| <= 1e-9 on 100 random splits
    rng = np.random.default_rng(31)
    failures = []
    for trial in range(100):
        m = int(rng.integers(3, 7))
        dim = int(rng.choice([2, 4]))
        dec = random_lcu(m, dim, rng)
        psi = random_pure(dim, rng)
        obs = random_hermitian(dim, rng)
        part = random_split_partition(m, rng)
        sizes = [len(g) for g in part.groups]
        if max(sizes) < 2:
            part = partition_mod.Partition.coherent(m)
        gi = max(range(len(part.groups)), key=lambda k: len(part.groups[k]))
        group = part.groups[gi]
        cut = int(rng.integers(1, len(group)))
        subset_a = tuple(sorted(rng.choice(group, size=cut, replace=False).tolist()))
        formula = partition_mod.split_delta(dec, part, gi, subset_a, psi, obs)
        fine_groups = [g for k, g in enumerate(part.groups) if k != gi]
        fine_groups.append(subset_a)
        fine_groups.append(tuple(i for i in group if i not in subset_a))
        fine = partition_mod.Partition(fine_groups, m)
        direct = partition_mod.reduction_factor_obs(dec, fine, psi, obs) - partition_mod.reduction_factor_obs(
            dec, part, psi, obs
        )
        if abs(formula - direct) > 1e-9:
            failures.append(f"trial {trial}: formula {formula} direct {direct}")
    finish(3, "split-delta-exactness", failures)


def test_04_three_way_channel_agreement():
    # analytic, circuit, exhaustive-distribution values of tr[O Lam(rho)] within 1e-9
    failures = []
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        m = int(rng.integers(2, 7))
        dim = int(2 ** rng.integers(1, 4))
        dec = random_lcu(m, dim, rng)
        psi = random_pure(dim, rng)
        obs = qcore.Observable(random_hermitian(dim, rng))
        channel = hybrid.HybridChannel(dec, random_split_partition(m, rng))
        analytic = hybrid.exact_expectation(channel, psi, obs, backend="analytic")
        circuit = hybrid.exact_expectation(channel, psi, obs, backend="circuit")
        exhaustive = 0.0
        for k, gk in enumerate(channel.group_ops):
            for kp, gkp in enumerate(channel.group_ops):
                probs = hybrid.outcome_distribution(channel, psi, obs, k, kp)
                g_vals = np.zeros_like(probs)
                g_vals[0, 0, :] = obs.eigenvalues
                g_vals[0, 1, :] = -obs.eigenvalues
                exhaustive += gk.weight * gkp.weight * float((probs * g_vals).sum())
        spread = max(analytic, circuit, exhaustive) - min(analytic, circuit, exhaustive)
        if spread > 1e-9:
            failures.append(f"seed {seed}: analytic {analytic} circuit {circuit} exhaustive {exhaustive}")
    finish(4, "three-way-channel-agreement", failures)


def test_05_sampler_moments():
    # 1e5 shots: mean and second moment within 5 standard errors of exact
    rng = np.random.default_rng(77)
    dec = random_lcu(4, 4, rng)
    psi = random_pure(4, rng)
    h = random_hermitian(4, rng)
    obs = h / np.abs(np.linalg.eigvalsh(h)).max()
    channel = hybrid.HybridChannel(dec, partition_mod.Partition([(0, 1), (2, 3)], 4))
    sampler = hybrid.Sampler(channel, psi, obs)
    batch = sampler.table[sampler.sample_shots(seed=77, count=100000, stream=0)]
    failures = []
    se_mean = float(batch.g.std()) / math.sqrt(len(batch))
    if abs(float(batch.g.mean()) - sampler.exact_mean) > 5.0 * se_mean:
        failures.append(f"mean {batch.g.mean()} vs {sampler.exact_mean} (se {se_mean})")
    g2 = batch.g**2
    se_second = float(g2.std()) / math.sqrt(len(batch))
    if abs(float(g2.mean()) - sampler.exact_second) > 5.0 * se_second:
        failures.append(f"second moment {g2.mean()} vs {sampler.exact_second} (se {se_second})")
    finish(5, "sampler-moments", failures)


def test_06_extremes():
    # R[{[m]}] = P and R[singletons] = 1, each within 1e-12
    failures = []
    for seed in range(5):
        rng = np.random.default_rng(600 + seed)
        m = int(rng.integers(2, 7))
        dim = int(rng.choice([2, 4, 8]))
        dec = random_lcu(m, dim, rng)
        psi = random_pure(dim, rng)
        klcu = lcu.assemble_klcu(dec)
        p_direct = float(np.real(np.vdot(klcu @ psi, klcu @ psi)))
        r_coarse = partition_mod.reduction_factor(dec, partition_mod.Partition.coherent(m), psi)
        r_fine = partition_mod.reduction_factor(dec, partition_mod.Partition.singletons(m), psi)
        if abs(r_coarse - p_direct) > 1e-12:
            failures.append(f"seed {seed}: R[coherent] {r_coarse} vs P {p_direct}")
        if abs(r_fine - 1.0) > 1e-12:
            failures.append(f"seed {seed}: R[singletons] {r_fine}")
    finish(6, "extremes", failures)


def test_07_lchs_bound_curve():
    # |L|=2, T=3, 2eps=1e-4: bound <= 1.1e-2 at M ~ 2^21; curve monotone; seconds
    start = time.perf_counter()
    failures = []
    rows = lchs.fig_sweep(l_norm=2.0, t=3.0, epsilon=5e-5, points=60)
    order = np.argsort([r.m for r in rows])
    bounds = np.array([r.rp_bound for r in rows])[order]
    if not np.all(np.diff(bounds) <= 1e-12):
        failures.append("bound-vs-M curve is not monotone nonincreasing")
    base = lchs.LchsConfig(None, t=3.0, epsilon=5e-5, k2=1.0, l_norm=2.0)
    k2_at = (2**21 / (lchs.M_MULTIPLIER * 2.0 * 3.0)) ** (2.0 / 3.0) * (5e-5) ** (1.0 / 3.0)
    at = lchs.LchsConfig(None, t=3.0, epsilon=5e-5, k2=k2_at, l_norm=2.0)
    m_at = lchs.node_count(at)
    if abs(m_at - 2**21) / 2**21 > 0.02:
        failures.append(f"node count {m_at} is not ~2^21")
    bound_at = lchs.rp_bound(at.k1, k2_at, lchs.window_weight_sum(k2_at, m_at))
    if bound_at > 1.1e-2:
        failures.append(f"bound {bound_at} at M ~ 2^21 exceeds 1.1e-2")
    elapsed = time.perf_counter() - start
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f}s is not 'seconds'")
    finish(7, "lchs-bound-curve", failures)


def test_08_lchs_propagator():
    # random 4-dim A (L PSD, |L| <= 2), eps=1e-2, K2=K1: within 5 eps of expm(-AT)
    failures = []
    for seed in range(3):
        rng = np.random.default_rng(800 + seed)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        l_part = z @ z.conj().T
        l_part *= (0.5 + 1.5 * rng.random()) / np.abs(np.linalg.eigvalsh(l_part)).max()
        a = l_part + 1j * random_hermitian(4, rng)
        config = lchs.LchsConfig(a, t=1.0, epsilon=1e-2)
        err = lchs.propagator_error(config)
        if err > 5e-2:
            failures.append(f"seed {seed}: error {err}")
    finish(8, "lchs-propagator", failures)


def test_09_qlss_table():
    # dim-8, kappa in {4,8,16,32}, eps=1e-2: inverse error, closed form, exponents
    start = time.perf_counter()
    failures = []
    kappas = (4.0, 8.0, 16.0, 32.0)
    epsilon = 1e-2
    for i, kappa in enumerate(kappas):
        config = qlss.random_instance(kappa, epsilon, dim=8, seed=7 + i)
        grid = qlss.build_grid(config)
        err = qlss.inverse_error(config, grid)
        if err > 5.0 * epsilon:
            failures.append(f"kappa {kappa}: inverse error {err}")
        factors = qlss.reduction_factors(config, grid)
        rel = abs(factors.r_int - factors.r_int_closed_form) / factors.r_int_closed_form
        if rel > 0.10:
            failures.append(f"kappa {kappa}: R_int off closed form by {rel:.3f}")
    rows = qlss.sweep(kappas, epsilon=epsilon, dim=8, seed=7)
    slope_int, slope_conv = qlss.fit_exponents(rows)
    if abs(slope_int - (-0.5)) > 0.15:
        failures.append(f"R_int exponent {slope_int}")
    if abs(slope_conv - (-1.0)) > 0.15:
        failures.append(f"P exponent {slope_conv}")
    elapsed = time.perf_counter() - start
    if elapsed > 300.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5 min")
    finish(9, "qlss-table", failures)


def test_10_qed_sweep():
    # 10 p_Z x r in {0.1,0.2,0.3} x 32 codewords: R r-independent, sandwich, monotone
    start = time.perf_counter()
    failures = []
    r_values = (0.1, 0.2, 0.3)
    rows = qed.fig_sweep(r_values=r_values, pz_grid=np.geomspace(1e-3, 1e-1, 10), codewords=32, seed=0)
    by_pz: dict[float, list[float]] = {}
    for row in rows:
        by_pz.setdefault(row.p_z, []).append(row.r_factor)
        if row.gap < 0.0:
            failures.append(f"R - P = {row.gap} < 0 at r={row.r} pZ={row.p_z}")
    for p_z, values in by_pz.items():
        if max(values) - min(values) > 1e-12:
            failures.append(f"R varies with r at pZ={p_z}: spread {max(values) - min(values)}")
    for r in r_values:
        ps = [row.p for row in rows if row.r == r]
        if not all(a > b for a, b in zip(ps, ps[1:])):
            failures.append(f"P not strictly decreasing in pZ at r={r}")
    rng = np.random.default_rng(0)
    for _ in range(4):
        word = qed.random_codeword(rng)
        rho = qed.apply_biased_noise(np.outer(word, word.conj()), qed.NoiseModel(p_z=0.0, r=0.2))
        metrics = qed.qed_metrics(rho)
        if abs(metrics.p - 1.0) > 1e-12 or abs(metrics.r_factor - 1.0) > 1e-12:
            failures.append(f"pZ=0 gives P={metrics.p} R={metrics.r_factor}")
    elapsed = time.perf_counter() - start
    if elapsed > 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 2 min")
    finish(10, "qed-sweep", failures)


def test_11_gsp_two_stage():
    # 16-dim, gap 0.2, p0=0.5: stage-1 within the 5 p0-scale budget, final <= 5 eps,
    # reported R equal to <psi|cos^{2T'}|psi> within 1e-10
    failures = []
    for seed in (3, 4, 5):
        h_matrix, psi = gsp.random_gsp_instance(16, 0.2, 0.5, seed=seed)
        config = gsp.GspConfig(h_matrix=h_matrix, p0=0.5, epsilon=1e-3)
        report = gsp.hybrid_gsp(config, psi)
        if report.stage1_distance > 5.0 * config.p0:
            failures.append(f"seed {seed}: stage-1 distance {report.stage1_distance}")
        if report.final_distance > 5.0 * config.epsilon:
            failures.append(f"seed {seed}: final distance {report.final_distance}")
        filt = gsp.cosine_filter(h_matrix, config.e_estimate, report.tau, 2 * report.t_prime)
        r_direct = float(np.real(np.vdot(psi, filt @ psi)))
        if abs(report.r_factor - r_direct) > 1e-10:
            failures.append(f"seed {seed}: R {report.r_factor} vs direct {r_direct}")
    finish(11, "gsp-two-stage", failures)


def test_12_estimator_coverage():
    # planned-N failure rates <= delta + 0.02 over 200 reps; asymptotic interval >= 93% of 500
    delta = 0.05
    failures = []
    rng = np.random.default_rng(55)
    dec = random_lcu(3, 2, rng)
    psi = random_pure(2, rng)
    h = random_hermitian(2, rng)
    obs = h / np.abs(np.linalg.eigvalsh(h)).max()
    channel = hybrid.HybridChannel(dec, partition_mod.Partition([(0, 1), (2,)], 3))
    sampler_obs = hybrid.Sampler(channel, psi, obs)
    sampler_one = hybrid.Sampler(channel, psi, np.eye(2))
    mu_x, mu_y = sampler_obs.exact_mean, sampler_one.exact_mean
    var_x = sampler_obs.exact_second - mu_x**2
    var_y = sampler_one.exact_second - mu_y**2

    eps_num = 0.05
    n_bern = estimate.bernstein_n(sampler_obs.exact_second, 1.0, eps_num, delta)
    fails_bern = 0
    for rep in range(200):
        g = sampler_obs.table[sampler_obs.sample_shots(55, n_bern, stream=100 + rep)].g
        if abs(float(g.mean()) - mu_x) > eps_num:
            fails_bern += 1
    if fails_bern / 200.0 > delta + 0.02:
        failures.append(f"bernstein failure rate {fails_bern / 200}")

    eps_ratio = 0.1
    config = estimate.EstimationConfig(epsilon=eps_ratio, delta=delta, bound_c=1.0, ratio_bound_cprime=1.0)
    n_ratio = estimate.ratio_n(config, var_x, var_y, abs(mu_y))
    truth = mu_x / mu_y
    fails_ratio = 0
    for rep in range(200):
        gx = sampler_obs.table[sampler_obs.sample_shots(55, n_ratio, stream=3000 + rep)].g
        gy = sampler_one.table[sampler_one.sample_shots(55, n_ratio, stream=6000 + rep)].g
        if abs(float(gx.mean()) / float(gy.mean()) - truth) > eps_ratio:
            fails_ratio += 1
    if fails_ratio / 200.0 > delta + 0.02:
        failures.append(f"ratio failure rate {fails_ratio / 200}")

    covered = 0
    for trial in range(500):
        gx = sampler_obs.table[sampler_obs.sample_shots(55, 2000, stream=10000 + trial)].g
        gy = sampler_one.table[sampler_one.sample_shots(55, 2000, stream=20000 + trial)].g
        report = estimate.estimate_ratio(estimate.SampleBatch(gx, gy, seed=55), config)
        if abs(report.estimate - truth) <= report.half_width:
            covered += 1
    if covered < 0.93 * 500:
        failures.append(f"asymptotic interval covered only {covered}/500")
    finish(12, "estimator-coverage", failures)


def test_13_cli_worker_determinism(tmp_path):
    # same seed, different --workers: byte-identical CSVs
    failures = []
    runs = {
        "demo": (["demo", "--seed", "19", "--shots", "3000"], ["demo_partitions.csv", "demo_reports.csv", "demo_shots.csv"]),
        "qed": (["qed", "--seed", "19"], ["qed_sweep.csv"]),
        "qlss": (["qlss", "--seed", "19"], ["qlss_table.csv"]),
    }
    for name, (args, csvs) in runs.items():
        outputs = []
        for workers in ("1", "3"):
            out_dir = tmp_path / f"{name}_w{workers}"
            code = cli.main([*args, "--workers", workers, "--out", str(out_dir)])
            if code != 0:
                failures.append(f"{name} workers={workers} exited {code}")
            outputs.append(out_dir)
        for csv_name in csvs:
            if (outputs[0] / csv_name).read_bytes() != (outputs[1] / csv_name).read_bytes():
                failures.append(f"{name}: {csv_name} differs between worker counts")
    finish(13, "cli-worker-determinism", failures)
