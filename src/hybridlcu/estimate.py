"""Sample-count planning and confidence intervals for the shot estimators.

Two regimes: finite-sample Bernstein bounds for the unnormalized
expectation (numerator) estimator, and the asymptotic delta-method
interval for the ratio estimator ``mean(g_O)/mean(g_1)``. Every bound a
width or plan rests on is an input: the numerator's variance bound is an
argument and the ratio planner's c' a config field, and neither is ever
replaced by an estimate from the samples. Reported variances use the
population convention (divide by N) to match the planner formulas; the
small-N bias is documented, not corrected.

Samples are held as histograms, (value, count) pairs. A shot's g is the
g of its row in the sampler's outcome table, so the table's g column with
the count of shots per outcome code is a histogram whose size does not
grow with the shot count, and an array of samples is the histogram with
unit counts. Every moment is an exact sum rounded once, so one multiset
of samples gives bit-identical statistics in either form and under any
split into chunks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qcore

__all__ = [
    "EstimationConfig",
    "Histogram",
    "SampleBatch",
    "EstimationReport",
    "UndefinedRatioError",
    "z_quantile",
    "bernstein_n",
    "bernstein_half_width",
    "ratio_n",
    "estimate_numerator",
    "estimate_ratio",
    "estimate_R_obs",
    "write_report_csv",
]


class UndefinedRatioError(ZeroDivisionError):
    pass


@dataclass(frozen=True)
class EstimationConfig:
    """Targets and a.s. bounds driving both planners.

    ``bound_c`` bounds |g| (the observable norm scale). ``ratio_bound_cprime``
    bounds the ratio of means. Only :func:`ratio_n` reads it, and it refuses
    a config that leaves it None: the theory needs the bound as an input
    but gives no recipe for it.
    """

    epsilon: float
    delta: float
    bound_c: float
    ratio_bound_cprime: float | None = None

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 < self.bound_c < math.inf:
            raise ValueError("bound_c must be positive and finite")
        # a bound below the truth would report an interval narrower than the data allow
        if self.ratio_bound_cprime is not None and not 0 < self.ratio_bound_cprime < math.inf:
            raise ValueError("ratio_bound_cprime must be positive and finite")


def _exact_dot(counts: np.ndarray, values: np.ndarray) -> float:
    """``sum(counts * values)`` rounded once, with the sign of a zero sum dropped.

    Unit counts (an array of samples) are summed by ``math.fsum``, other
    counts as one integer over the values' largest power-of-two
    denominator, divided once; both round the exact sum once, so c copies
    of (1, v) and one (c, v) agree to the bit.
    """
    if np.all(counts == 1.0):
        return math.fsum(values.tolist()) + 0.0
    terms = [(int(c), *v.as_integer_ratio()) for c, v in zip(counts.tolist(), values.tolist()) if c]
    den = max((d for _, _, d in terms), default=1)
    return sum(c * n * (den // d) for c, n, d in terms) / den


class Histogram:
    """A multiset of samples as (value, count) pairs, with exactly summed moments.

    ``Histogram(samples)`` takes an array as unit counts, with no sort, and
    values may repeat. ``mean`` is ``sum(c v) / n`` and ``variance`` the
    two-pass ``sum(c (v - mean)^2) / n``, each sum exact before its one
    rounding; both raise ``ValueError`` on an empty histogram. Counts must
    be finite, nonnegative whole numbers.
    """

    def __init__(self, values, counts=None):
        self.values = np.asarray(values, dtype=float)
        # float counts are exact integers below 2**53
        self.counts = np.ones(len(self.values)) if counts is None else np.asarray(counts, dtype=float)
        if self.counts.shape != self.values.shape:
            raise ValueError("values and counts must have equal length")
        if not np.all(np.isfinite(self.counts) & (self.counts >= 0) & (self.counts == np.floor(self.counts))):
            raise ValueError("counts must be finite, nonnegative whole numbers")
        self.n = int(self.counts.sum())

    @functools.cached_property
    def mean(self) -> float:
        if self.n == 0:
            raise ValueError("moments of an empty batch")
        return _exact_dot(self.counts, self.values) / self.n

    @functools.cached_property
    def variance(self) -> float:
        dev = self.values - self.mean
        return _exact_dot(self.counts, dev * dev) / self.n


def _as_histogram(samples) -> Histogram:
    return samples if isinstance(samples, Histogram) else Histogram(samples)


class SampleBatch:
    """Paired g-samples for the observable and for the identity, as histograms.

    Each side is a :class:`Histogram` or an array of samples.
    """

    def __init__(self, g_obs, g_one=None, seed: int = 0):
        self.obs = _as_histogram(g_obs)
        self.one = None if g_one is None else _as_histogram(g_one)
        if self.one is not None and self.one.n != self.obs.n:
            raise ValueError("paired batches must have equal length")
        self.seed = seed
        self.n = self.obs.n


class EstimationReport(NamedTuple):
    method: str
    target: str
    estimate: float
    half_width: float
    delta: float
    epsilon: float
    n: int
    sigma2_obs: float
    sigma2_one: float
    r_hat: float
    seed: int


def z_quantile(delta: float) -> float:
    """z with Gaussian upper-tail mass delta/2, by bisection to 1e-10.

    Satisfies ``z <= sqrt(2 ln(1/delta))`` (the bound the planner formulas
    quote); the inverse itself is computed numerically.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    target = delta / 2.0
    lo, hi = 0.0, 50.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(mid / math.sqrt(2.0)) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _check_bernstein(sigma2_bound: float, c: float, delta: float) -> None:
    """The inputs of the Bernstein tail; each comparison also refuses NaN."""
    # a NaN or infinite bound would give a NaN or infinite width, a negative one a width too narrow
    if not 0 <= sigma2_bound < math.inf:
        raise ValueError("sigma2 bound must be nonnegative and finite")
    if not 0 < c < math.inf:
        raise ValueError("c must be positive and finite")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")


def bernstein_n(sigma2_bound: float, c: float, epsilon: float, delta: float) -> int:
    """Samples guaranteeing the Bernstein tail at most delta.

    N = ceil(2 ln(2/delta) (sigma2/eps^2 + 2c/(3 eps))).
    """
    _check_bernstein(sigma2_bound, c, delta)
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    val = 2.0 * math.log(2.0 / delta) * (sigma2_bound / epsilon**2 + 2.0 * c / (3.0 * epsilon))
    return max(1, math.ceil(val))


def bernstein_half_width(sigma2_bound: float, c: float, n: int, delta: float) -> float:
    """Invert the Bernstein tail: epsilon with 2 exp(-N eps^2/(2 sigma2 + 4 c eps/3)) = delta."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_bernstein(sigma2_bound, c, delta)
    ell = math.log(2.0 / delta)
    b = (4.0 * c / 3.0) * ell
    return (b + math.sqrt(b * b + 8.0 * sigma2_bound * n * ell)) / (2.0 * n)


def ratio_n(config: EstimationConfig, sigma2_x: float, sigma2_y: float, mu_y_abs: float) -> int:
    """Sample count for the ratio estimator at (epsilon, delta).

    N = ceil(32 ln(4/delta) max{sx^2/(muY^2 eps^2) + c/(6|muY| eps),
                                 (sy^2/(muY^2 eps^2)) c'^2 + (c/(6|muY| eps)) c'}).
    Valid only for eps <= 2 c'; c' is ``config.ratio_bound_cprime``, which
    must be given.
    """
    if mu_y_abs <= 0:
        raise ValueError("mu_y_abs must be positive")
    if config.ratio_bound_cprime is None:
        raise ValueError("the ratio planner needs ratio_bound_cprime")
    eps, delta = config.epsilon, config.delta
    c, cprime = config.bound_c, config.ratio_bound_cprime
    if eps > 2.0 * cprime:
        raise ValueError(f"epsilon {eps} outside ratio-planner range (must be <= 2 c' = {2 * cprime})")
    var_term = sigma2_x / (mu_y_abs**2 * eps**2) + c / (6.0 * mu_y_abs * eps)
    den_term = (sigma2_y / (mu_y_abs**2 * eps**2)) * cprime**2 + (c / (6.0 * mu_y_abs * eps)) * cprime
    val = 32.0 * math.log(4.0 / delta) * max(var_term, den_term)
    return max(1, math.ceil(val))


def estimate_R_obs(batch: SampleBatch) -> float:
    """``sigma_hat^2 + mean^2``, the empirical second moment (converges to R^O)."""
    return batch.obs.variance + batch.obs.mean**2


def _report(
    method: str, target: str, batch: SampleBatch, config: EstimationConfig, estimate: float, half_width: float
) -> EstimationReport:
    """A report of ``estimate`` +- ``half_width`` with the fields every report reads from its batch and config."""
    return EstimationReport(
        method=method,
        target=target,
        estimate=estimate,
        half_width=half_width,
        delta=config.delta,
        epsilon=config.epsilon,
        n=batch.n,
        sigma2_obs=batch.obs.variance,
        sigma2_one=batch.one.variance if batch.one is not None else float("nan"),
        r_hat=estimate_R_obs(batch),
        seed=batch.seed,
    )


def estimate_numerator(
    batch: SampleBatch, one_norm: float, sigma2_bound: float, config: EstimationConfig
) -> EstimationReport:
    """Bernstein report for ``|c|_1^2 mean(g_O)`` estimating tr[O K rho K^dag].

    ``sigma2_bound`` bounds the variance of g, for example the sampler's
    exact ``exact_second - exact_mean**2``, so the half-width is a
    finite-sample bound at every N. The width is computed on the g scale
    and rescaled by |c|_1^2.
    """
    width_g = bernstein_half_width(sigma2_bound, config.bound_c, batch.n, config.delta)
    return _report("bernstein", "numerator", batch, config, one_norm**2 * batch.obs.mean, one_norm**2 * width_g)


def estimate_ratio(batch: SampleBatch, config: EstimationConfig) -> EstimationReport:
    """Delta-method report for mean(g_O)/mean(g_1) estimating the normalized expectation."""
    if batch.one is None:
        raise ValueError("ratio estimation needs the identity batch")
    mean_x = batch.obs.mean
    mean_y = batch.one.mean
    if mean_y == 0.0:
        raise UndefinedRatioError("identity batch mean is zero; ratio undefined")
    var_x = batch.obs.variance
    var_y = batch.one.variance
    sigma_ratio2 = var_x / mean_y**2 + mean_x**2 * var_y / mean_y**4
    z = z_quantile(config.delta)
    return _report("asymptotic", "ratio", batch, config, mean_x / mean_y, z * math.sqrt(sigma_ratio2 / batch.n))


def write_report_csv(path, reports: list[EstimationReport], seed: int) -> None:
    header = "method,target,estimate,half_width,delta,epsilon,N,sigma2_O,sigma2_one,R_hat,seed"
    qcore.save_csv(path, header, reports, seed)
