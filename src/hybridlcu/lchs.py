"""Driver for the matrix-propagator application e^{-AT}.

The propagator of du/dt = -Au is the Cauchy-weighted integral of
unitaries exp(-iT(H + kL)) with L, H the Hermitian/anti-Hermitian parts
of A. The integral is truncated at K1, the window [-K2, K2] is
discretized by the trapezoidal rule into one coherent group, and the
tail K2 <= |k| <= K1 is kept continuous: tail shots draw k by exact
inverse-CDF of the truncated Cauchy weight, so each tail draw is a
singleton group needing no ancilla.

All per-K2 figures of merit (node count M, alpha, |s|_1, the R - P
bound and the sampling-overhead bound) are analytic; only the
propagator-accuracy checks assemble actual matrices, each node's
exp(-iT(H + kL)) from batched eighs (``_propagators``). |s|_1 is the
Euler-Maclaurin series of the trapezoid rule with a proven remainder
bound, summed explicitly only where that bound is not negligible.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import qcore

__all__ = [
    "LchsConfig",
    "LchsDiscretization",
    "SweepRow",
    "split_hermitian",
    "truncation_k1",
    "node_count",
    "window_weight_sum",
    "discretize",
    "discretization_at",
    "window_operator",
    "assemble",
    "measured_r",
    "measured_p",
    "rp_bound",
    "rp_bound_approx",
    "sample_tail",
    "fig_sweep",
    "propagator_error",
    "write_sweep_csv",
]

# Theta-hidden trapezoid constant, calibrated so the bound-vs-M curve hits
# the documented operating point (|L|=2, T=3, 2*eps=1e-4: bound <= 1.1e-2
# at M ~ 2^21 while the fully coherent window needs ~2^29 nodes).
M_MULTIPLIER = 0.5

# largest window that is ever materialized as node and weight arrays
MAX_WINDOW_NODES = 1 << 22

# Bernoulli numbers B_2, B_4, B_6, B_8 of the Euler-Maclaurin endpoint terms
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0)


def split_hermitian(a) -> tuple[np.ndarray, np.ndarray, float]:
    """Split A = (L - c) + iH with L PSD; returns (L, H, c).

    c is the minimal nonnegative shift making the Hermitian part PSD.
    """
    a = qcore.as_matrix(a)
    l_orig = (a + a.conj().T) / 2.0
    h = (a - a.conj().T) / 2.0j
    lam_min = float(np.linalg.eigvalsh(l_orig)[0])
    shift = max(0.0, -lam_min)
    return l_orig + shift * np.eye(a.shape[0]), h, shift


def truncation_k1(epsilon: float) -> float:
    """Integral cutoff K1 = tan(pi(1 - eps)/2) keeping truncation error below eps."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    return math.tan(math.pi * (1.0 - epsilon) / 2.0)


class LchsConfig:
    """Propagator task: matrix (optional for analytic sweeps), time, accuracy, split point.

    When ``a_matrix`` is None only the norm of the PSD part is needed
    (bound sweeps never touch matrix elements) and the split parts are None;
    given a matrix, they hold ``split_hermitian(a_matrix)``, the norm is
    computed from it and ``l_norm`` is refused. ``k2 = None`` means the
    fully coherent choice K2 = K1.
    """

    def __init__(self, a_matrix, t: float, epsilon: float, k2: float | None = None, l_norm: float | None = None):
        if not (math.isfinite(t) and t >= 0):
            raise ValueError("t must be finite and nonnegative")
        if not 0.0 < epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        self.hermitian_part = self.antihermitian_part = self.shift = None
        if a_matrix is not None:
            # the norm is the matrix's own; a second value would set the node counts
            if l_norm is not None:
                raise ValueError("give a_matrix or l_norm, not both")
            a_matrix = qcore.as_matrix(a_matrix)
            self.hermitian_part, self.antihermitian_part, self.shift = split_hermitian(a_matrix)
            l_norm = float(np.abs(np.linalg.eigvalsh(self.hermitian_part)).max())
        elif l_norm is None:
            raise ValueError("need a_matrix or l_norm")
        if not (math.isfinite(l_norm) and l_norm >= 0.0):
            raise ValueError("l_norm must be finite and nonnegative")
        self.k1 = truncation_k1(epsilon)
        if k2 is None:
            k2 = self.k1
        if not 0.0 <= k2 <= self.k1 * (1 + 1e-12):
            raise ValueError(f"k2 must lie in [0, K1 = {self.k1:.6g}]")
        self.a_matrix = a_matrix
        self.t = t
        self.epsilon = epsilon
        self.k2 = k2
        self.l_norm = l_norm


class LchsDiscretization(NamedTuple):
    """Trapezoid window nodes/weights plus the analytic tail summary."""

    nodes: np.ndarray
    weights: np.ndarray
    m: int
    k1: float
    k2: float
    s_norm1: float
    alpha: float
    q_window: float  # coherent-group weight |s|_1 / (|s|_1 + (2/pi) alpha); 0 for an empty window
    q_tail: float  # 1 - q_window


def node_count(config: LchsConfig) -> int:
    """M = ceil(M_MULTIPLIER * |L| * T * sqrt(K2^3 / eps)); 0 for an empty window.

    A floor of ceil(2 K2 / sqrt(eps)) keeps the trapezoid resolving the
    Cauchy weight itself; the oscillation term vanishes at T = 0 and the
    floor is far below it at the documented operating points.
    """
    k2 = float(config.k2)
    if k2 == 0.0:
        return 0
    osc = M_MULTIPLIER * config.l_norm * config.t * math.sqrt(k2**3 / config.epsilon)
    floor = 2.0 * k2 / math.sqrt(config.epsilon)
    if not math.isfinite(osc + floor):
        raise ValueError(f"node count overflows at K2 = {k2:.6g}, eps = {config.epsilon:.3g}")
    return max(1, math.ceil(osc), math.ceil(floor))


def _trapezoid(k2: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and halved-endpoint weights h f(x_j) / pi of the M-step window trapezoid."""
    if m > MAX_WINDOW_NODES:
        raise ValueError(f"window of {m} nodes is too large to materialize (cap {MAX_WINDOW_NODES})")
    j = np.arange(m + 1)
    nodes = -k2 + 2.0 * j * k2 / m
    full = np.full(m + 1, 2.0)
    full[0] = full[-1] = 1.0
    return nodes, full * k2 / (m * math.pi * (1.0 + nodes**2))


def window_weight_sum(k2: float, m: int) -> float:
    """Trapezoid weight sum |s|_1 = (h/pi) sum' f(x_j), f = 1/(1 + x^2), h = 2 K2 / M.

    Euler-Maclaurin, with the two endpoint terms equal because f is even:
    pi |s|_1 = 2 arctan K2 + sum_{r=1..4} 2 B_2r h^2r f^(2r-1)(K2) / (2r)! + R,
    where f^(n)(x) = Im[(-1)^n n! (x - i)^-(n+1)] makes the r-th term
    -(B_2r / r) Im[(h / (K2 - i))^2r]. As |f^(n)(x)| <= n! (1 + x^2)^-(n+1)/2,
    whose integral over the line is at most 2 for n >= 2,
    |R| <= |B_8| h^8 / 8! * int |f^(8)| <= h^8 / 15. The series is used when
    its error bound h^8 / (15 pi) is at most 2^-53 (2/pi) arctan K2; otherwise
    the trapezoid is summed explicitly, for M <= MAX_WINDOW_NODES only.
    """
    if m == 0:
        return 0.0
    h = 2.0 * k2 / m
    if h**8 / 15.0 <= 2.0**-52 * math.atan(k2):
        z = h / complex(k2, -1.0)
        ends = sum(b / r * (z ** (2 * r)).imag for r, b in enumerate(_BERNOULLI, start=1))
        return (2.0 * math.atan(k2) - ends) / math.pi
    return float(_trapezoid(k2, m)[1].sum())


def discretization_at(config: LchsConfig, m: int) -> LchsDiscretization:
    """Window discretization at an explicit node count (tests sweep M directly)."""
    k1 = config.k1
    k2 = float(config.k2)
    alpha = math.atan(k1) - math.atan(k2)
    if m == 0 or k2 == 0.0:
        nodes, weights, m = np.empty(0), np.empty(0), 0
    else:
        nodes, weights = _trapezoid(k2, m)
    s1 = float(weights.sum())
    q_window = s1 / (s1 + (2.0 / math.pi) * alpha) if s1 else 0.0
    return LchsDiscretization(nodes, weights, m, k1, k2, s1, alpha, q_window, 1.0 - q_window)


def discretize(config: LchsConfig) -> LchsDiscretization:
    """Trapezoid nodes/weights on [-K2, K2] with M from the calibrated scaling.

    Endpoint weights are halved; K2 = 0 gives an empty window (pure
    tail). Materializes the node arrays, so M is capped; use fig_sweep
    and window_weight_sum for the analytic large-M regime.
    """
    return discretization_at(config, node_count(config))


# Nodes per batched eigh in _propagators. A chunk's eigh and product hold about
# four (chunk, d, d) stacks at once, so the working set beside the (M, d, d)
# output is fixed, not four times the output.
_PROPAGATOR_CHUNK = 4096


def _propagators(config: LchsConfig, ks: np.ndarray) -> np.ndarray:
    """exp(-iT(H + kL)) for every k of the 1-d array ``ks``, by batched eigh.

    The nodes go ``_PROPAGATOR_CHUNK`` at a time into one preallocated
    output; each node's eigh and product are its own, so the batching
    changes no bit. H and L come from split_hermitian of a checked matrix,
    so H + kL is exactly Hermitian for real k and no node is checked again.
    """
    if config.a_matrix is None:
        raise ValueError("this operation needs the matrix, not just l_norm")
    h, l_psd = config.antihermitian_part, config.hermitian_part
    out = np.empty((len(ks), *h.shape), dtype=complex)
    for lo in range(0, len(ks), _PROPAGATOR_CHUNK):
        chunk = out[lo : lo + _PROPAGATOR_CHUNK]
        w, v = np.linalg.eigh(h + ks[lo : lo + len(chunk), None, None] * l_psd)
        np.matmul(v * np.exp(-1j * config.t * w)[:, None, :], v.conj().transpose(0, 2, 1), out=chunk)
    return out


def window_operator(config: LchsConfig, disc: LchsDiscretization) -> np.ndarray:
    """Normalized coherent-group operator sum_j (s_j/|s|_1) U_j."""
    if disc.m == 0:
        raise ValueError("empty window has no group operator")
    return np.tensordot(disc.weights / disc.s_norm1, _propagators(config, disc.nodes), axes=1)


def _tail_integral(config: LchsConfig, k2: float, k1: float) -> np.ndarray:
    """Integral of the Cauchy-weighted unitary over K2 <= |k| <= K1.

    Substituting theta = arctan k flattens the weight to 1/pi; the
    adaptive vector quadrature then handles the oscillatory factor.
    """
    # scipy costs about half a second to import and only the accuracy checks need it
    from scipy.integrate import quad_vec

    def integrand(theta: float) -> np.ndarray:
        k = math.tan(theta)
        return _propagators(config, np.array([k, -k])).sum(axis=0) / math.pi

    val, _ = quad_vec(integrand, math.atan(k2), math.atan(k1), epsabs=1e-12, epsrel=1e-10)
    return val


def assemble(config: LchsConfig, disc: LchsDiscretization) -> np.ndarray:
    """Window sum plus integrated tail (d x d zeros if both are empty); approximates exp(-(L + iH)T)."""
    total = np.tensordot(disc.weights, _propagators(config, disc.nodes), axes=1)
    if disc.alpha > 0.0:
        total += _tail_integral(config, disc.k2, disc.k1)
    return total


def measured_r(config: LchsConfig, disc: LchsDiscretization, state) -> float:
    """Exact reduction factor of the window-group + continuous-singletons partition.

    Tail singletons are unitary, so their contribution is just the tail
    weight; no tail discretization is involved.
    """
    rho = qcore.density(state)
    if disc.m == 0:
        return 1.0
    k_a = window_operator(config, disc)
    return disc.q_window * float(np.trace(k_a.conj().T @ k_a @ rho).real) + disc.q_tail


def measured_p(config: LchsConfig, disc: LchsDiscretization, state) -> float:
    """tr[K rho K^dag] for the normalized truncated representation.

    K = q_window * window_operator + q_tail * tail average, which is the
    assembled window sum plus tail integral over |s|_1 + (2/pi) alpha.
    """
    rho = qcore.density(state)
    mass = disc.s_norm1 + (2.0 / math.pi) * disc.alpha
    if mass == 0.0:
        raise ValueError("empty representation: no window nodes and no tail")
    k_norm = assemble(config, disc) / mass
    return float(np.trace(k_norm @ rho @ k_norm.conj().T).real)


def rp_bound(k1: float, k2: float, s_norm1: float) -> float:
    """Upper bound on R - P for the window/tail partition.

    (2 alpha / pi) (5|s|_1 + (2/pi) alpha) / (|s|_1 + (2/pi) alpha)^2,
    alpha = arctan K1 - arctan K2. Equals q_B + 2H(q_A, q_B) in the
    normalized group weights.
    """
    alpha = math.atan(k1) - math.atan(k2)
    tail = (2.0 / math.pi) * alpha
    denom = s_norm1 + tail
    if denom == 0.0:
        return 0.0
    return tail * (5.0 * s_norm1 + tail) / denom**2


def rp_bound_approx(k1: float, k2: float) -> float:
    """Approximate form (1 - ratio)(1 + 4 ratio), ratio = arctan K2 / arctan K1."""
    ratio = math.atan(k2) / math.atan(k1)
    return (1.0 - ratio) * (1.0 + 4.0 * ratio)


def sample_tail(k1: float, k2: float, u) -> np.ndarray:
    """Tail nodes from uniforms by inverse CDF of the truncated Cauchy weight.

    First bit picks the sign, the rest is the arctan stretch; density of
    |k| on [K2, K1] is proportional to 1/(1 + k^2).
    """
    if not 0.0 <= k2 < k1:
        raise ValueError("need 0 <= K2 < K1")
    u = np.asarray(u, dtype=float)
    alpha = math.atan(k1) - math.atan(k2)
    sign = np.where(u < 0.5, -1.0, 1.0)
    frac = np.where(u < 0.5, u * 2.0, (u - 0.5) * 2.0)
    return sign * np.tan(math.atan(k2) + frac * alpha)


class SweepRow(NamedTuple):
    k2: float
    m: int
    alpha: float
    s_norm1: float
    rp_bound: float
    overhead_bound_at_p: float
    p_assumed: float


def fig_sweep(l_norm: float, t: float, epsilon: float, points: int, p_assumed: float) -> list[SweepRow]:
    """Bound-vs-M curve: sweep K2 over (0, K1], analytic figures only.

    overhead_bound_at_p = min(P + bound, 1)/P^2, the sampling-overhead
    bound at an assumed success probability. R <= 1, so P + bound is
    capped at 1 where the paper's rp_bound exceeds 1 - P.
    """
    if not 0.0 < p_assumed <= 1.0:
        raise ValueError("p_assumed must lie in (0, 1]")
    k1 = truncation_k1(epsilon)
    if k1 == 0.0:
        raise ValueError("epsilon = 1 truncates the integral at K1 = 0: no window to sweep")
    rows = []
    for k2 in np.geomspace(k1 * 1e-4, k1, points):
        config = LchsConfig(None, t, epsilon, k2=float(k2), l_norm=l_norm)
        m = node_count(config)
        s1 = window_weight_sum(float(k2), m)
        alpha = math.atan(k1) - math.atan(float(k2))
        bound = rp_bound(k1, float(k2), s1)
        # P**2 underflows to 0 below P ~ 1e-162, and the quotient overflows a little above that
        overhead = min(p_assumed + bound, 1.0) / p_assumed**2 if p_assumed**2 else math.inf
        if not math.isfinite(overhead):
            raise ValueError(f"p_assumed = {p_assumed} puts the overhead bound past the float range")
        rows.append(
            SweepRow(
                k2=float(k2),
                m=m,
                alpha=alpha,
                s_norm1=s1,
                rp_bound=bound,
                overhead_bound_at_p=overhead,
                p_assumed=p_assumed,
            )
        )
    return rows


def propagator_error(config: LchsConfig) -> float:
    """Operator-norm distance of the assembled representation from expm(-AT).

    The PSD shift c is undone with the exp(cT) factor before comparing.
    """
    from scipy.linalg import expm

    disc = discretize(config)
    ours = assemble(config, disc) * math.exp(config.shift * config.t)
    target = expm(-config.a_matrix * config.t)
    return float(np.linalg.norm(ours - target, 2))


def write_sweep_csv(path, rows: list[SweepRow], seed: int) -> None:
    header = "K2,M,alpha,s_norm1,rp_bound,overhead_bound_at_P,P_assumed"
    qcore.save_csv(path, header, rows, seed)
