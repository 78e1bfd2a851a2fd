"""Driver for the linear system application |x> ~ M^{-1}|b>.

The inverse of a Hermitian M with singular values in [1/kappa, 1] is
approximated by a double grid sum

    M^{-1} ~ (i/sqrt(2pi)) sum_{j=0}^{J-1} Dy sum_{k=-K}^{K}
                 Dz z_k e^{-z_k^2/2} e^{-i M y_j z_k},

with y_j = j*Dy and z_k = k*Dz.  The hybrid realization draws the outer
index j uniformly (q_j = 1/J) and applies the inner z-sum coherently as
the subnormalized operator K_j, so the coherent cost is set by the z-grid
alone while the fully coherent method pays for both grids.

Everything numerical runs in the eigenbasis of M.  Sums over j collapse
to a geometric-series kernel, so J never has to be materialized; costs
scale with K and the dimension only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qcore

__all__ = [
    "QlssConfig",
    "QlssGrid",
    "ReductionFactors",
    "TableRow",
    "build_grid",
    "k_scalar",
    "group_operator",
    "reduction_factors",
    "assemble",
    "inverse_error",
    "ancilla_counts",
    "random_instance",
    "sweep",
    "fit_exponents",
    "write_table_csv",
]

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Theta-hidden grid constants.  The outer/inner truncation multipliers are
# 2 so both cutoff errors scale as (eps/kappa)^2; with multipliers of 1
# they scale as sqrt(eps/kappa), which saturates the 5*eps inverse-error
# budget already at kappa = 4.  The step multipliers stay at 1.
C_J = 2.0
C_K = 2.0
C_Y = 1.0
C_Z = 1.0

# largest (dim, 2K+1) eigenvalue-by-node array _assembled_scalars ever builds
MAX_GRID_ENTRIES = 1 << 22


class QlssConfig:
    """Problem instance: Hermitian matrix, unit right-hand side, kappa, epsilon (grid constants C_J..C_Z).

    The eigendecomposition of M is taken once here. ``b_eigen`` is the
    right-hand side rotated into the eigenbasis of M, and ``log_factor`` is
    log(kappa/epsilon), the resolution parameter every grid size tracks.
    The eigenvalues, eigenvectors, b and b_eigen are read-only.
    """

    def __init__(self, m_matrix, b, kappa: float, epsilon: float):
        self.m_matrix = qcore.require_hermitian(m_matrix, what="m_matrix")
        self.dimension = self.m_matrix.shape[0]
        b = np.asarray(b, dtype=complex).reshape(-1)
        if b.shape[0] != self.dimension:
            raise ValueError("b length does not match matrix dimension")
        norm = float(np.linalg.norm(b))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"b must be a unit vector, got norm {norm}")
        if not kappa >= 1.0:
            raise ValueError("kappa must be >= 1")
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        self.eigenvalues, self.eigenvectors = qcore.eigh(self.m_matrix)
        lo = 1.0 / kappa - 1e-9
        hi = 1.0 + 1e-9
        mags = np.abs(self.eigenvalues)
        if mags.min() < lo or mags.max() > hi:
            raise ValueError(
                f"singular values must lie in [1/kappa, 1]; got range "
                f"[{mags.min():.6g}, {mags.max():.6g}] for kappa={kappa}"
            )
        self.b = b / norm
        self.kappa = kappa
        self.epsilon = epsilon
        self.b_eigen = self.eigenvectors.conj().T @ self.b
        self.log_factor = math.log(kappa / epsilon)
        for a in (self.b, self.eigenvalues, self.eigenvectors, self.b_eigen):
            a.setflags(write=False)


@dataclass(frozen=True)
class QlssGrid:
    """Discretization of the double sum.

    z_weights holds the signed inner coefficients Dz * z_k * exp(-z_k^2/2);
    beta is the 1-norm of that vector (close to 2 once K*Dz covers the
    Gaussian, i.e. at small epsilon).  one_norm is the LCU 1-norm of the
    whole double sum, J*Dy*beta/sqrt(2pi).
    """

    j_count: int
    k_count: int
    dy: float
    dz: float
    z_nodes: np.ndarray
    z_weights: np.ndarray
    beta: float
    one_norm: float

    def __post_init__(self):
        if self.j_count < 1 or self.k_count < 1:
            raise ValueError("grid must have at least one node per axis")
        if not (self.dy > 0.0 and self.dz > 0.0):
            raise ValueError("grid steps must be positive")
        if self.z_nodes.shape != (2 * self.k_count + 1,):
            raise ValueError("z_nodes must hold 2K+1 nodes")
        if self.z_weights.shape != self.z_nodes.shape:
            raise ValueError("z_weights and z_nodes must have matching shapes")
        if not (self.beta > 0.0 and self.one_norm > 0.0):
            raise ValueError("degenerate grid: zero weight")
        self.z_nodes.setflags(write=False)
        self.z_weights.setflags(write=False)


def build_grid(config: QlssConfig) -> QlssGrid:
    ell = config.log_factor
    # dim * (2K+1) <= MAX_GRID_ENTRIES exactly when K <= k_max; tested before
    # ceil, which an infinite log factor would overflow
    k_max = (MAX_GRID_ENTRIES // config.dimension - 1) // 2
    k_real = C_K * config.kappa * ell
    if not k_real <= k_max:
        raise ValueError(
            f"inner grid of K = {k_real:.4g} at kappa = {config.kappa:g}, epsilon = {config.epsilon:g} and "
            f"dimension {config.dimension} is too large to materialize (cap K <= {k_max}, {MAX_GRID_ENTRIES} entries)"
        )
    j_count = max(1, math.ceil(C_J * (config.kappa / config.epsilon) * ell))
    k_count = max(1, math.ceil(k_real))
    dy = C_Y * config.epsilon / math.sqrt(ell)
    dz = C_Z / (config.kappa * math.sqrt(ell))
    z_nodes = np.arange(-k_count, k_count + 1) * dz
    z_weights = dz * z_nodes * np.exp(-0.5 * z_nodes**2)
    beta = float(np.abs(z_weights).sum())
    one_norm = j_count * dy * beta / SQRT_TWO_PI
    return QlssGrid(
        j_count=j_count,
        k_count=k_count,
        dy=dy,
        dz=dz,
        z_nodes=z_nodes,
        z_weights=z_weights,
        beta=beta,
        one_norm=one_norm,
    )


def _geometric_sum(x: np.ndarray, count: int) -> np.ndarray:
    """sum_{j=0}^{count-1} exp(-i x j) for every real x, stable near x = 0.

    The closed form holds for every x; only its x -> 0 limit, taken where
    |sin(x/2)| < 1e-12, assumes x is near 0. The sum has period 2pi, so x is
    first reduced to [-pi, pi]; the lag kernels reach |x| = 7.5 at small J.
    """
    x = np.asarray(x, dtype=float)
    x = x - 2.0 * math.pi * np.round(x / (2.0 * math.pi))
    half = 0.5 * x
    den = np.sin(half)
    tiny = np.abs(den) < 1e-12
    den_safe = np.where(tiny, 1.0, den)
    ratio = np.where(tiny, float(count), np.sin(count * half) / den_safe)
    return np.exp(-1j * (count - 1) * half) * ratio


def k_scalar(grid: QlssGrid, lam, y: float) -> np.ndarray:
    """Eigenvalue action of K_j at outer coordinate y: i/beta * sum_k w_k exp(-i lam y z_k)."""
    phase = np.atleast_1d(np.asarray(lam, dtype=float)) * y
    return 1j / grid.beta * (grid.z_weights[None, :] * np.exp(-1j * phase[:, None] * grid.z_nodes[None, :])).sum(axis=1)


def _assembled_scalars(grid: QlssGrid, eigenvalues: np.ndarray) -> np.ndarray:
    """Eigenvalue action g(lambda) of the full double sum (approximates 1/lambda).

    The j-sum is a geometric series in exp(-i lambda z_k Dy), so this costs
    O(K) per eigenvalue with no dependence on J.
    """
    lam = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
    x = lam[:, None] * grid.z_nodes[None, :] * grid.dy
    kernel = _geometric_sum(x, grid.j_count)
    g = (1j * grid.dy / SQRT_TWO_PI) * (grid.z_weights[None, :] * kernel).sum(axis=1)
    # odd weights make the inner sum purely imaginary, so g is real
    if not np.abs(g.imag).max() < 1e-9 * max(1.0, np.abs(g.real).max()):
        raise qcore.InvariantViolation("assembled scalars are not real")
    return g.real


def assemble(config: QlssConfig, grid: QlssGrid) -> np.ndarray:
    """The unnormalized double sum as a matrix (approximates M^{-1})."""
    g = _assembled_scalars(grid, config.eigenvalues)
    v = config.eigenvectors
    return (v * g[None, :]) @ v.conj().T


def inverse_error(config: QlssConfig, grid: QlssGrid) -> float:
    """Relative error ||(sum)|b> - M^{-1}|b>|| / ||M^{-1}|b>||."""
    g = _assembled_scalars(grid, config.eigenvalues)
    target = 1.0 / config.eigenvalues
    bc = config.b_eigen
    num = float(np.linalg.norm((g - target) * bc))
    den = float(np.linalg.norm(target * bc))
    return num / den


def group_operator(config: QlssConfig, grid: QlssGrid, j: int) -> np.ndarray:
    """Subnormalized K_j of outer node y_j = j Dy, group weight q_j = 1/J: the exact inner sum, not the pulse."""
    scalars = k_scalar(grid, config.eigenvalues, j * grid.dy)
    v = config.eigenvectors
    return (v * scalars[None, :]) @ v.conj().T


class ReductionFactors(NamedTuple):
    """The three reduction factors plus the closed-form check value.

    r_rand: fully randomized singleton sampling, identically 1.
    r_int: hybrid grouping by outer node, sum_j q_j <b|K_j^dag K_j|b>, q_j = 1/J.
    r_conv: fully coherent method, equal to the projection probability P.
    r_int_closed_form: pi*sqrt(2)/(4*beta*|c|_1) * <b| |M|^{-1} |b>.
    """

    r_rand: float
    r_int: float
    r_conv: float
    r_int_closed_form: float


def _r_int_direct(config: QlssConfig, grid: QlssGrid) -> float:
    """sum_j q_j <b|K_j^dag K_j|b> without materializing the y-grid.

    |inner(lambda y_j)|^2 expands over weight pairs (k, k'); summing over j
    first turns each pair into a geometric-series kernel evaluated at the
    lag k - k', and the pair sum collapses onto the autocorrelation of the
    weight vector. Cost O(K) per eigenvalue after the direct np.correlate,
    which is O(K^2) once per kappa and dominates near the grid cap (FFT:
    ROADMAP, QLSS trade-off curve).
    """
    w = grid.z_weights
    acorr = np.correlate(w, w, mode="full")  # lags -2K .. 2K
    lags = np.arange(-2 * grid.k_count, 2 * grid.k_count + 1)
    probs = np.abs(config.b_eigen) ** 2
    total = 0.0
    for lam, pr in zip(config.eigenvalues, probs):
        if pr == 0.0:
            continue
        kernel = _geometric_sum(lam * grid.dy * grid.dz * lags, grid.j_count)
        total += pr * float((acorr * kernel.real).sum())
    return total / (grid.j_count * grid.beta**2)


def reduction_factors(config: QlssConfig, grid: QlssGrid) -> ReductionFactors:
    g = _assembled_scalars(grid, config.eigenvalues)
    probs = np.abs(config.b_eigen) ** 2
    p = float(((g / grid.one_norm) ** 2 * probs).sum())
    r_int = _r_int_direct(config, grid)
    inv_abs = float((probs / np.abs(config.eigenvalues)).sum())
    closed = math.pi * math.sqrt(2.0) / (4.0 * grid.beta * grid.one_norm) * inv_abs
    return ReductionFactors(r_rand=1.0, r_int=r_int, r_conv=p, r_int_closed_form=closed)


def ancilla_counts(grid: QlssGrid) -> tuple[int, int]:
    """(hybrid, coherent) ancilla qubit counts: the hybrid run only indexes
    the 2K+1 inner terms, the coherent run indexes the full J*(2K+1) list."""
    inner = 2 * grid.k_count + 1
    hybrid = (inner - 1).bit_length()
    coherent = (grid.j_count * inner - 1).bit_length()
    return hybrid, coherent


class TableRow(NamedTuple):
    kappa: float
    epsilon: float
    j_count: int
    k_count: int
    one_norm: float
    p: float
    r_int: float
    r_int_closed_form: float
    r_rand: float
    anc_hybrid: int
    anc_coherent: int


def random_instance(kappa: float, epsilon: float, dim: int, seed: int, haar_b: bool = False) -> QlssConfig:
    """Rotated diagonal instance with singular values spanning [1/kappa, 1].

    Interior magnitudes are geometrically spaced with random signs.  By
    default b is the eigenvector of the smallest singular value, which
    pins <b| |M|^{-1} |b> = kappa so reduction factors isolate their
    log(kappa/epsilon) scaling; haar_b=True draws b at random instead.
    """
    rng = np.random.default_rng(seed)
    mags = np.geomspace(1.0 / kappa, 1.0, dim)
    signs = rng.choice([-1.0, 1.0], size=dim)
    signs[0] = 1.0
    evals = mags * signs
    gauss = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))[None, :]
    m = (q * evals[None, :]) @ q.T
    if haar_b:
        b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        b = b / np.linalg.norm(b)
    else:
        b = q[:, 0].astype(complex)
    return QlssConfig(m_matrix=m, b=b, kappa=kappa, epsilon=epsilon)


def sweep(kappas, epsilon: float, dim: int, seed: int) -> list[TableRow]:
    """One row per condition number, all on b = smallest-singular-value
    eigenvector so the scaling exponents are not masked by <b||M|^{-1}|b>."""
    rows = []
    for i, kappa in enumerate(kappas):
        config = random_instance(float(kappa), epsilon, dim=dim, seed=seed + i)
        grid = build_grid(config)
        factors = reduction_factors(config, grid)
        anc_h, anc_c = ancilla_counts(grid)
        rows.append(
            TableRow(
                kappa=float(kappa),
                epsilon=epsilon,
                j_count=grid.j_count,
                k_count=grid.k_count,
                one_norm=grid.one_norm,
                p=factors.r_conv,
                r_int=factors.r_int,
                r_int_closed_form=factors.r_int_closed_form,
                r_rand=factors.r_rand,
                anc_hybrid=anc_h,
                anc_coherent=anc_c,
            )
        )
    return rows


def fit_exponents(rows: list[TableRow]) -> tuple[float, float]:
    """Least-squares slopes of log r_int and log p against log log(kappa/eps).

    Expected -1/2 and -1 when b sits on the smallest singular value.
    """
    if len(rows) < 2:
        raise ValueError("need at least two rows to fit exponents")
    ell = np.log([math.log(r.kappa / r.epsilon) for r in rows])
    slope_int = float(np.polyfit(ell, np.log([r.r_int for r in rows]), 1)[0])
    slope_conv = float(np.polyfit(ell, np.log([r.p for r in rows]), 1)[0])
    return slope_int, slope_conv


def write_table_csv(path, rows: list[TableRow], seed: int) -> None:
    header = "kappa,epsilon,J,K,one_norm,P,R_int,R_int_closed_form,R_rand,anc_hybrid,anc_coherent"
    qcore.save_csv(path, header, rows, seed)
