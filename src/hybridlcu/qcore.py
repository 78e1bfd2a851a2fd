"""Dense complex linear algebra for small Hilbert spaces.

Everything downstream (decompositions, channels, the application drivers)
works with plain ``numpy`` arrays; this module owns validation, the shared
tolerance constants, spectral matrix functions and the CSV table format.

Matrix functions are always computed through the spectral decomposition,
never by series truncation: at the dimensions we care about (at most 2**10
for vectors, 2**7 for density matrices) exactness wins over scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TOL",
    "Tolerances",
    "InvariantViolation",
    "MAX_PURE_DIM",
    "MAX_MIXED_DIM",
    "as_matrix",
    "is_unitary",
    "require_hermitian",
    "eigh",
    "expm_i_hermitian",
    "PureState",
    "MixedState",
    "Observable",
    "as_observable",
    "density",
    "save_csv",
]


@dataclass(frozen=True)
class Tolerances:
    """Central record of every numerical tolerance used by the package."""

    unitarity: float = 1e-10
    hermiticity: float = 1e-10
    prob_norm: float = 1e-12
    cross_backend: float = 1e-9
    psd: float = 1e-10


TOL = Tolerances()


class InvariantViolation(RuntimeError):
    """A numerical cross-check failed at its pinned tolerance."""


# Dimension caps enforced at construction; the largest experiment in the
# suite is the 7-qubit code (dimension 128).
MAX_PURE_DIM = 2**10
MAX_MIXED_DIM = 2**7


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a square complex matrix and validate finiteness."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix contains non-finite entries")
    return m


def is_unitary(m: np.ndarray, tol: float = TOL.unitarity) -> bool:
    m = np.asarray(m)
    if m.shape[0] != m.shape[1]:
        return False
    eye = np.eye(m.shape[0])
    return bool(np.linalg.norm(m.conj().T @ m - eye) <= tol)


def require_hermitian(m: np.ndarray, tol: float = TOL.hermiticity, what: str = "matrix") -> np.ndarray:
    m = as_matrix(m)
    viol = float(np.linalg.norm(m - m.conj().T))
    if viol > tol:
        raise ValueError(f"{what} is not Hermitian: symmetry violation {viol:.3e} > {tol:.1e}")
    return m


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and eigenvector
    columns ``v`` so that ``h = v @ diag(w) @ v.conj().T``.
    """
    h = require_hermitian(h)
    w, v = np.linalg.eigh(h)
    return w, v


def expm_i_hermitian(h, t: float) -> np.ndarray:
    """Unitary ``exp(-i*h*t)`` for Hermitian ``h``, via the spectrum."""
    w, v = eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class PureState:
    """A state vector; normalized unless explicitly flagged otherwise."""

    def __init__(self, amplitudes, normalized: bool = True):
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if vec.size > MAX_PURE_DIM:
            raise ValueError(f"dimension {vec.size} exceeds pure-state cap {MAX_PURE_DIM}")
        if not np.all(np.isfinite(vec.real)) or not np.all(np.isfinite(vec.imag)):
            raise ValueError("amplitudes contain non-finite entries")
        nrm2 = float(np.vdot(vec, vec).real)
        if normalized and abs(nrm2 - 1.0) > TOL.prob_norm:
            raise ValueError(f"squared norm {nrm2} deviates from 1 beyond {TOL.prob_norm:.1e}")
        self.vector = _freeze(vec)
        self.dimension = vec.size
        self.normalized = normalized

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())


class MixedState:
    """A density matrix: Hermitian, unit trace (when normalized), PSD."""

    def __init__(self, matrix, normalized: bool = True):
        rho = require_hermitian(matrix, what="density matrix")
        if rho.shape[0] > MAX_MIXED_DIM:
            raise ValueError(f"dimension {rho.shape[0]} exceeds mixed-state cap {MAX_MIXED_DIM}")
        tr = float(np.trace(rho).real)
        if normalized and abs(tr - 1.0) > TOL.hermiticity:
            raise ValueError(f"trace {tr} deviates from 1 beyond {TOL.hermiticity:.1e}")
        wmin = float(np.linalg.eigvalsh(rho).min())
        if wmin < -TOL.psd:
            raise ValueError(f"density matrix has negative eigenvalue {wmin:.3e}")
        self.matrix = _freeze(rho)
        self.dimension = rho.shape[0]
        self.normalized = normalized


class Observable:
    """A Hermitian observable with a cached spectral decomposition."""

    def __init__(self, matrix):
        mat = require_hermitian(matrix, what="observable")
        w, v = np.linalg.eigh(mat)
        self.matrix = _freeze(mat)
        self.dimension = mat.shape[0]
        self.eigenvalues = _freeze(w)
        self.eigenvectors = _freeze(v)
        self.spectral_norm = float(np.abs(w).max()) if w.size else 0.0
        resid = float(np.linalg.norm((v * w) @ v.conj().T - mat))
        if resid > TOL.cross_backend:
            raise ValueError(f"spectral reconstruction residual {resid:.3e}")

    @classmethod
    def identity(cls, dim: int) -> "Observable":
        return cls(np.eye(dim))


def as_observable(obs) -> Observable:
    """Coerce an observable (Observable or Hermitian matrix) to an :class:`Observable`."""
    return obs if isinstance(obs, Observable) else Observable(obs)


def density(state) -> np.ndarray:
    """Coerce a state (PureState, MixedState, vector or matrix) to a density matrix."""
    if isinstance(state, PureState):
        return state.density_matrix()
    if isinstance(state, MixedState):
        return np.asarray(state.matrix)
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return np.outer(arr, arr.conj())
    return as_matrix(arr)


## --- CSV tables ---------------------------------------------------------
## Header line, one line per row, then a "# seed=<seed> version=<version>"
## comment. The shot CSV (hybrid.write_shot_csv) writes the same format
## from outcome codes: one formatted tail per outcome-table row, placed
## after each shot index by one %-template per chunk.


def save_csv(path, header: str, rows, seed: int, version: str) -> None:
    """Write ``rows`` under ``header``: ``float`` cells as ``.17g``, every other cell by ``str``.

    Each row is formatted by one ``%`` template, built once per tuple of cell types.
    """
    templates: dict[tuple[type, ...], str] = {}
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            template = templates.get(kinds)
            if template is None:
                template = templates[kinds] = ",".join("%.17g" if issubclass(t, float) else "%s" for t in kinds) + "\n"
            fh.write(template % row)
        fh.write(f"# seed={seed} version={version}\n")
