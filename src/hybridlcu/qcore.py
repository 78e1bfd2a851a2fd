"""Dense complex linear algebra for small Hilbert spaces.

Everything downstream (decompositions, channels, the application drivers)
works with plain ``numpy`` arrays; this module owns validation, the shared
tolerance constants, spectral matrix functions and the CSV table format.

Matrix functions are always computed through the spectral decomposition,
never by series truncation: at the dimensions we care about (the CLI caps
state vectors at MAX_PURE_DIM = 2**10, and the largest density matrix is
the 7-qubit code's, dimension 2**7) exactness wins over scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TOL",
    "Tolerances",
    "InvariantViolation",
    "MAX_PURE_DIM",
    "as_matrix",
    "is_unitary",
    "require_hermitian",
    "eigh",
    "expm_i_hermitian",
    "Observable",
    "as_observable",
    "density",
    "save_csv",
]


@dataclass(frozen=True)
class Tolerances:
    """Named tolerances of the unitarity, Hermiticity, normalization and cross-backend checks.

    Not every tolerance is here: a check local to one function keeps its
    literal, such as the Sampler's 1e-10 outcome-table gate and the 1e-9
    normalization and spectrum checks of ``gsp`` and ``qlss``.
    """

    unitarity: float = 1e-10
    hermiticity: float = 1e-10
    prob_norm: float = 1e-12
    cross_backend: float = 1e-9


TOL = Tolerances()


class InvariantViolation(RuntimeError):
    """A numerical cross-check failed at its pinned tolerance."""


# Largest state dimension a CLI subcommand accepts.
MAX_PURE_DIM = 2**10


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
            # the input passed require_hermitian, so this is eigh failing, not bad input
            raise InvariantViolation(f"spectral reconstruction residual {resid:.3e}")


def as_observable(obs) -> Observable:
    """Coerce an observable (Observable or Hermitian matrix) to an :class:`Observable`."""
    return obs if isinstance(obs, Observable) else Observable(obs)


def density(state) -> np.ndarray:
    """Coerce a state (vector or matrix) to a density matrix."""
    arr = np.asarray(state, dtype=complex)
    if arr.ndim == 1:
        return np.outer(arr, arr.conj())
    return as_matrix(arr)


## --- CSV tables ---------------------------------------------------------
## Header line, one line per row, then a "# seed=<seed> version=<version>"
## comment. The shot CSV (hybrid.write_shot_csv) writes the same format
## from outcome codes: one formatted tail per outcome-table row, joined
## after each shot index's cached digit pieces, one str.join per chunk.
## The partition table (cli._write_partition_csv) writes it from
## partition.scan's rows, whose cell types are fixed: one '%' row template
## and one str.join per slice of 1024 rows.


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
