"""Shared helpers for the test suite: random instances and small oracles."""

from __future__ import annotations

import functools
import os
import pathlib

import numpy as np

import hybridlcu
from hybridlcu import cli, lcu, qed

# child interpreters started by the tests import the same package as the
# suite, also when it runs from a checkout without an install
_SRC = str(pathlib.Path(hybridlcu.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


def run_defaults(subcommand: str, **overrides) -> dict:
    """The subcommand's own config keys at their ``cli._PARAMS`` defaults, by
    the name after the dot, as keyword arguments; ``overrides`` replace or add."""
    prefix = subcommand + "."
    kwargs = {key.removeprefix(prefix): param.default for key, param in cli._PARAMS.items() if key.startswith(prefix)}
    return {**kwargs, **overrides}


def qed_sweep_at_defaults(seed: int, **overrides):
    """``qed.fig_sweep`` on the qed.* keys at their defaults, with the noise
    grid built from them as the ``qed`` subcommand builds it."""
    keys = run_defaults("qed", **overrides)
    pz_grid = np.geomspace(keys["pz_min"], keys["pz_max"], keys["pz_points"])
    return qed.fig_sweep(keys["r_values"], pz_grid, keys["codewords"], seed)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_lcu(m: int, dim: int, rng: np.random.Generator) -> lcu.LcuDecomposition:
    coeffs = rng.uniform(0.2, 1.0, size=m)
    return lcu.LcuDecomposition.from_terms(coeffs, [haar_unitary(dim, rng) for _ in range(m)])


@functools.lru_cache(maxsize=None)
def bell_number(m: int) -> int:
    # triangle recurrence, independent of the enumeration under test
    row = [1]
    for _ in range(m - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1] if m >= 1 else 1


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
