"""Dense test oracles: multi-round composition and the Steane projectors.

Chaining rounds is the paper's generalisation of the reduction factor to
several detection rounds. No subcommand runs it: the QED sweep reads its two
factors from the stabilizer trace table, and these helpers check that
table and the GSP composite factor against the generic machinery. The dense
128 x 128 stabilizer elements and projectors check the closed-form code
basis and the trace table the same way.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from hybridlcu import hybrid, lcu, partition, qcore, qed


def sector_elements(pauli: str):
    """The X-type or Z-type stabilizer elements, one 128 x 128 matrix at a time."""
    eye = np.eye(qed.DIM, dtype=complex)
    for e in qed._ELEMENT_MASKS:
        yield eye[qed._flip(e)] if pauli == "X" else np.diag(qed._signs(e).astype(complex))


@functools.lru_cache(maxsize=1)
def steane_projectors() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P_X, P_Z, P_C = P_Z P_X): sector group averages and the code projector.

    Cached; the returned matrices are read-only.
    """
    px = sum(sector_elements("X")) / len(qed._ELEMENT_MASKS)
    pz = sum(sector_elements("Z")) / len(qed._ELEMENT_MASKS)
    out = (px, pz, pz @ px)
    for a in out:
        a.setflags(write=False)
    return out


class DegenerateRoundError(ValueError):
    """A multi-round composition hit an intermediate state of vanishing trace."""


def compose_rounds(channels: list[hybrid.HybridChannel], state) -> tuple[list[np.ndarray], float]:
    """Multi-round composition: intermediate states and the R product.

    Round ``mu`` maps ``rho`` to the normalized mixture
    ``sum_k q_k K_k rho K_k^dag / tr[...]``; the generalized reduction
    factor is the product of per-round factors
    ``sum_k q_k tr[K_k^dag K_k rho_mu]``.
    """
    rho = qcore.density(state)
    intermediates = []
    r_total = 1.0
    for ch in channels:
        sigma = np.zeros_like(rho)
        for g in ch.group_ops:
            sigma += g.weight * (g.operator @ rho @ g.operator.conj().T)
        t = float(np.trace(sigma).real)
        if t < 1e-14:
            raise DegenerateRoundError(f"intermediate trace {t:.3e} vanishes")
        r_total *= t
        rho = sigma / t
        intermediates.append(rho)
    return intermediates, r_total


def expectation_rounds(channels: list[hybrid.HybridChannel], state, obs) -> float:
    """``tr[O K^(r) ... K^(1) rho K^(1)dag ... K^(r)dag]`` for chained maps."""
    rho = qcore.density(state)
    o = qcore.as_observable(obs)
    for ch in channels:
        k = lcu.assemble_klcu(ch.decomposition)
        rho = k @ rho @ k.conj().T
    return float(np.trace(o.matrix @ rho).real)


@dataclass(frozen=True)
class QedHybridReport:
    """Cross-check of the two-round wiring against the direct projector traces."""

    r_composed: float
    r_direct: float
    p_composed: float
    p_direct: float


def hybrid_qed_channel(rho, z_round_identity_only: bool = False) -> QedHybridReport:
    """Route the Steane detection through the generic two-round hybrid machinery.

    Round 1 is the coherent X-sector detection (all eight elements in one
    group, K = P_X); round 2 samples the Z-sector elements as singletons
    (q_S = 1/8, each element unitary).  The composed reduction factor must
    equal tr[P_X rho] and the composed identity expectation tr[P_C rho].
    With z_round_identity_only the second round is the trivial group {1},
    which collapses the construction to plain coherent P_X detection.
    """
    rho = qcore.as_matrix(rho)
    weights = [1.0 / len(qed._ELEMENT_MASKS)] * len(qed._ELEMENT_MASKS)
    dec_x = lcu.LcuDecomposition.from_terms(weights, sector_elements("X"))
    ch_x = hybrid.HybridChannel(dec_x, partition.Partition.coherent(dec_x.m))
    if z_round_identity_only:
        dec_z = lcu.LcuDecomposition.from_terms([1.0], [np.eye(qed.DIM)])
    else:
        dec_z = lcu.LcuDecomposition.from_terms(weights, sector_elements("Z"))
    ch_z = hybrid.HybridChannel(dec_z, partition.Partition.singletons(dec_z.m))
    _, r_composed = compose_rounds([ch_x, ch_z], rho)
    p_composed = expectation_rounds([ch_x, ch_z], rho, qcore.Observable(np.eye(qed.DIM)))
    metrics = qed.qed_metrics(rho)
    p_direct = metrics.r_factor if z_round_identity_only else metrics.p
    return QedHybridReport(
        r_composed=r_composed,
        r_direct=metrics.r_factor,
        p_composed=p_composed,
        p_direct=p_direct,
    )
