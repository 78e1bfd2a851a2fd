"""The interpolating channel between coherent and randomized LCU.

Given a decomposition and a partition of its term indices, each group
``S_k`` gets a block encoding ``L_k`` of its normalized operator ``K_k``;
cross-group interference is recovered virtually by a controlled pair of
encodings and an X-basis measurement on a one-qubit register B. A single
shot samples a pair ``(k, k')`` with probability ``q_k q_k'``, runs the
pair circuit, and reports

    g = (-1)^b * [z == 0] * o_j

whose mean over shots is ``tr[O K_lcu rho K_lcu^dag]`` and whose second
moment is ``sum_k q_k tr[O^2 K_k rho K_k^dag]``.

Two independent evaluation routes are kept deliberately separate: the
analytic backend sums the term Gram matrix ``partition.gram``, the circuit
backend multiplies out the explicit block-encoding unitaries. They must
agree to 1e-9. Only the circuit backend builds pair-circuit states.

The exhaustive outcome tables come from the first block column
``L_k|0>_A`` of each encoding, the only part that acts on the circuit's
input. They drive :class:`Sampler`, whose ``sample_shots`` is the only
shot path: each shot reads its two uniforms from its own Philox substream
(``prng``), so the shots depend only on (seed, stream, shot index).
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from . import lcu, partition as partition_mod, prng, qcore
from .qcore import TOL

__all__ = [
    "HybridChannel",
    "DegenerateRoundError",
    "build_block_encoding",
    "build_controlled_pair",
    "exact_expectation",
    "outcome_distribution",
    "Sampler",
    "SampleArrays",
    "compose_rounds",
    "expectation_rounds",
    "write_shot_csv",
]


class DegenerateRoundError(ValueError):
    """A multi-round composition hit an intermediate state of vanishing trace."""


def _householder_prepare(column: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix whose first column is the given unit vector."""
    dim = column.size
    v = column.astype(float).copy()
    v[0] -= 1.0
    nrm2 = float(v @ v)
    if nrm2 < 1e-28:
        return np.eye(dim)
    return np.eye(dim) - (2.0 / nrm2) * np.outer(v, v)


def build_block_encoding(group: partition_mod.GroupOperator, dec: lcu.LcuDecomposition) -> np.ndarray:
    """PREPARE/SELECT block encoding ``L_k`` of one group operator.

    Returns the unitary on (ancilla x system) whose zero-ancilla block is
    ``K_k``; its ancilla width ``a = ceil(log2 |S_k|)`` follows from its
    shape. PREPARE may be completed from its first column ``sqrt(p_i/q_k)``
    by any unitary; a real Householder reflection ``P`` is used here, so
    block ``(a, b)`` of ``L_k`` is ``sum_s P[s,a] P[s,b] U_s``, with
    ``U_s = 1`` on the padding slots. A singleton group needs no ancilla at
    all: ``L_k = U_i``.
    """
    members = list(group.members)
    d = dec.dimension
    if len(members) == 1:
        return dec.unitaries[members[0]]
    na = 2 ** math.ceil(math.log2(len(members)))
    column = np.zeros(na)
    column[: len(members)] = np.sqrt(dec.probs[members] / group.weight)
    prepare = _householder_prepare(column)
    units = np.concatenate([dec.unitaries[members], np.broadcast_to(np.eye(d), (na - len(members), d, d))])
    l_mat = np.einsum("sa,sb,sij->aibj", prepare, prepare, units).reshape(na * d, na * d)
    if np.linalg.norm(l_mat[:d, :d] - group.operator) > TOL.unitarity:
        raise qcore.InvariantViolation("block-encoding invariant violated")
    return l_mat


def build_controlled_pair(l_k: np.ndarray, l_kprime: np.ndarray) -> np.ndarray:
    """``|0><0|_B (x) L_k' + |1><1|_B (x) L_k`` on (B x ancilla x system).

    The primed encoding sits on the zero branch. Both inputs must already
    be padded to the common ancilla width.
    """
    if l_k.shape != l_kprime.shape:
        raise ValueError("encodings must be padded to a common shape first")
    n = l_k.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = l_kprime
    out[n:, n:] = l_k
    return out


class HybridChannel:
    """Decomposition + partition with group operators and block encodings."""

    def __init__(self, dec: lcu.LcuDecomposition, part: partition_mod.Partition):
        self.decomposition = dec
        self.partition = part
        self.group_ops = partition_mod.group_operators(dec, part)
        self.weights = np.array([g.weight for g in self.group_ops])
        self.weights.setflags(write=False)
        self.G = len(self.group_ops)
        self.a_star = part.a_star
        self.dimension = dec.dimension
        pair_sum = float((self.weights[:, None] * self.weights[None, :]).sum())
        if abs(pair_sum - 1.0) > TOL.prob_norm:
            raise qcore.InvariantViolation(f"pair weights sum to {pair_sum}, expected 1")

    @functools.cached_property
    def padded_encodings(self) -> list[np.ndarray]:
        """Block encodings with identity ancillas tensored on the left up to width a*."""
        width = 2**self.a_star * self.dimension
        encs = [build_block_encoding(g, self.decomposition) for g in self.group_ops]
        return [np.kron(np.eye(width // len(e)), e) for e in encs]


def exact_expectation(channel: HybridChannel, state, obs, backend: str = "analytic") -> float:
    """``tr[O Lambda(rho)]`` through either backend.

    analytic: ``sum_ij p_i p_j Re tr[O U_i rho U_j^dag]``, the sum of the
    Gram matrix on weight O. circuit: Born-rule value of the pair circuits
    with explicit block-encoding matrices.
    """
    rho = qcore.density(state)
    o = qcore.as_observable(obs)
    if backend == "analytic":
        return float(partition_mod.gram(channel.decomposition, rho, o.matrix).sum())
    if backend == "circuit":
        return _circuit_expectation(channel, rho, o)
    raise ValueError(f"unknown backend {backend!r}")


def _on_zero_ancilla(channel: HybridChannel, op: np.ndarray) -> np.ndarray:
    """``|0><0|_A (x) op`` on (ancilla x system) at the common width a*."""
    na = 2**channel.a_star
    proj0 = np.zeros((na, na))
    proj0[0, 0] = 1.0
    return np.kron(proj0, op)


def _pair_state(channel: HybridChannel, rho: np.ndarray, k: int, kprime: int) -> np.ndarray:
    """Density after the (k, k') pair circuit, before any measurement.

    The circuit backend's state; the outcome tables never form it. For
    k = k' the B register never entangles, so it is dropped and the
    state lives on (ancilla x system); otherwise B starts in |+> and the
    state lives on (B x ancilla x system).
    """
    init_as = _on_zero_ancilla(channel, rho)
    padded = channel.padded_encodings
    if k == kprime:
        l_mat = padded[k]
        return l_mat @ init_as @ l_mat.conj().T
    l_c = build_controlled_pair(padded[k], padded[kprime])
    plus = np.full((2, 2), 0.5)
    return l_c @ np.kron(plus, init_as) @ l_c.conj().T


def _circuit_expectation(channel: HybridChannel, rho: np.ndarray, o: qcore.Observable) -> float:
    meas_as = _on_zero_ancilla(channel, o.matrix)
    meas_pair = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), meas_as)
    total = 0.0
    for k, wk in enumerate(channel.weights):
        for kp, wkp in enumerate(channel.weights):
            meas = meas_as if k == kp else meas_pair
            # tr[M S] as the flat sum of M * S^T
            total += wk * wkp * (meas * _pair_state(channel, rho, k, kp).T).sum().real
    return float(total)


def outcome_distribution(channel: HybridChannel, state, obs, k: int, kprime: int) -> np.ndarray:
    """Born probabilities over (z, b, j) for the fixed pair circuit.

    Returned array has shape ``(2, 2, d)`` indexed by the ancilla-projector
    bit z (0 = all-zero outcome), the X-basis bit b and the observable
    eigenindex j. For k = k' the B register is skipped and the whole b = 1
    plane is zero.

    Only the first block column of each encoding acts on |0>_A (x) rho; its
    ancilla-a block B_{k,a} gives the amplitude (B_{k',a} + (-1)^b B_{k,a})/2
    after the X-basis measurement of B (B_{k,a} alone for k = k'), and
    z = 0 is the a = 0 block.
    """
    rho = qcore.density(state)
    o = qcore.as_observable(obs)
    na = 2**channel.a_star
    d = channel.dimension
    padded = channel.padded_encodings
    # first block columns split into ancilla blocks (a, d, d), in O's eigenbasis
    rot = o.eigenvectors.conj().T
    col_k = rot @ padded[k][:, :d].reshape(na, d, d)
    if k == kprime:
        amps = col_k[None]
    else:
        col_kp = rot @ padded[kprime][:, :d].reshape(na, d, d)
        amps = np.stack([col_kp + col_k, col_kp - col_k]) / 2.0
    # <j|A rho A^dag|j> for each amplitude A, indexed (b, a, j)
    diag = ((amps @ rho) * amps.conj()).sum(axis=-1).real
    probs = np.zeros((2, 2, d))
    probs[0, : len(amps)] = diag[:, 0]
    probs[1, : len(amps)] = diag[:, 1:].sum(axis=1)
    np.clip(probs, 0.0, None, out=probs)
    return probs


class SampleArrays:
    """Column arrays of sampled shots plus the provenance needed for CSV."""

    def __init__(self, shot, k, kprime, z, b, j, g, seed: int, stream: int):
        self.shot = shot
        self.k = k
        self.kprime = kprime
        self.z = z
        self.b = b
        self.j = j
        self.g = g
        self.seed = seed
        self.stream = stream
        self.n = len(g)


class Sampler:
    """Precomputed outcome tables for fast, reproducible shot sampling."""

    def __init__(self, channel: HybridChannel, state, obs):
        self.channel = channel
        rho = qcore.density(state)
        o = qcore.as_observable(obs)
        g_count = channel.G
        self.pair_cum = np.cumsum((channel.weights[:, None] * channel.weights[None, :]).reshape(-1))
        self.pair_cum /= self.pair_cum[-1]
        d = channel.dimension
        tables = np.empty((g_count * g_count, 2 * 2 * d))
        for k in range(g_count):
            for kp in range(g_count):
                tables[k * g_count + kp] = outcome_distribution(channel, rho, o, k, kp).reshape(-1)
        sums = tables.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-10):
            raise qcore.InvariantViolation("outcome table not normalized")
        self.table_cum = np.cumsum(tables, axis=1)
        self.table_cum /= self.table_cum[:, -1:]
        # g value for flattened outcome (z, b, j)
        zz, bb, jj = np.unravel_index(np.arange(2 * 2 * d), (2, 2, d))
        self.out_z = zz
        self.out_b = bb
        self.out_j = jj
        self.g_flat = np.where(zz == 0, 1.0, 0.0) * np.where(bb == 0, 1.0, -1.0) * o.eigenvalues[jj]
        self.exact_mean = exact_expectation(channel, rho, o, backend="analytic")
        self.exact_second = partition_mod.reduction_factor_obs(channel.decomposition, channel.partition, rho, o)

    def _decode(self, pair_idx: np.ndarray, out_idx: np.ndarray):
        g_count = self.channel.G
        return (
            pair_idx // g_count,
            pair_idx % g_count,
            self.out_z[out_idx],
            self.out_b[out_idx],
            self.out_j[out_idx],
            self.g_flat[out_idx],
        )

    def sample_shots(self, seed: int, count: int, start: int = 0, stream: int = 0) -> SampleArrays:
        """Shots ``start .. start+count`` from per-shot Philox substreams.

        The result depends only on (seed, stream, shot index), so any
        split of the shot range into batches reassembles to the identical
        arrays.
        """
        shots = np.arange(start, start + count, dtype=np.uint64)
        u = prng.uniforms(seed, shots, 2, stream=stream)
        n_pairs = len(self.pair_cum)
        pair = np.searchsorted(self.pair_cum, u[:, 0], side="right")
        np.clip(pair, 0, n_pairs - 1, out=pair)
        # one outcome-table lookup per pair keeps memory O(N); folding the
        # pair into u against a single offset table would round away low
        # bits of u and change outcomes
        order = np.argsort(pair)
        bounds = np.searchsorted(pair, np.arange(n_pairs + 1), sorter=order)
        u_out = u[order, 1]
        out = np.empty(count, dtype=np.intp)
        for p in range(n_pairs):
            lo, hi = bounds[p], bounds[p + 1]
            out[order[lo:hi]] = np.searchsorted(self.table_cum[p], u_out[lo:hi], side="right")
        np.clip(out, 0, self.table_cum.shape[1] - 1, out=out)
        k, kp, z, b, j, g = self._decode(pair, out)
        return SampleArrays(shots.astype(np.int64), k, kp, z, b, j, g, seed=seed, stream=stream)


def compose_rounds(channels: list[HybridChannel], state) -> tuple[list[np.ndarray], float]:
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


def expectation_rounds(channels: list[HybridChannel], state, obs) -> float:
    """``tr[O K^(r) ... K^(1) rho K^(1)dag ... K^(r)dag]`` for chained maps."""
    rho = qcore.density(state)
    o = qcore.as_observable(obs)
    for ch in channels:
        k = lcu.assemble_klcu(ch.decomposition)
        rho = k @ rho @ k.conj().T
    return float(np.trace(o.matrix @ rho).real)


# rows formatted and written per chunk by write_shot_csv; bounds its memory
_CSV_CHUNK_ROWS = 65536


def write_shot_csv(path, batch: SampleArrays, version: str) -> None:
    """One row per shot, ``g`` printed with ``.17g``; a seed comment ends the file.

    Apart from ``shot``, a row takes few distinct values (at most G^2 * 4d
    from a sampler), so each distinct tail is formatted once and rows are
    joined in chunks of ``_CSV_CHUNK_ROWS``.
    """
    ints = [np.asarray(col, dtype=np.int64) for col in (batch.k, batch.kprime, batch.z, batch.b, batch.j)]
    g = np.asarray(batch.g, dtype=np.float64)
    # g is keyed on its bits, which keep -0 apart from 0 as .17g does
    g_code = np.unique(g.view(np.int64), return_inverse=True)[1]
    key = np.zeros(batch.n, dtype=np.int64)
    radix = 1
    for col in ints + [g_code]:
        # initial=0 keeps an empty batch valid; 0 inside the range is harmless
        low = int(col.min(initial=0))
        span = int(col.max(initial=0)) - low + 1
        radix *= span
        if radix >= 2**63:
            raise ValueError("shot columns take too many distinct values to index")
        key = key * span + (col - low)
    _, first, key = np.unique(key, return_index=True, return_inverse=True)
    rows = zip(*(col[first].tolist() for col in ints), g[first].tolist())
    tails = np.array([f",{k},{kp},{z},{b},{j},{gv:.17g}\n" for k, kp, z, b, j, gv in rows], dtype=object)
    with open(path, "w") as fh:
        fh.write("shot,k,kprime,z,b,j,g\n")
        for lo in range(0, batch.n, _CSV_CHUNK_ROWS):
            hi = lo + _CSV_CHUNK_ROWS
            shots = map(str, np.asarray(batch.shot[lo:hi], dtype=np.int64).tolist())
            fh.write("".join(map(operator.add, shots, tails[key[lo:hi]].tolist())))
        fh.write(f"# seed={batch.seed} version={version}\n")
