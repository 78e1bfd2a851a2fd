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
analytic backend sums the term Gram matrix ``partition.gram``, the
circuit backend multiplies out the encodings. They must agree to 1e-9.
Every pair circuit starts from ``|+>_B |0>_A (x) rho``, so only the
first block column ``L_k|0>_A`` of an encoding acts, and it is all that
is built (``first_block_column``), one per group in
``HybridChannel.first_columns``. The circuit backend reads their A = 0
blocks, all that ``X_B (x) |0><0|_A (x) O`` measures, for every pair,
k = k' included; the exhaustive outcome tables read the whole columns.

The outcome tables drive :class:`Sampler`, whose ``sample_shots`` is the
only shot path: each shot reads its two uniforms from its own Philox
substream (``prng``), so the shots depend only on (seed, stream, shot
index). A shot is one outcome code, its row in the sampler's one table
of G^2 * 4d outcomes, and ``sample_shots`` returns the codes;
``table[codes]`` gives their fields. Its pair and its row are each read
from a guide table, one entry per equal bucket of the uniform's range
(Chen & Asau 1974); a shot whose bucket holds a threshold falls back to
the exact lexicographic complex search over ``pair + 1j * cumulative
probability``, so the codes are those of that search for any number of
pairs. A run's statistics need only the count of shots per outcome code.
Because any split of the shot range reassembles to the same codes, a
long run is drawn in chunks of ``_CSV_CHUNK_ROWS`` that
``write_shot_csv`` numbers from shot 0 and streams to disk one at a
time. ``demo`` tallies its identity stream on a second thread meanwhile
(``--workers`` changes nothing), so two chunks are live at once, one per
stream; the identity stream draws each of its chunks in the same
``Sampler.shot_buffers``, so memory stays bounded in the shot count
whatever the scheduling. The shot CSV formats one tail per table row and
joins each chunk from cached pieces: one string per thousand shot
indices, the last three digits from a fixed table, and the tails.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable

import numpy as np

from . import lcu, partition as partition_mod, prng, qcore
from .qcore import TOL

__all__ = [
    "HybridChannel",
    "exact_expectation",
    "first_block_column",
    "outcome_distribution",
    "Sampler",
    "write_shot_csv",
]


def _householder_prepare(column: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix whose first column is the given unit vector."""
    dim = column.size
    v = column.astype(float).copy()
    v[0] -= 1.0
    nrm2 = float(v @ v)
    if nrm2 < 1e-28:
        return np.eye(dim)
    return np.eye(dim) - (2.0 / nrm2) * np.outer(v, v)


def first_block_column(group: partition_mod.GroupOperator, dec: lcu.LcuDecomposition) -> np.ndarray:
    """First block column ``L_k|0>_A`` of the PREPARE/SELECT encoding of one group operator.

    Returns ``(2**a, d, d)`` with ``a = ceil(log2 |S_k|)``; block 0 is
    ``K_k``. PREPARE may be completed from its first column
    ``sqrt(p_s/q_k)`` by any unitary; a real Householder reflection ``P``
    is used here, so block a is ``sum_{s in S_k} P[s,a] sqrt(p_s/q_k) U_s``
    (SELECT's padding slots have weight 0). A singleton group takes the
    same route with one slot and ``P = [[1]]``, so its column is ``U_i``
    and is checked against ``K_k`` like any other group's.
    """
    members = list(group.members)
    n = len(members)
    column = np.zeros(1 << (n - 1).bit_length())
    column[:n] = np.sqrt(dec.probs[members] / group.weight)
    prepare = _householder_prepare(column)
    col = np.tensordot(prepare[:n].T * column[:n], dec.unitaries[members], axes=1)
    if np.linalg.norm(col[0] - group.operator) > TOL.unitarity:
        raise qcore.InvariantViolation("block-encoding invariant violated")
    return col


class HybridChannel:
    """Decomposition + partition with group operators and each encoding's first block column."""

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
    def first_columns(self) -> np.ndarray:
        """Read-only ``(G, 2**a*, d, d)``: ancilla block a of ``L_k|0>_A``, zero past group k's width."""
        d = self.dimension
        cols = np.zeros((self.G, 2**self.a_star, d, d), dtype=complex)
        for k, g in enumerate(self.group_ops):
            col = first_block_column(g, self.decomposition)
            cols[k, : len(col)] = col
        cols.setflags(write=False)
        return cols


def exact_expectation(channel: HybridChannel, state, obs, backend: str = "analytic") -> float:
    """``tr[O Lambda(rho)]`` through either backend.

    analytic: ``sum_ij p_i p_j Re tr[O U_i rho U_j^dag]``, the sum of the
    Gram matrix on weight O. circuit: ``sum_kk' q_k q_k' tr[M C rho C^dag]``
    with ``M = X_B (x) |0><0|_A (x) O`` and ``C`` the pair circuit on
    ``|+>_B |0>_A``: M reads the A = 0 blocks ``B_k`` of the first block
    columns, so every pair, k = k' included, adds
    ``tr[(B_k'^dag O B_k + B_k^dag O B_k') rho] / 2``.
    """
    rho = qcore.density(state)
    o = qcore.as_observable(obs)
    partition_mod.check_dimensions(channel.decomposition, rho, o.matrix)
    if backend == "analytic":
        return float(partition_mod.gram(channel.decomposition, rho, o.matrix).sum())
    if backend == "circuit":
        return _circuit_expectation(channel, rho, o)
    raise ValueError(f"unknown backend {backend!r}")


def _circuit_expectation(channel: HybridChannel, rho: np.ndarray, o: qcore.Observable) -> float:
    # on |+>_B |0>_A (x) rho the controlled pair outputs
    # (|0>_B L_k'|0>_A + |1>_B L_k|0>_A)/sqrt(2), and M = X_B (x) |0><0|_A (x) O
    # pairs the A = 0 blocks B_k of the two B halves
    blocks = channel.first_columns[:, 0]
    total = 0.0
    for k, wk in enumerate(channel.weights):
        for kp, wkp in enumerate(channel.weights):
            b_k, b_kp = blocks[k], blocks[kp]
            effect = (b_kp.conj().T @ o.matrix @ b_k + b_k.conj().T @ o.matrix @ b_kp) / 2.0
            # tr[effect rho] as the flat sum of effect * rho^T
            total += wk * wkp * (effect * rho.T).sum().real
    return float(total)


def outcome_distribution(channel: HybridChannel, state, obs, k: int, kprime: int) -> np.ndarray:
    """Born probabilities over (z, b, j) for the fixed pair circuit.

    Returned array has shape ``(2, 2, d)`` indexed by the ancilla-projector
    bit z (0 = all-zero outcome), the X-basis bit b and the observable
    eigenindex j.

    It reads the channel's first block columns, the only part of each
    encoding that acts on |0>_A (x) rho: the ancilla-a block B_{k,a} gives
    the amplitude (B_{k',a} + (-1)^b B_{k,a})/2 after the X-basis
    measurement of B, and z = 0 is the a = 0 block. For k = k' that is
    exactly B_{k,a} for b = 0 and exactly 0 for b = 1. ``k`` and ``kprime``
    must lie in range(G), and the state and observable must have the
    decomposition's dimension.
    """
    rho = qcore.density(state)
    o = qcore.as_observable(obs)
    partition_mod.check_dimensions(channel.decomposition, rho, o.matrix)
    if not (0 <= k < channel.G and 0 <= kprime < channel.G):
        raise ValueError(f"pair (k, k') = ({k}, {kprime}) is outside range({channel.G})")
    # first block columns in O's eigenbasis, ancilla blocks (a, d, d)
    rot = o.eigenvectors.conj().T
    col_k = rot @ channel.first_columns[k]
    col_kp = rot @ channel.first_columns[kprime]
    amps = np.stack([col_kp + col_k, col_kp - col_k]) / 2.0
    # <j|A rho A^dag|j> for each amplitude A, indexed (b, a, j)
    diag = ((amps @ rho) * amps.conj()).sum(axis=-1).real
    probs = np.stack([diag[:, 0], diag[:, 1:].sum(axis=1)])
    np.clip(probs, 0.0, None, out=probs)
    return probs


# Guide tables (Chen & Asau 1974; Devroye 1986, sec. III.2.4) index the two
# inverse-CDF searches of a shot by bucket. A cumulative row of width w gets
# the power of two at or above 64 * w buckets, so about one bucket in 64
# holds a threshold and sends its shots on to the exact search. A guide
# keeps at most _GUIDE_ENTRIES entries (fewer buckets per row when rows are
# many, at least one), so a sampler's two int64 guides take at most 1 MiB
# while it has at most _GUIDE_ENTRIES pairs.
_GUIDE_ENTRIES = 2**16


def _guide_buckets(rows: int, width: int) -> int:
    """Buckets per row: 64 per threshold, rounded up to a power of two, within the entry cap."""
    want = 1 << (64 * width - 1).bit_length()
    room = 1 << (max(_GUIDE_ENTRIES // rows, 1).bit_length() - 1)
    return min(want, room)


def _guide_table(keys: np.ndarray, buckets: int, rows: int = 1) -> np.ndarray:
    """The search result of every bucket of every row, or -1 where a bucket holds a threshold.

    ``keys`` are sorted complex keys ``row + 1j*cum`` over ``rows`` rows.
    Entry ``r * buckets + i`` is ``searchsorted(keys, r + 1j*u, "right")``
    for every u in ``[i, i + 1) / buckets``: the result at the low edge,
    when no key lies between the edges. Otherwise it is -1 and a shot in
    that bucket must run the search.
    """
    edges = np.arange(buckets + 1) / buckets
    row = np.arange(rows)[:, None]
    low = np.searchsorted(keys, (row + 1j * edges[:-1]).ravel(), side="right")
    high = np.searchsorted(keys, (row + 1j * edges[1:]).ravel(), side="left")
    return np.where(low == high, low, -1)


class Sampler:
    """One outcome table for fast, reproducible shot sampling.

    Row ``pair * 4d + (z, b, j)`` of ``table`` is outcome (z, b, j) of pair
    ``pair = k * G + k'``; a shot is drawn as the index of its row.
    ``pair_guide`` and ``table_guide`` are the guide tables of the pair
    search and of each pair's outcome search (see ``_guide_table``).
    """

    def __init__(self, channel: HybridChannel, state, obs):
        self.channel = channel
        rho = qcore.density(state)
        o = qcore.as_observable(obs)
        partition_mod.check_dimensions(channel.decomposition, rho, o.matrix)
        g_count = channel.G
        n_pairs = g_count * g_count
        self.pair_cum = np.cumsum((channel.weights[:, None] * channel.weights[None, :]).reshape(-1))
        self.pair_cum /= self.pair_cum[-1]
        d = channel.dimension
        n_out = 2 * 2 * d
        tables = np.empty((n_pairs, n_out))
        for k in range(g_count):
            for kp in range(g_count):
                tables[k * g_count + kp] = outcome_distribution(channel, rho, o, k, kp).reshape(-1)
        sums = tables.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-10):
            raise qcore.InvariantViolation("outcome table not normalized")
        self.table_cum = np.cumsum(tables, axis=1)
        self.table_cum /= self.table_cum[:, -1:]
        # non-decreasing in numpy's lexicographic complex order: pair first, then table_cum
        self.flat_cum = (np.arange(n_pairs)[:, None] + 1j * self.table_cum).ravel()
        self.pair_guide = _guide_table(1j * self.pair_cum, _guide_buckets(1, n_pairs))
        self.table_guide = _guide_table(self.flat_cum, _guide_buckets(n_pairs, n_out), rows=n_pairs)
        k, kp, z, b, j = np.unravel_index(np.arange(n_pairs * n_out), (g_count, g_count, 2, 2, d))
        g = np.where(z == 0, 1.0, 0.0) * np.where(b == 0, 1.0, -1.0) * o.eigenvalues[j]
        self.table = np.rec.fromarrays([k, kp, z, b, j, g], names="k,kprime,z,b,j,g")
        self.table.setflags(write=False)
        self.exact_mean = exact_expectation(channel, rho, o, backend="analytic")
        self.exact_second = partition_mod.reduction_factor_obs(channel.decomposition, channel.partition, rho, o)

    @staticmethod
    def shot_buffers(rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays ``sample_shots`` draws up to ``rows`` shots in: Philox blocks and two index arrays, 48 B a shot."""
        return np.empty((rows, 4)), np.empty(rows, np.intp), np.empty(rows, np.intp)

    def sample_shots(
        self, seed: int, count: int, start: int = 0, stream: int = 0, buffers: tuple | None = None
    ) -> np.ndarray:
        """Outcome codes of shots ``start .. start+count`` from per-shot Philox substreams.

        Entry i is the row of shot ``start + i`` in ``table``, so
        ``table[codes]`` holds the shots' fields and ``np.bincount(codes)``
        tallies them per row. The codes depend only on (seed, stream, shot
        index), so any split of the shot range into batches reassembles to
        the identical array. A shot's code is
        ``searchsorted(flat_cum, pair + 1j*u1)``, with
        ``pair = searchsorted(pair_cum, u0)``: real parts compare pair
        indices exactly and imaginary parts compare ``u1`` itself against
        ``table_cum[pair]``, for any number of pairs. Each search is first
        read from a guide table at the bucket ``floor(u * buckets)`` of its
        uniform; only a shot whose bucket holds a threshold runs the search.

        ``buffers``, from ``shot_buffers`` for at least ``count`` shots, are
        the arrays the shots are drawn in; without them the call draws in a
        fresh ``shot_buffers(count)``. A caller that passes the same buffers
        chunk after chunk allocates nothing per chunk but the few searched
        shots, and gets codes that are a view of the buffers, overwritten by
        the next call.
        """
        if count < 0:
            raise ValueError(f"count = {count} is negative")
        blocks, index, code = (array[:count] for array in buffers or self.shot_buffers(count))
        u = prng.uniforms(seed, start, count, 2, stream=stream, out=blocks)
        u0, u1 = u[:, 0], u[:, 1]
        # pair_cum and every table_cum row end at exactly 1.0 (x / x) and u < 1,
        # so no search runs past the last pair or its own pair's rows, and no
        # bucket past its guide's end. The buckets are powers of two, so
        # u * buckets is exact and floors by the cast to intp. Each step writes
        # into index or code, so the lookups allocate nothing per shot; "clip"
        # keeps np.take from copying its output (every index is in range).
        np.multiply(u0, self.pair_guide.size, out=index, casting="unsafe")
        pair = np.take(self.pair_guide, index, out=code, mode="clip")
        miss = np.flatnonzero(pair < 0)
        pair[miss] = np.searchsorted(self.pair_cum, u0[miss], side="right")
        buckets = self.table_guide.size // self.pair_cum.size
        # index becomes pair * buckets + the bucket of u1, so index // buckets
        # is the shot's pair once code is overwritten
        np.multiply(u1, buckets, out=index, casting="unsafe")
        index += np.multiply(pair, buckets, out=pair)
        np.take(self.table_guide, index, out=code, mode="clip")
        miss = np.flatnonzero(code < 0)
        code[miss] = np.searchsorted(self.flat_cum, index[miss] // buckets + 1j * u1[miss], side="right")
        return code


# rows formatted and written per chunk by write_shot_csv, and shots drawn per
# chunk by each of the demo's two shot streams; bounds the memory of both. The
# demo tallies its identity stream on a second thread (--workers changes
# nothing), so two chunks are live at once, one per stream; the identity
# stream's are drawn in one set of shot_buffers, 48 B per shot, kept for the
# run. A chunk's working set is about 100 B per shot under tracemalloc: the
# 32 B Philox slab and two 8 B index arrays of sample_shots, the bincount
# tally, and the writer's piece list and joined text. At 16384 shots that is
# 1.66 MB, inside a 2 MB per-core L2 cache; at 65536 it is 6.4 MB, which is
# not. A sweep of demo at m = 6, d = 8 and 10**6 shots, with both streams on
# one thread (12 rounds of fresh interpreters on a 2-vCPU Xeon VM, medians),
# read, for chunks of 65536 / 32768 / 16384 / 8192 / 4096, a peak RSS of
# 49.0 / 45.9 / 42.6 / 41.2 / 40.9 MB and 0.211 / 0.190 / 0.174 / 0.190 /
# 0.193 s in cli.main, with identical output bytes: 16384 keeps most of the
# memory saving and is the fastest.
_CSV_CHUNK_ROWS = 16384

# the last three digits of every shot index from 1000 on
_LOW_DIGITS = [f"{i:03d}" for i in range(1000)]


def _shot_digits(lo: int, n: int) -> tuple[list[str], list[str]]:
    """``str(i)`` for shots ``lo .. lo+n`` as two piece lists, high parts and last three digits.

    The high part is one ``str`` per thousand shots, repeated; the low
    digits are a cyclic slice of ``_LOW_DIGITS``. A shot below 1000 is
    its own high piece with an empty low piece, so it prints unpadded.
    """
    small = max(min(1000 - lo, n), 0)
    highs = [str(i) for i in range(lo, lo + small)]
    lows = [""] * small
    lo, end = lo + small, lo + n
    for thousand in range(lo // 1000, -(-end // 1000)):
        highs += [str(thousand)] * (min(1000 * thousand + 1000, end) - max(1000 * thousand, lo))
    offset = lo % 1000
    lows += (_LOW_DIGITS * ((offset + end - lo) // 1000 + 1))[offset : offset + end - lo]
    return highs, lows


def write_shot_csv(path, table, seed: int, chunks: Iterable[np.ndarray]) -> None:
    """One row per shot, ``g`` printed with ``.17g``, framed by ``qcore.frame_table``.

    ``chunks`` are the outcome codes (rows of ``table``, a sampler's
    outcome table) of shots 0, 1, 2, ... in order, consumed one at a time,
    so a generator that draws them keeps only one chunk in memory. Apart
    from ``shot``, a row is a row of ``table``, so each table row's tail
    is formatted once. Every ``_CSV_CHUNK_ROWS`` shots are one
    ``"".join`` over three pieces per row: the index's high part and its
    last three digits (``_shot_digits``, from Python ints, so exact past
    2**63), and the tail its code names.
    """
    rows = table[["k", "kprime", "z", "b", "j", "g"]].tolist()
    tails = np.array([f",{k},{kp},{z},{b},{j},{g:.17g}\n" for k, kp, z, b, j, g in rows], dtype=object)

    def text():
        start = 0
        for codes in chunks:
            for lo in range(0, len(codes), _CSV_CHUNK_ROWS):
                part = codes[lo : lo + _CSV_CHUNK_ROWS]
                pieces = [""] * (3 * len(part))
                pieces[::3], pieces[1::3] = _shot_digits(start + lo, len(part))
                pieces[2::3] = tails[part].tolist()
                yield "".join(pieces)
            start += len(codes)

    qcore.frame_table(path, "shot,k,kprime,z,b,j,g", text(), seed)
