"""Counter-based randomness: Philox4x64-10 substreams.

Shot sampling must produce byte-identical output no matter how the shots
are split into batches, so every shot owns a private substream addressed
purely by ``(master seed, stream id, shot index)``:

* the Philox key is derived from the master seed and the stream id via
  splitmix64,
* the 256-bit Philox counter holds ``(shot index, block index, 0, 0)``.

Each counter block yields four 64-bit words, i.e. four doubles; a batch
of shots ``[a, b)`` simply evaluates the same pure function on its
slice. The blocks come from numpy's C ``Philox`` bit generator (Salmon et
al., SC'11), which emits consecutive counters, so one generator per block
index covers a whole contiguous shot range.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random import Philox

__all__ = ["derive_key", "uniforms"]

_WORD_MAX = 2**64 - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_key(seed: int, stream: int = 0) -> tuple[int, int]:
    """Philox key for a logical stream of a master seed."""
    k0 = _splitmix64(seed & 0xFFFFFFFFFFFFFFFF)
    k1 = _splitmix64(k0 ^ (stream & 0xFFFFFFFFFFFFFFFF))
    return k0, k1


def _counter_before(start: int, block: int) -> np.ndarray:
    # numpy increments the 256-bit counter before emitting each block, so
    # the generator starts one step below (start, block, 0, 0)
    below = (start + (block << 64) - 1) % 2**256
    return np.array([(below >> (64 * i)) & _WORD_MAX for i in range(4)], dtype=np.uint64)


def uniforms(seed: int, start: int, count: int, n: int, stream: int = 0) -> np.ndarray:
    """Uniform doubles in [0, 1) for shots ``start .. start+count``, shape ``(count, n)``.

    The shots must lie below 2**64; the result for shot i is the same
    whichever range it is computed in.
    """
    # a numpy start would wrap start + count silently at 2**64; a float is refused
    start = operator.index(start)
    out = np.empty((count, n), dtype=np.float64)
    if count == 0:
        return out
    if start < 0:
        raise ValueError(f"shot index {start} is negative")
    if start + count > 2**64:
        # the counter would carry into the block word and reuse a substream
        raise ValueError(f"shots {start} .. {start + count - 1} pass the 64-bit counter range")
    key = np.array(derive_key(seed, stream), dtype=np.uint64)
    for block in range((n + 3) // 4):
        gen = Philox(key=key, counter=_counter_before(start, block))
        words = gen.random_raw(4 * count).reshape(count, 4)
        lo = 4 * block
        width = min(4, n - lo)
        np.multiply(words[:, :width] >> np.uint64(11), 2.0**-53, out=out[:, lo : lo + width])
    return out
