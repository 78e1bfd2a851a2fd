"""Counter-based randomness: Philox4x64-10 substreams.

Shot sampling must produce byte-identical output no matter how the shots
are split into batches, so every shot owns a private substream addressed
purely by ``(master seed, stream id, shot index)``:

* the Philox key is derived from the master seed and the stream id via
  splitmix64,
* the 256-bit Philox counter holds ``(shot index, 0, 0, 0)``.

A shot owns one counter block: four 64-bit words, i.e. at most four
doubles. A batch of shots ``[a, b)`` simply evaluates the same pure
function on its slice. The blocks come from numpy's C ``Philox`` bit
generator (Salmon et al., SC'11), which emits consecutive counters, so one
generator covers a whole contiguous shot range. ``Generator.random`` turns
each 64-bit word into the double ``(word >> 11) * 2**-53`` in C,
bit-identical to applying that formula to the raw words.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random import Generator, Philox

__all__ = ["derive_key", "uniforms"]

_WORD_MAX = 2**64 - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_key(seed: int, stream: int = 0) -> tuple[int, int]:
    """Philox key for a logical stream of a master seed; both lie in [0, 2**64)."""
    seed, stream = operator.index(seed), operator.index(stream)
    # masking a value outside the word would give it another value's key
    if not (0 <= seed <= _WORD_MAX and 0 <= stream <= _WORD_MAX):
        raise ValueError(f"seed {seed} and stream {stream} must both lie in [0, 2**64)")
    k0 = _splitmix64(seed)
    k1 = _splitmix64(k0 ^ stream)
    return k0, k1


def _counter_before(start: int) -> np.ndarray:
    # numpy increments the 256-bit counter before emitting each block, so
    # the generator starts one step below (start, 0, 0, 0)
    below = (start - 1) % 2**256
    return np.array([(below >> (64 * i)) & _WORD_MAX for i in range(4)], dtype=np.uint64)


def uniforms(
    seed: int, start: int, count: int, n: int, stream: int = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """Uniform doubles in [0, 1) for shots ``start .. start+count``, shape ``(count, n)``.

    Shot i reads the first ``n`` (1 to 4) doubles of its one block, at
    counter ``(i, 0, 0, 0)``. The shots must lie below 2**64; the result
    for shot i is the same whichever range it is computed in. ``out``, a
    C-contiguous float64 array of shape ``(count, 4)``, receives the
    blocks if given, so a caller drawing range after range can reuse one;
    the result is a view of it.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"n = {n}: a shot's one Philox block holds 1 to 4 doubles")
    # a numpy start would wrap start + count silently at 2**64; a float is refused
    start = operator.index(start)
    if start < 0:
        raise ValueError(f"shot index {start} is negative")
    # the counter would carry into the next word and reuse a substream; an
    # empty range is held to the start that one shot would need
    end = start + max(count, 1)
    if end > 2**64:
        raise ValueError(f"shots {start} .. {end - 1} pass the 64-bit counter range")
    if out is None:
        out = np.empty((count, 4))
    elif out.shape != (count, 4):
        raise ValueError(f"out has shape {out.shape}; {count} shots fill ({count}, 4)")
    key = np.array(derive_key(seed, stream), dtype=np.uint64)
    Generator(Philox(key=key, counter=_counter_before(start))).random(out=out)
    return out[:, :n]
