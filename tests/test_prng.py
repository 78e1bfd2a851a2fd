import numpy as np
import pytest

from hybridlcu import prng

# reference values from the pure-Python Philox4x64-10 round loop that
# preceded the numpy-backed generator, as float.hex per shot row
GOLDEN_START0 = [
    ["0x1.d2f383b5eae38p-2", "0x1.02a6e851ceaa4p-3", "0x1.81305e48f7bd8p-4", "0x1.50d4c6de4a640p-6"],
    ["0x1.644ebbd5c8e00p-2", "0x1.ef6e65cf921acp-3", "0x1.414e068a9b1bcp-1", "0x1.6a869585244d0p-3"],
    ["0x1.3caf8189ab774p-1", "0x1.fa6756642aff4p-3", "0x1.735d9ccefeb5ap-2", "0x1.17325e7905fccp-2"],
]
GOLDEN_CASES = [
    # (seed, first shot, n, stream, rows)
    (2024, 0, 2, 0, [row[:2] for row in GOLDEN_START0]),
    (2024, 0, 4, 0, GOLDEN_START0),
    (
        7, 12345, 3, 0,
        [
            ["0x1.788163ad0c536p-1", "0x1.39d8e20934f80p-1", "0x1.793fb1e0ddecap-1"],
            ["0x1.dc7491218a65ep-1", "0x1.479bf69308317p-1", "0x1.5905b7755bb34p-2"],
        ],
    ),
    (
        7, 2**40, 4, 0,
        [
            ["0x1.dfe3df55c473cp-3", "0x1.99ebc43305fa1p-1", "0x1.bbbd39fd280e2p-1", "0x1.c7d88c3e4eae8p-1"],
            ["0x1.d687e3e771ca2p-1", "0x1.e52465df1fcc0p-6", "0x1.e29487f8d0013p-1", "0x1.cdf75eb768000p-1"],
        ],
    ),
    (
        99, 5, 4, 11,
        [
            ["0x1.561a49d51a150p-4", "0x1.47df86712a380p-7", "0x1.c222419901b38p-2", "0x1.1bbd8fe6e0a82p-2"],
            ["0x1.22f258bd69a33p-1", "0x1.15ffc649f4000p-7", "0x1.70ecc18c7cea7p-1", "0x1.ccfe63a88cfacp-3"],
            ["0x1.321d334916e74p-1", "0x1.5f8c06ef72b5cp-2", "0x1.b5b0a3d5baadap-1", "0x1.c318a69b00e57p-1"],
        ],
    ),
]


@pytest.mark.parametrize("seed,start,n,stream,rows", GOLDEN_CASES)
def test_uniforms_golden_vectors(seed, start, n, stream, rows):
    # start 0 wraps the initial counter through all four words of the
    # counter; 2**40 exercises the high counter bits
    expected = np.array([[float.fromhex(x) for x in row] for row in rows])
    assert np.array_equal(prng.uniforms(seed, start, len(rows), n, stream=stream), expected)


def test_uniforms_refuses_more_than_one_block_per_shot():
    # a shot owns the one block at counter (shot, 0, 0, 0): 1 to 4 doubles
    for n in (0, 5):
        with pytest.raises(ValueError, match="1 to 4"):
            prng.uniforms(1, 0, 3, n)
    assert prng.uniforms(1, 0, 3, 1).shape == (3, 1)


def test_uniforms_rejects_negative_shots():
    # an empty range is checked as strictly as a one-shot range from the same start
    for count in (7, 0):
        with pytest.raises(ValueError, match="negative"):
            prng.uniforms(1, -3, count, 2)
    for count in (1, 0):
        with pytest.raises(ValueError, match="64-bit"):
            prng.uniforms(1, 2**70, count, 2)
        with pytest.raises(ValueError, match="64-bit"):
            prng.uniforms(1, 2**64, count, 2)
    assert prng.uniforms(1, 2**64 - 1, 0, 2).shape == (0, 2)
    with pytest.raises(TypeError):
        prng.uniforms(1, 1.0, 7, 2)


def test_seeds_and_streams_outside_the_word_are_refused():
    # masking to 64 bits once gave 2**64 + 1 the shots of seed 1, and -1 those of 2**64 - 1
    for bad in (-1, 2**64, 2**64 + 1):
        with pytest.raises(ValueError, match=f"seed {bad} and stream 0 "):
            prng.uniforms(bad, 0, 5, 2)
        with pytest.raises(ValueError, match=f"seed 1 and stream {bad} "):
            prng.uniforms(1, 0, 5, 2, stream=bad)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            prng.uniforms(bad, 0, 0, 2)
    for seed, stream in ((0, 0), (2**64 - 1, 2**64 - 1)):
        assert prng.uniforms(seed, 0, 2, 2, stream=stream).shape == (2, 2)
    # numpy integers key as the Python integers of the same value
    assert prng.derive_key(np.uint64(2**64 - 1), np.uint64(7)) == prng.derive_key(2**64 - 1, 7)
    with pytest.raises(TypeError):
        prng.derive_key(1.0)


def test_uniforms_rejects_counter_overflow():
    # shot 2**64 would carry into the second word of the counter; a uint64
    # start must not wrap the end of its range back to 0 either
    for start in (2**64 - 1, np.uint64(2**64 - 1)):
        with pytest.raises(ValueError, match="64-bit"):
            prng.uniforms(1, start, 2, 2)
    last = prng.uniforms(1, 2**64 - 2, 2, 2)
    assert last.shape == (2, 2)


def test_uniforms_shape_and_range():
    u = prng.uniforms(7, 0, 1000, 3)
    assert u.shape == (1000, 3)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    # distinct shots give distinct values
    assert len(np.unique(u[:, 0])) == 1000


def test_uniforms_into_a_callers_blocks():
    # blocks drawn into the caller's array equal fresh ones and the result is
    # a view of it; an array of another shape is refused before any draw
    out = np.empty((5, 4))
    u = prng.uniforms(3, 10, 5, 2, stream=1, out=out)
    assert np.array_equal(u, prng.uniforms(3, 10, 5, 2, stream=1))
    assert np.shares_memory(u, out)
    for shape in ((4, 4), (5, 2)):
        with pytest.raises(ValueError, match="shape"):
            prng.uniforms(3, 10, 5, 2, out=np.empty(shape))


def test_uniforms_chunk_independent():
    full = prng.uniforms(31337, 0, 200, 2, stream=5)
    part1 = prng.uniforms(31337, 0, 77, 2, stream=5)
    part2 = prng.uniforms(31337, 77, 123, 2, stream=5)
    assert np.array_equal(np.vstack([part1, part2]), full)


def test_streams_and_seeds_differ():
    a = prng.uniforms(1, 0, 100, 1, stream=0)
    b = prng.uniforms(1, 0, 100, 1, stream=1)
    c = prng.uniforms(2, 0, 100, 1, stream=0)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniforms_statistics():
    u = prng.uniforms(1234, 0, 20000, 2).reshape(-1)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_derive_key_stable():
    assert prng.derive_key(0) == prng.derive_key(0)
    assert prng.derive_key(0, 1) != prng.derive_key(0, 0)
