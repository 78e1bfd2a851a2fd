import numpy as np
import pytest
from conftest import PAULI_Z, random_hermitian

from hybridlcu import lcu, partition, qcore
from hybridlcu.qcore import TOL


def test_eigh_identity():
    w, v = qcore.eigh(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v @ v.conj().T, np.eye(2))


def test_eigh_pauli_z():
    w, v = qcore.eigh(PAULI_Z)
    assert np.allclose(w, [-1.0, 1.0])
    # eigenvector of -1 is |1>, of +1 is |0> (up to phase)
    assert abs(abs(v[1, 0]) - 1.0) < 1e-12
    assert abs(abs(v[0, 1]) - 1.0) < 1e-12


def test_eigh_reconstruction_residual():
    rng = np.random.default_rng(7)
    h = random_hermitian(8, rng)
    w, v = qcore.eigh(h)
    assert np.linalg.norm((v * w) @ v.conj().T - h) <= 1e-9
    assert np.all(np.diff(w) >= 0)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError, match="symmetry violation"):
        qcore.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="2-d array"):
        qcore.eigh(np.ones(3))
    for bad in (np.nan, np.inf, 1j * np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            qcore.eigh(np.array([[0.0, bad], [bad, 0.0]]))


def test_density_refuses_non_finite_state_vector():
    for bad in (np.nan, np.inf, 1j * np.inf):
        with pytest.raises(ValueError, match="state vector contains non-finite entries"):
            qcore.density(np.array([bad, 1.0]))
    # a NaN amplitude is refused before it reaches a reduction factor
    dec = lcu.LcuDecomposition([1.0, 1.0], [np.eye(2), PAULI_Z])
    with pytest.raises(ValueError, match="non-finite"):
        partition.reduction_factor(dec, partition.Partition.coherent(2), np.array([np.nan, 1.0]))


def test_expm_zero_time_is_identity():
    rng = np.random.default_rng(3)
    h = random_hermitian(4, rng)
    assert np.allclose(qcore.expm_i_hermitian(h, 0.0), np.eye(4), atol=1e-14)


def test_expm_pauli_z_pi():
    u = qcore.expm_i_hermitian(PAULI_Z, np.pi)
    assert np.allclose(u, -np.eye(2), atol=1e-12)


def test_expm_unitary_and_group_property():
    rng = np.random.default_rng(11)
    h = random_hermitian(6, rng)
    u = qcore.expm_i_hermitian(h, 0.7)
    assert np.linalg.norm(u.conj().T @ u - np.eye(6)) <= TOL.unitarity
    assert qcore.is_unitary(u) and not qcore.is_unitary(u[:, :5])
    lhs = qcore.expm_i_hermitian(h, 0.3 + 0.4)
    rhs = qcore.expm_i_hermitian(h, 0.3) @ qcore.expm_i_hermitian(h, 0.4)
    assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_observable_caches_spectrum():
    obs = qcore.Observable(PAULI_Z)
    assert np.allclose(obs.eigenvalues, [-1.0, 1.0])
    assert obs.spectral_norm == 1.0
    with pytest.raises(ValueError):
        qcore.Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_save_csv_cell_format(tmp_path):
    # floats (numpy float64 too) print at 17 digits, keeping -0.0; other cells print by str
    path = tmp_path / "t.csv"
    rows = [(0.1, np.float64(1 / 3), -0.0, 7, np.int64(-2), '"a,b"'), (1e-300, 2.0, 0.0, True, 0, "x")]
    qcore.save_csv(path, "a,b,c,d,e,f", rows, seed=2**64 - 1)
    assert path.read_text().splitlines() == [
        "a,b,c,d,e,f",
        '0.10000000000000001,0.33333333333333331,-0,7,-2,"a,b"',
        "1e-300,2,0,True,0,x",
        "# seed=18446744073709551615 version=0.1.0",
    ]


def test_save_csv_bytes_match_per_cell_formatting(tmp_path):
    # one %-template per tuple of cell types writes the bytes of formatting
    # each cell on its own: float subclasses at .17g, everything else by str
    rows = [
        (-0.0, float("inf"), float("-inf"), np.float64(-1e-320), np.int64(2**63 - 1), '"1,2|3"'),
        (np.float32(0.1), True, np.bool_(False), np.uint8(255), 2**70, 5e-324),
        [1.5, 2, "x", None, float("nan"), -7],
        (-0.0, float("inf"), float("-inf"), np.float64(2.5), np.int64(-3), '"4"'),
    ]
    path = tmp_path / "t.csv"
    qcore.save_csv(path, "a,b,c,d,e,f", iter(rows), seed=0)
    cells = [",".join(f"{c:.17g}" if isinstance(c, float) else str(c) for c in row) for row in rows]
    assert path.read_bytes() == "\n".join(["a,b,c,d,e,f", *cells, "# seed=0 version=0.1.0\n"]).encode()
    assert path.read_bytes().splitlines()[1:3] == [
        b'-0,inf,-inf,-9.9998886718268301e-321,9223372036854775807,"1,2|3"',
        b"0.1,True,False,255,1180591620717411303424,4.9406564584124654e-324",
    ]


def test_non_square_matrix_is_refused():
    for call in (qcore.as_matrix, qcore.density, qcore.Observable):
        with pytest.raises(ValueError, match=r"square 2-d array, got shape \(2, 3\)"):
            call(np.ones((2, 3)))
