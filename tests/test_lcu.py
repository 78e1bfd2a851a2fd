import subprocess
import sys

import numpy as np
import pytest
from conftest import PAULI_X, PAULI_Z, PLUS, haar_unitary, random_density, random_lcu

from hybridlcu import lcu
from hybridlcu.hybrid import HybridChannel, Sampler, exact_expectation
from hybridlcu.partition import Partition, reduction_factor, reduction_factor_obs

RHO_PLUS = np.outer(PLUS, PLUS)


def test_normalize_single_term():
    dec = lcu.LcuDecomposition([1.0], [np.eye(2)])
    assert dec.one_norm == 1.0
    assert np.allclose(dec.probs, [1.0])


def test_normalize_two_equal_terms():
    dec = lcu.LcuDecomposition.from_terms([1.0, 1.0], [np.eye(2), PAULI_Z])
    assert dec.one_norm == 2.0
    assert np.allclose(dec.probs, [0.5, 0.5])


def test_normalize_weighted():
    dec = lcu.LcuDecomposition.from_terms([3.0, 1.0], [np.eye(2), PAULI_Z])
    assert dec.one_norm == 4.0
    assert np.allclose(dec.probs, [0.75, 0.25])


def test_normalize_rejects_all_zero():
    with pytest.raises(ValueError, match="degenerate"):
        with pytest.warns(UserWarning):
            lcu.LcuDecomposition([0.0], [np.eye(2)])


def test_zero_terms_dropped_with_warning():
    with pytest.warns(UserWarning, match="dropped 1"):
        dec = lcu.LcuDecomposition([1.0, 0.0], [np.eye(2), PAULI_Z])
    assert dec.m == 1
    assert dec.dropped == 1


def test_complex_coefficient_phase_folded():
    dec = lcu.LcuDecomposition([1j], [np.eye(2)])
    assert dec.coefficients[0] == 1.0
    assert np.allclose(dec.unitaries[0], 1j * np.eye(2))
    dec = lcu.LcuDecomposition([-2.0, 1.0], [PAULI_Z, np.eye(2)])
    assert np.array_equal(dec.coefficients, [2.0, 1.0])
    assert np.array_equal(dec.unitaries[0], -PAULI_Z)
    assert dec.one_norm == 3.0


def test_mixed_term_dimensions_rejected():
    with pytest.raises(ValueError, match="terms do not share one dimension"):
        lcu.LcuDecomposition([1.0, 1.0], [np.eye(2), np.eye(3)])
    # a dropped zero-coefficient term does not count towards the dimension
    with pytest.warns(UserWarning, match="dropped 1"):
        dec = lcu.LcuDecomposition([1.0, 0.0], [np.eye(2), np.eye(3)])
    assert dec.unitaries.shape == (1, 2, 2)


def test_term_stack_shapes_and_read_only():
    rng = np.random.default_rng(7)
    us = [haar_unitary(3, rng) for _ in range(4)]
    dec = lcu.LcuDecomposition.from_terms([0.5, 1.0, 1.5, 2.0], us)
    assert (dec.m, dec.dimension) == (4, 3)
    assert dec.unitaries.shape == (4, 3, 3)
    assert np.array_equal(dec.unitaries, np.stack(us))
    assert np.array_equal(dec.coefficients, [0.5, 1.0, 1.5, 2.0])
    assert np.array_equal(dec.probs, dec.coefficients / 5.0)
    for name in ("unitaries", "coefficients", "probs"):
        arr = getattr(dec, name)
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_non_unitary_rejected():
    with pytest.raises(ValueError, match="unitary"):
        lcu.LcuDecomposition([1.0], [np.array([[1.0, 0.0], [0.0, 2.0]])])
    # a scaled identity would give R(singletons) = 2.5, above the bound R <= 1
    with pytest.raises(ValueError, match="not unitary"):
        lcu.LcuDecomposition([0.5, 0.5], [np.eye(2), 2.0 * np.eye(2)])


def test_unequal_lengths_rejected():
    # a length mismatch is an error, not a decomposition of the shorter prefix
    with pytest.raises(ValueError, match="shorter"):
        lcu.LcuDecomposition.from_terms([1.0, 1.0, 1.0], [np.eye(2), PAULI_Z])
    with pytest.raises(ValueError, match="longer"):
        lcu.LcuDecomposition([1.0], [np.eye(2), PAULI_Z])


def test_non_finite_coefficients_rejected_by_index():
    # bad input (ValueError), not a failed probability-sum invariant
    for c in (np.nan, np.inf):
        with pytest.raises(ValueError, match="term 1 has a non-finite coefficient"):
            lcu.LcuDecomposition.from_terms([1.0, c], [PAULI_X, PAULI_Z])
    # reported before the unitarity check that nan > 0 would skip
    with pytest.raises(ValueError, match="term 0 has a non-finite coefficient"):
        lcu.LcuDecomposition.from_terms([np.nan], [np.ones((2, 2))])


def test_assemble_klcu_projector():
    dec = lcu.LcuDecomposition.from_terms([1.0, 1.0], [np.eye(2), PAULI_Z])
    assert np.allclose(lcu.assemble_klcu(dec), np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_assemble_klcu_cancellation():
    dec = lcu.LcuDecomposition.from_terms([1.0, 1.0], [np.eye(2), -np.eye(2)])
    assert np.allclose(lcu.assemble_klcu(dec), np.zeros((2, 2)))


def coherent_routes(dec, rho):
    """P of the coherent partition by its three routes: Gram matrix, analytic and circuit backends."""
    channel = HybridChannel(dec, Partition.coherent(dec.m))
    eye = np.eye(dec.dimension)
    return (
        reduction_factor(dec, Partition.coherent(dec.m), rho),
        exact_expectation(channel, rho, eye),
        exact_expectation(channel, rho, eye, backend="circuit"),
    )


def sandwich(dec, rho, obs=None):
    """tr[O K_lcu rho K_lcu^dag] from the assembled sum; O = 1 when omitted."""
    k = lcu.assemble_klcu(dec)
    out = k @ rho @ k.conj().T
    return float(np.trace(out if obs is None else obs @ out).real)


def test_success_probability_cases():
    # one unitary passes with certainty, I + Z and X + Z keep half of |+>, and I - I cancels
    single = lcu.LcuDecomposition([2.0], [haar_unitary(3, np.random.default_rng(0))])
    rho = random_density(3, np.random.default_rng(1))
    cases = [(single, rho, 1.0)]
    for us, p in (([np.eye(2), PAULI_Z], 0.5), ([PAULI_X, PAULI_Z], 0.5), ([np.eye(2), -np.eye(2)], 0.0)):
        cases.append((lcu.LcuDecomposition.from_terms([1.0, 1.0], us), RHO_PLUS, p))
    for dec, state, want in cases:
        for got in (*coherent_routes(dec, state), sandwich(dec, state)):
            assert abs(got - want) <= 1e-12


def test_success_probability_matches_pure_state_norm():
    rng = np.random.default_rng(17)
    dec = random_lcu(3, 4, rng)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    want = np.linalg.norm(lcu.assemble_klcu(dec) @ psi) ** 2
    for got in coherent_routes(dec, np.outer(psi, psi.conj())):
        assert abs(got - want) <= 1e-12
    assert abs(reduction_factor(dec, Partition.coherent(3), psi) - want) <= 1e-12


def test_coherent_map_trace_and_psd():
    # the sandwich K_lcu rho K_lcu^dag is positive and its trace is the P of every route
    rng = np.random.default_rng(23)
    for seed in range(5):
        dec = random_lcu(4, 3, np.random.default_rng(seed))
        rho = random_density(3, rng)
        k = lcu.assemble_klcu(dec)
        out = k @ rho @ k.conj().T
        for got in coherent_routes(dec, rho):
            assert abs(np.trace(out).real - got) <= 1e-12
        assert np.linalg.eigvalsh((out + out.conj().T) / 2).min() >= -1e-10


def test_expectation_unnormalized_oracle_values():
    # |c|_1^2 tr[O K_lcu rho K_lcu^dag] = tr[O K rho K^dag] on the coherent channel
    dec = lcu.LcuDecomposition.from_terms([1.0, 1.0], [np.eye(2), PAULI_Z])
    single = lcu.LcuDecomposition([1.0], [haar_unitary(2, np.random.default_rng(2))])
    rho = random_density(2, np.random.default_rng(3))
    cases = ((dec, RHO_PLUS, PAULI_Z, 2.0), (dec, RHO_PLUS, PAULI_X, 0.0), (single, rho, np.eye(2), 1.0))
    for d, state, obs, want in cases:
        channel = HybridChannel(d, Partition.coherent(d.m))
        for backend in ("analytic", "circuit"):
            assert abs(d.one_norm**2 * exact_expectation(channel, state, obs, backend=backend) - want) <= 1e-12
        assert abs(d.one_norm**2 * sandwich(d, state, obs) - want) <= 1e-12


def test_expectation_identity_equals_scaled_success():
    # <1> = |c|_1^2 P: the circuit backend against the Gram route and the sandwich
    rng = np.random.default_rng(29)
    dec = random_lcu(5, 4, rng)
    rho = random_density(4, rng)
    channel = HybridChannel(dec, Partition.coherent(5))
    lhs = dec.one_norm**2 * exact_expectation(channel, rho, np.eye(4), backend="circuit")
    for p in (reduction_factor(dec, Partition.coherent(5), rho), sandwich(dec, rho)):
        rhs = dec.one_norm**2 * p
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_expectation_dimension_mismatch():
    # one ValueError naming the decomposition's, the state's and the observable's dimension
    dec = lcu.LcuDecomposition([1.0], [np.eye(2)])
    channel = HybridChannel(dec, Partition.coherent(1))
    with pytest.raises(ValueError, match="decomposition 2, state 3, observable 2"):
        reduction_factor(dec, Partition.coherent(1), np.eye(3) / 3)
    with pytest.raises(ValueError, match="decomposition 2, state 3, observable 3"):
        reduction_factor_obs(dec, Partition.coherent(1), np.eye(3) / 3, np.eye(3))
    for state, obs, dims in ((np.eye(3) / 3, np.eye(3), "state 3, observable 3"), (PLUS, np.eye(3), "state 2, observable 3")):
        for backend in ("analytic", "circuit"):
            with pytest.raises(ValueError, match=f"decomposition 2, {dims}"):
                exact_expectation(channel, state, obs, backend=backend)
        with pytest.raises(ValueError, match=f"decomposition 2, {dims}"):
            Sampler(channel, state, obs)


def test_success_probability_bounds_random():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        dec = random_lcu(int(rng.integers(1, 6)), 4, rng)
        rho = random_density(4, rng)
        for p in coherent_routes(dec, rho):
            assert -1e-12 <= p <= 1.0 + 1e-12


def test_probability_check_raises_under_optimize():
    # invariant checks are explicit raises, so python -O keeps them
    script = (
        "import sys, dataclasses, numpy as np\n"
        "from hybridlcu import lcu, qcore\n"
        "if not sys.flags.optimize: sys.exit('not optimized')\n"
        "lcu.TOL = dataclasses.replace(qcore.TOL, prob_norm=-1.0)\n"
        "try:\n"
        "    lcu.LcuDecomposition.from_terms([1.0, 1.0], [np.eye(2), np.eye(2)])\n"
        "except qcore.InvariantViolation as exc:\n"
        "    print('raised:', exc)\n"
    )
    result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("raised: term probabilities sum to")
