"""The reference oracles: gate kernels, bit conventions, the dense oracle and <Z>.

The kernels act on ``(rows, 2^n)`` amplitude arrays; a single state is a
``(1, 2^n)`` row.
"""

import numpy as np
import pytest

from vqcontrast.errors import ConfigurationError, NumericError
from vqcontrast.oracles import (
    GateOp,
    cnot,
    cnot_index,
    dense_unitary_oracle,
    expect_z,
    gate_matrix,
    ry,
    ry_matrix,
    ry_rows,
    run_gates,
)

INV_SQRT2 = 1 / np.sqrt(2)


def test_ry_matrix_entries():
    theta = 0.73
    m = ry_matrix(theta)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    np.testing.assert_allclose(m, [[c, -s], [s, c]], atol=1e-15)


def test_ry_on_single_qubit():
    theta = 1.1
    np.testing.assert_allclose(
        run_gates([ry(0, theta)], 1)[0], [np.cos(theta / 2), np.sin(theta / 2)], atol=1e-15
    )


def test_ry_half_pi_gives_plus_like_state():
    np.testing.assert_allclose(run_gates([ry(0, np.pi / 2)], 1)[0], [INV_SQRT2, INV_SQRT2],
                               atol=1e-15)


def test_cnot_msb_control_matrix():
    """Control on the most significant qubit reproduces the textbook matrix."""
    expected = np.array([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ], dtype=complex)
    np.testing.assert_array_equal(gate_matrix(cnot(1, 0), 2), expected)


def test_cnot_lsb_control_matrix():
    # control = qubit 0 (LSB): swaps basis indices 1 (01) and 3 (11)
    expected = np.array([
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ], dtype=complex)
    np.testing.assert_array_equal(gate_matrix(cnot(0, 1), 2), expected)


def test_cnot_flips_target_when_control_set():
    # |q1 q0> = |01>, control qubit 0 -> target qubit 1 flips: |11>
    amps = np.array([[0.0, 1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(amps[:, cnot_index(2, 0, 1)], [[0, 0, 0, 1]])


def test_cnot_identity_when_control_clear():
    amps = np.array([[0.0, 0.0, 1.0, 0.0]])  # |10>: control clear
    np.testing.assert_array_equal(amps[:, cnot_index(2, 0, 1)], [[0, 0, 1, 0]])


def test_bell_like_state():
    np.testing.assert_allclose(
        run_gates([ry(0, np.pi / 2), cnot(0, 1)], 2)[0], [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15
    )


def test_expect_z_basics():
    # row = basis state |q1 q0>, column = qubit; a set bit reads -1
    np.testing.assert_array_equal(expect_z(np.eye(4)), [[1, 1], [-1, 1], [1, -1], [-1, -1]])
    np.testing.assert_array_equal(expect_z(run_gates([], 2)), [[1.0, 1.0]])
    assert abs(expect_z(run_gates([ry(0, np.pi)], 1))[0, 0] + 1.0) < 1e-15
    np.testing.assert_allclose(expect_z([0.6j, -0.8]), [0.36 - 0.64], atol=1e-15)


def test_expect_z_after_rotation():
    """One angle per row: row b rotates qubit 1 by theta_b."""
    rng = np.random.default_rng(7)
    theta = rng.uniform(-2 * np.pi, 2 * np.pi, 25)
    amps = run_gates([], 3, rows=25)
    ry_rows(amps, 1, theta)
    z = expect_z(amps)
    np.testing.assert_allclose(z[:, 1], np.cos(theta), atol=1e-12)
    np.testing.assert_allclose(z[:, 0], 1.0, atol=1e-12)  # untouched qubit


def test_norm_preserved_by_random_circuits(random_gates):
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        amps = run_gates(random_gates(rng, n, int(rng.integers(1, 15))), n)[0]
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


def test_strided_matches_dense_oracle(random_gates):
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        ops = random_gates(rng, n, int(rng.integers(1, 13)))
        np.testing.assert_allclose(run_gates(ops, n)[0], dense_unitary_oracle(ops, n)[:, 0],
                                   atol=1e-12)


def test_oracle_is_unitary(random_gates):
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        u = dense_unitary_oracle(random_gates(rng, n, 10), n)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(1 << n), atol=1e-12)


def test_gate_matrix_tensor_placement():
    theta = 0.4
    r = ry_matrix(theta)
    eye = np.eye(2)
    # qubit 0 is the least significant bit, so it sits rightmost in the kron
    np.testing.assert_allclose(gate_matrix(ry(0, theta), 2), np.kron(eye, r))
    np.testing.assert_allclose(gate_matrix(ry(1, theta), 2), np.kron(r, eye))


class TestValidation:
    def test_qubit_out_of_range(self):
        with pytest.raises(IndexError):
            gate_matrix(ry(2, 0.1), 2)
        with pytest.raises(IndexError):
            dense_unitary_oracle([cnot(0, 5)], 2)

    def test_cnot_needs_distinct_qubits(self):
        with pytest.raises(IndexError):
            cnot(0, 0)
        with pytest.raises(IndexError):
            GateOp("cnot", 1, control=1)

    def test_bad_qubit_count(self):
        with pytest.raises(ConfigurationError):
            dense_unitary_oracle([], 0)

    def test_non_finite_angle(self):
        with pytest.raises(NumericError):
            ry(0, np.nan)
        with pytest.raises(NumericError):
            ry(0, np.inf)

    def test_gateop_field_requirements(self):
        with pytest.raises(ConfigurationError):
            GateOp("ry", 0)  # no angle
        with pytest.raises(ConfigurationError):
            GateOp("cnot", 0)  # no control
        with pytest.raises(ConfigurationError):
            GateOp("hadamard", 0)

    def test_oracle_qubit_cap(self):
        with pytest.raises(ConfigurationError):
            dense_unitary_oracle([ry(0, 0.1)], 7)
