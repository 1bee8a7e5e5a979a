"""Variational circuit layer: forward, parameter-shift gradients, batching."""

import numpy as np
import pytest

from vqcontrast import (
    QuantumLayerParams,
    central_difference,
    cnot,
    dense_unitary_oracle,
    new_zero_state,
    ry,
    vqc_batched_forward,
    vqc_batched_vjp,
    vqc_forward,
    vqc_parameter_shift_grad,
)
from vqcontrast.errors import ConfigurationError, NumericError, ShapeError


def single_qubit_params(w):
    return QuantumLayerParams(n_qubits=1, n_layers=1, weights=[[w]])


def test_single_qubit_forward_is_cosine():
    """One qubit, one layer: RY(x) then RY(w) measures to cos(x + w)."""
    for x in np.linspace(-np.pi, np.pi, 13):
        for w in (-1.2, 0.0, 0.8):
            out = vqc_forward([x], single_qubit_params(w))
            assert abs(out[0] - np.cos(x + w)) < 1e-12


def test_single_qubit_gradient_is_minus_sine():
    for x in np.linspace(-np.pi, np.pi, 9):
        grad = vqc_parameter_shift_grad([x], single_qubit_params(0.4))
        assert abs(grad.d_inputs[0, 0] + np.sin(x + 0.4)) < 1e-10
        assert abs(grad.d_weights[0, 0, 0] + np.sin(x + 0.4)) < 1e-10


def test_zero_angles_measure_plus_one():
    for n in (1, 2, 3):
        params = QuantumLayerParams(n, 2, np.zeros((2, n)))
        np.testing.assert_allclose(vqc_forward(np.zeros(n), params), np.ones(n), atol=1e-15)


def test_outputs_bounded():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        layers = int(rng.integers(1, 4))
        params = QuantumLayerParams(n, layers, rng.uniform(-np.pi, np.pi, (layers, n)))
        out = vqc_forward(rng.uniform(-np.pi, np.pi, n), params)
        assert np.all(np.abs(out) <= 1.0 + 1e-12)


def test_two_pi_periodicity():
    """Adding 2*pi to any angle flips global phase only, not expectations."""
    rng = np.random.default_rng(1)
    params = QuantumLayerParams(3, 2, rng.uniform(-1, 1, (2, 3)))
    x = rng.uniform(-1, 1, 3)
    shifted = x.copy()
    shifted[1] += 2 * np.pi
    np.testing.assert_allclose(
        vqc_forward(x, params), vqc_forward(shifted, params), atol=1e-12
    )


def test_circuit_order_matches_explicit_gate_list():
    """Encoding RYs, then per layer a CNOT ring followed by weight RYs."""
    n, layers = 3, 2
    rng = np.random.default_rng(2)
    x = rng.uniform(-np.pi, np.pi, n)
    weights = rng.uniform(-np.pi, np.pi, (layers, n))

    state = new_zero_state(n)
    for i in range(n):
        state.apply_gate(ry(i, x[i]))
    for layer in range(layers):
        for i in range(n):
            state.apply_gate(cnot(i, (i + 1) % n))
        for i in range(n):
            state.apply_gate(ry(i, weights[layer, i]))
    expected = np.array([state.expect_z(j) for j in range(n)])

    out = vqc_forward(x, QuantumLayerParams(n, layers, weights))
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_single_qubit_skips_entangling_ring():
    # no two-qubit gates exist at n=1; the layer is just a rotation
    out = vqc_forward([0.3], QuantumLayerParams(1, 3, [[0.1], [0.2], [0.3]]))
    assert abs(out[0] - np.cos(0.3 + 0.1 + 0.2 + 0.3)) < 1e-12


def test_two_qubit_ring_applies_both_directions():
    """At n=2 the ring is CNOT(0,1) then CNOT(1,0), not a single gate."""
    x = np.array([1.1, -0.4])
    weights = np.array([[0.5, 0.9]])

    state = new_zero_state(2).apply_ry(0, x[0]).apply_ry(1, x[1])
    state.apply_cnot(0, 1).apply_cnot(1, 0)
    state.apply_ry(0, weights[0, 0]).apply_ry(1, weights[0, 1])
    expected = np.array([state.expect_z(0), state.expect_z(1)])

    out = vqc_forward(x, QuantumLayerParams(2, 1, weights))
    np.testing.assert_allclose(out, expected, atol=1e-14)


def _dense_z(qubit, n):
    out = np.ones((1, 1))
    for q in range(n - 1, -1, -1):
        out = np.kron(out, np.diag([1.0, -1.0]) if q == qubit else np.eye(2))
    return out


def test_batched_forward_matches_dense_oracle():
    """Each row against the Kronecker-built unitary of the explicit gate list.

    n=1 has no ring; n=2 has the ring CNOT(0,1), CNOT(1,0).
    """
    rng = np.random.default_rng(3)
    layers = 2
    for n in range(1, 6):
        weights = rng.uniform(-np.pi, np.pi, (layers, n))
        X = rng.uniform(-np.pi, np.pi, (6, n))
        ring = [cnot(i, (i + 1) % n) for i in range(n)] if n >= 2 else []

        batched = vqc_batched_forward(X, QuantumLayerParams(n, layers, weights))
        assert batched.shape == (6, n)
        for b in range(6):
            gates = [ry(i, X[b, i]) for i in range(n)]
            for layer in range(layers):
                gates += ring + [ry(i, weights[layer, i]) for i in range(n)]
            psi = dense_unitary_oracle(gates, n)[:, 0]
            expected = [np.real(psi.conj() @ _dense_z(j, n) @ psi) for j in range(n)]
            np.testing.assert_allclose(batched[b], expected, atol=1e-12, err_msg=f"n={n}")


def test_batched_vjp_matches_central_differences():
    """Both outputs of the VJP against central differences of sum(f(X) * upstream)."""
    rng = np.random.default_rng(4)
    n, layers, batch = 3, 2, 5
    params = QuantumLayerParams(n, layers, rng.uniform(-np.pi, np.pi, (layers, n)))
    X = rng.uniform(-np.pi, np.pi, (batch, n))
    upstream = rng.standard_normal((batch, n))

    d_inputs, d_weights = vqc_batched_vjp(X, params, upstream)

    def loss():
        return float((vqc_batched_forward(X, params) * upstream).sum())

    np.testing.assert_allclose(d_inputs, central_difference(loss, X, 1e-6), atol=1e-8)
    np.testing.assert_allclose(
        d_weights, central_difference(loss, params.weights, 1e-6), atol=1e-8
    )


def test_parameter_shift_matches_finite_differences():
    rng = np.random.default_rng(5)
    n, layers, h = 2, 2, 1e-6
    weights = rng.uniform(-1, 1, (layers, n))
    x = rng.uniform(-1, 1, n)
    params = QuantumLayerParams(n, layers, weights)
    grad = vqc_parameter_shift_grad(x, params)

    for i in range(n):
        plus, minus = x.copy(), x.copy()
        plus[i] += h
        minus[i] -= h
        fd = (vqc_forward(plus, params) - vqc_forward(minus, params)) / (2 * h)
        np.testing.assert_allclose(grad.d_inputs[i], fd, atol=1e-7)


class TestValidation:
    def test_weights_shape(self):
        with pytest.raises(ShapeError):
            QuantumLayerParams(2, 2, np.zeros((2, 3)))

    def test_qubit_range(self):
        with pytest.raises(ConfigurationError):
            QuantumLayerParams(0, 1, np.zeros((1, 0)))
        with pytest.raises(ConfigurationError):
            QuantumLayerParams(17, 1, np.zeros((1, 17)))

    def test_layer_count(self):
        with pytest.raises(ConfigurationError):
            QuantumLayerParams(1, 0, np.zeros((0, 1)))

    def test_non_finite_weights(self):
        with pytest.raises(NumericError):
            QuantumLayerParams(1, 1, [[np.nan]])

    def test_input_shape(self):
        params = QuantumLayerParams(2, 1, np.zeros((1, 2)))
        with pytest.raises(ShapeError):
            vqc_forward([0.1, 0.2, 0.3], params)
        with pytest.raises(ShapeError):
            vqc_batched_forward(np.zeros((4, 3)), params)

    def test_non_finite_input(self):
        params = QuantumLayerParams(2, 1, np.zeros((1, 2)))
        with pytest.raises(NumericError):
            vqc_forward([np.inf, 0.0], params)

    def test_vjp_upstream_shape(self):
        params = QuantumLayerParams(2, 1, np.zeros((1, 2)))
        with pytest.raises(ShapeError):
            vqc_batched_vjp(np.zeros((3, 2)), params, np.zeros((2, 2)))
