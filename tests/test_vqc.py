"""Variational circuit layer: forward, adjoint and parameter-shift gradients, batching."""

import tracemalloc

import numpy as np
import pytest

from vqcontrast import vqc
from vqcontrast.errors import ConfigurationError, NumericError
from vqcontrast.gradcheck import central_difference
from vqcontrast.oracles import circuit_gates, cnot, cnot_index, expect_z, ry, run_gates
from vqcontrast.vqc import (
    QuantumLayerParams,
    _adjoint,
    _layer_factors,
    _run,
    _steps,
    _width,
    vqc_batched_forward,
    vqc_batched_vjp,
)


def single_qubit_params(w):
    return QuantumLayerParams(n_qubits=1, n_layers=1, weights=[[w]])


def test_single_qubit_forward_is_cosine():
    """One qubit, one layer: RY(x) then RY(w) measures to cos(x + w)."""
    x = np.linspace(-np.pi, np.pi, 13)
    for w in (-1.2, 0.0, 0.8):
        out = vqc_batched_forward(x[:, None], single_qubit_params(w))
        np.testing.assert_allclose(out[:, 0], np.cos(x + w), atol=1e-12)


def test_single_qubit_gradient_is_minus_sine():
    for x in np.linspace(-np.pi, np.pi, 9):
        d_inputs, d_weights = vqc_batched_vjp([[x]], single_qubit_params(0.4), np.ones((1, 1)))
        assert abs(d_inputs[0, 0] + np.sin(x + 0.4)) < 1e-10
        assert abs(d_weights[0, 0] + np.sin(x + 0.4)) < 1e-10


def test_zero_angles_measure_plus_one():
    for n in (1, 2, 3):
        params = QuantumLayerParams(n, 2, np.zeros((2, n)))
        np.testing.assert_allclose(
            vqc_batched_forward(np.zeros((1, n)), params), np.ones((1, n)), atol=1e-15
        )


def test_outputs_bounded():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        layers = int(rng.integers(1, 4))
        params = QuantumLayerParams(n, layers, rng.uniform(-np.pi, np.pi, (layers, n)))
        out = vqc_batched_forward(rng.uniform(-np.pi, np.pi, (3, n)), params)
        assert np.all(np.abs(out) <= 1.0 + 1e-12)


def test_two_pi_periodicity():
    """Adding 2*pi to any angle flips global phase only, not expectations."""
    rng = np.random.default_rng(1)
    params = QuantumLayerParams(3, 2, rng.uniform(-1, 1, (2, 3)))
    x = rng.uniform(-1, 1, 3)
    shifted = x.copy()
    shifted[1] += 2 * np.pi
    out = vqc_batched_forward(np.stack([x, shifted]), params)
    np.testing.assert_allclose(out[0], out[1], atol=1e-12)


def test_circuit_order_matches_explicit_gate_list(oracle_z):
    """Encoding RYs, then per layer a CNOT ring followed by weight RYs."""
    rng = np.random.default_rng(2)
    x = rng.uniform(-np.pi, np.pi, 3)
    w = rng.uniform(-np.pi, np.pi, (2, 3))
    gates = [
        ry(0, x[0]), ry(1, x[1]), ry(2, x[2]),
        cnot(0, 1), cnot(1, 2), cnot(2, 0), ry(0, w[0, 0]), ry(1, w[0, 1]), ry(2, w[0, 2]),
        cnot(0, 1), cnot(1, 2), cnot(2, 0), ry(0, w[1, 0]), ry(1, w[1, 1]), ry(2, w[1, 2]),
    ]
    out = vqc_batched_forward(x[None], QuantumLayerParams(3, 2, w))
    np.testing.assert_allclose(out[0], oracle_z(gates, 3), atol=1e-12)


def test_single_qubit_skips_entangling_ring():
    # no two-qubit gates exist at n=1; the layer is just a rotation
    out = vqc_batched_forward([[0.3]], QuantumLayerParams(1, 3, [[0.1], [0.2], [0.3]]))
    assert abs(out[0, 0] - np.cos(0.3 + 0.1 + 0.2 + 0.3)) < 1e-12


def test_two_qubit_ring_applies_both_directions(oracle_z):
    """At n=2 the ring is CNOT(0,1) then CNOT(1,0), not a single gate."""
    x = np.array([1.1, -0.4])
    w = np.array([[0.5, 0.9]])
    gates = [ry(0, x[0]), ry(1, x[1]), cnot(0, 1), cnot(1, 0), ry(0, w[0, 0]), ry(1, w[0, 1])]
    out = vqc_batched_forward(x[None], QuantumLayerParams(2, 1, w))
    np.testing.assert_allclose(out[0], oracle_z(gates, 2), atol=1e-12)
    single = oracle_z([ry(0, x[0]), ry(1, x[1]), cnot(0, 1), ry(0, w[0, 0]), ry(1, w[0, 1])], 2)
    assert np.abs(out[0] - single).max() > 0.1


def test_batched_forward_matches_dense_oracle(oracle_z):
    """Each row against the Kronecker-built unitary of the explicit gate list.

    n=1 has no ring; n=2 has the ring CNOT(0,1), CNOT(1,0), which half undoes
    itself; n=1..4 apply each RY layer as one factor, n=5 and 6 as two qubit
    groups, unequal at n=5.
    """
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        for layers in range(1, 4):
            weights = rng.uniform(-np.pi, np.pi, (layers, n))
            X = rng.uniform(-np.pi, np.pi, (3, n))
            batched = vqc_batched_forward(X, QuantumLayerParams(n, layers, weights))
            assert batched.shape == (3, n)
            for b in range(3):
                np.testing.assert_allclose(
                    batched[b], oracle_z(circuit_gates(X[b], weights), n),
                    atol=1e-12, err_msg=f"n={n}, layers={layers}",
                )


@pytest.mark.parametrize("n", [10, 11, 12, 13])
def test_batched_forward_matches_gate_level_kernels(n):
    """Beyond the dense oracle's reach, against the oracles' gate-by-gate kernels.

    n = 10, 11 and 12 apply each RY layer as three qubit groups, n = 13 as four.
    Also at 0, 1 and 65 rows and on a column-reversed (strided) input; the result
    is always a C-contiguous float64 (rows, n) array.
    """
    rng = np.random.default_rng(n)
    layers = 3
    weights = rng.uniform(-np.pi, np.pi, (layers, n))
    params = QuantumLayerParams(n, layers, weights)
    wide = rng.uniform(-np.pi, np.pi, (65, n))
    for X in (wide[:4], wide[:0], wide[:1], wide, wide[:3, ::-1]):
        expected = [expect_z(run_gates(circuit_gates(x, weights), n)) for x in X]
        out = vqc_batched_forward(X, params)
        assert out.shape == (len(X), n) and out.dtype == np.float64
        assert out.flags.c_contiguous
        np.testing.assert_allclose(out, np.reshape(expected, (len(X), n)), atol=1e-12)


def test_z_table_is_cached_and_read_only():
    """Every per-width table is built once and read-only; the Z table reads basis bits."""
    for n in (1, 4, 11):
        table = _width(n)
        np.testing.assert_array_equal(table.z, expect_z(np.eye(1 << n)))
        assert table is _width(n)
        for array in (table.ring, table.unring, table.high, table.low, table.z):
            assert not array.flags.writeable


def test_ring_index_composes_the_rings_cnot_gathers():
    """The ring, its inverse and the encoding's half-register rows; no ring at n = 1."""
    for n in range(1, 13):
        ring = np.arange(1 << n)
        for i in range(n) if n > 1 else ():
            ring = ring[cnot_index(n, i, (i + 1) % n)]
        table = _width(n)
        np.testing.assert_array_equal(table.ring, ring, err_msg=f"n={n}")
        np.testing.assert_array_equal(ring[table.unring], np.arange(1 << n), err_msg=f"n={n}")
        np.testing.assert_array_equal((table.high << n // 2) | table.low, ring, err_msg=f"n={n}")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9, 11, 13])
def test_adjoint_steps_undo_the_encodings_ring_and_the_forward_steps(n):
    """The reverse sweep relies on every step being real and orthogonal.

    A random state, gathered by the ring the encoding folds in, run through the
    forward steps and then their adjoint, comes back to itself.
    """
    rng = np.random.default_rng(n + 40)
    rows, table = 3, _width(n)
    for layers in (1, 2, 3):
        params = QuantumLayerParams(n, layers, rng.uniform(-np.pi, np.pi, (layers, n)))
        steps = _steps(params, rows)
        state = rng.standard_normal((1 << n, rows))
        final, spare = _run(state[table.ring], np.empty_like(state), steps)
        back = _run(final, spare, _adjoint(steps, table.unring))[0]
        np.testing.assert_allclose(back, state, rtol=0, atol=1e-12, err_msg=f"layers={layers}")


def test_forward_follows_weights_edited_in_place(oracle_z):
    """The RY factors are cached by the weights' bytes, not by the array object."""
    rng = np.random.default_rng(8)
    params = QuantumLayerParams(5, 2, rng.uniform(-np.pi, np.pi, (2, 5)))
    X = rng.uniform(-np.pi, np.pi, (1, 5))
    vqc_batched_forward(X, params)
    params.weights[1, 3] += 0.5
    np.testing.assert_allclose(
        vqc_batched_forward(X, params)[0], oracle_z(circuit_gates(X[0], params.weights), 5),
        atol=1e-12,
    )


def test_batched_forward_holds_at_most_three_states():
    """Peak traced memory of a 256-row, 10-qubit forward stays under three full states."""
    rng = np.random.default_rng(6)
    rows, n = 256, 10
    params = QuantumLayerParams(n, 4, rng.uniform(-np.pi, np.pi, (4, n)))
    X = rng.uniform(-np.pi, np.pi, (rows, n))
    vqc_batched_forward(X, params)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        vqc_batched_forward(X, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * rows * (1 << n) * 8


@pytest.mark.parametrize("n", [3, 4, 5, 9, 11])
def test_batched_vjp_matches_central_differences(n):
    """Both outputs of the VJP against central differences of sum(f(X) * upstream).

    n = 3 and 4 are one qubit group, n = 5 two ([3, 2]), n = 9 three equal ones
    ([3, 3, 3]) and n = 11 three unequal ones ([4, 4, 3]), so weight shifts land
    in every group's factor of every layer.
    """
    rng = np.random.default_rng(n + 1)
    layers, batch = 2, 5
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9, 11, 13])
def test_input_partials_match_parameter_shift(n):
    """The adjoint sweep's dL/dX against parameter shift through the forward.

    n = 1 has no ring; n = 1..4 apply each RY layer as one qubit group, n = 5
    and 6 as two, n = 9 as [3, 3, 3], n = 11 as [4, 4, 3] and n = 13 as four.
    """
    rng = np.random.default_rng(n + 20)
    rows = 4
    for layers in (1, 2, 3):
        params = QuantumLayerParams(n, layers, rng.uniform(-np.pi, np.pi, (layers, n)))
        X = rng.uniform(-np.pi, np.pi, (rows, n))
        upstream = rng.standard_normal((rows, n))

        def loss(Y):
            return (vqc_batched_forward(Y, params) * upstream).sum(axis=1)

        shifts = 0.5 * np.pi * np.eye(n)
        expected = np.stack([(loss(X + dx) - loss(X - dx)) / 2 for dx in shifts], axis=1)
        np.testing.assert_allclose(
            vqc_batched_vjp(X, params, upstream)[0], expected,
            rtol=0, atol=1e-12, err_msg=f"layers={layers}",
        )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9, 11, 13])
def test_weight_partials_match_parameter_shift(n):
    """The VJP's dL/dweights against parameter shift through the forward.

    Each shifted forward gets fresh ``QuantumLayerParams``, so it shares no
    factor with the VJP's runs; n = 1..4 have one qubit group, n = 5 and 6
    two, n = 9 and 11 three and n = 13 four.
    """
    rng = np.random.default_rng(n + 40)
    rows = 4
    for layers in (1, 2, 3):
        weights = rng.uniform(-np.pi, np.pi, (layers, n))
        X = rng.uniform(-np.pi, np.pi, (rows, n))
        upstream = rng.standard_normal((rows, n))

        def loss(w):
            return (vqc_batched_forward(X, QuantumLayerParams(n, layers, w)) * upstream).sum()

        shifts = 0.5 * np.pi * np.eye(layers * n).reshape(-1, layers, n)
        expected = np.array([(loss(weights + dw) - loss(weights - dw)) / 2 for dw in shifts])
        np.testing.assert_allclose(
            vqc_batched_vjp(X, QuantumLayerParams(n, layers, weights), upstream)[1],
            expected.reshape(layers, n), rtol=0, atol=1e-12, err_msg=f"layers={layers}",
        )


def test_batched_vjp_holds_at_most_three_and_a_half_states():
    """Peak traced memory of a 256-row, 10-qubit, 4-layer VJP stays under 3.5 full states.

    It holds the encoded state and two working buffers that every run and the
    adjoint sweep share, plus half-register product states.
    """
    rng = np.random.default_rng(7)
    rows, n = 256, 10
    params = QuantumLayerParams(n, 4, rng.uniform(-np.pi, np.pi, (4, n)))
    X = rng.uniform(-np.pi, np.pi, (rows, n))
    upstream = rng.standard_normal((rows, n))
    vqc_batched_vjp(X, params, upstream)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        vqc_batched_vjp(X, params, upstream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * rows * (1 << n) * 8


@pytest.mark.parametrize("n", [1, 10])
def test_vjp_of_no_rows(n):
    """A (0, n) batch gives (0, n) input partials and zero weight partials."""
    params = QuantumLayerParams(n, 2, np.random.default_rng(n).uniform(-np.pi, np.pi, (2, n)))
    d_inputs, d_weights = vqc_batched_vjp(np.zeros((0, n)), params, np.zeros((0, n)))
    assert d_inputs.shape == (0, n)
    np.testing.assert_array_equal(d_weights, np.zeros((2, n)))


def test_vjp_reuses_the_forwards_cached_factors():
    """A VJP after a forward builds no cached RY factors of its own, shifted or not."""
    rng = np.random.default_rng(10)
    params = QuantumLayerParams(5, 3, rng.uniform(-np.pi, np.pi, (3, 5)))
    X = rng.uniform(-np.pi, np.pi, (4, 5))
    _layer_factors.cache_clear()
    vqc_batched_forward(X, params)
    after_forward = _layer_factors.cache_info()
    vqc_batched_vjp(X, params, rng.standard_normal((4, 5)))
    after_vjp = _layer_factors.cache_info()
    assert (after_vjp.misses, after_vjp.currsize) == (after_forward.misses, 1)


def test_vjp_builds_each_half_state_once(monkeypatch):
    """One VJP builds four product states: each half register's from the encoding,
    reused by the input partials, and each half's pi-shifted states."""
    calls = []
    build = vqc._product_state
    monkeypatch.setattr(vqc, "_product_state", lambda angles: calls.append(1) or build(angles))
    rng = np.random.default_rng(11)
    params = QuantumLayerParams(10, 4, rng.uniform(-np.pi, np.pi, (4, 10)))
    vqc_batched_vjp(rng.uniform(-np.pi, np.pi, (8, 10)), params, rng.standard_normal((8, 10)))
    assert len(calls) == 4


def test_parameter_shift_matches_finite_differences():
    """Jacobian column j of one row is its VJP with the j-th basis vector upstream."""
    rng = np.random.default_rng(5)
    n, layers, h = 2, 2, 1e-6
    weights = rng.uniform(-1, 1, (layers, n))
    x = rng.uniform(-1, 1, n)
    params = QuantumLayerParams(n, layers, weights)
    # jacobian[i, j] = d<Z_j>/dx_i
    jacobian = np.stack(
        [vqc_batched_vjp(x[None], params, e[None])[0][0] for e in np.eye(n)], axis=-1
    )

    for i in range(n):
        plus, minus = x.copy(), x.copy()
        plus[i] += h
        minus[i] -= h
        out = vqc_batched_forward(np.stack([plus, minus]), params)
        np.testing.assert_allclose(jacobian[i], (out[0] - out[1]) / (2 * h), atol=1e-7)


class TestValidation:
    def test_weights_shape(self):
        with pytest.raises(ConfigurationError):
            QuantumLayerParams(2, 2, np.zeros((2, 3)))

    def test_qubit_range(self):
        with pytest.raises(ConfigurationError):
            QuantumLayerParams(0, 1, np.zeros((1, 0)))
        with pytest.raises(ConfigurationError):
            QuantumLayerParams(17, 1, np.zeros((1, 17)))

    def test_layer_count(self):
        with pytest.raises(ConfigurationError):
            QuantumLayerParams(1, 0, np.zeros((0, 1)))

    def test_geometry_must_be_integers(self):
        """A float geometry matches the weights' shape but breaks the VJP's loops."""
        for geometry in ((2.0, 1), (2, 1.0), (True, 1)):
            with pytest.raises(ConfigurationError, match="must be an integer"):
                QuantumLayerParams(*geometry, np.zeros((1, int(geometry[0]))))

    def test_non_finite_weights(self):
        with pytest.raises(NumericError):
            QuantumLayerParams(1, 1, [[np.nan]])

    def test_input_shape(self):
        params = QuantumLayerParams(2, 1, np.zeros((1, 2)))
        with pytest.raises(ConfigurationError):
            vqc_batched_forward([0.1, 0.2], params)  # one row must still be 2-D
        with pytest.raises(ConfigurationError):
            vqc_batched_forward(np.zeros((4, 3)), params)

    def test_non_finite_input(self):
        params = QuantumLayerParams(2, 1, np.zeros((1, 2)))
        with pytest.raises(NumericError):
            vqc_batched_forward([[np.inf, 0.0]], params)

    def test_vjp_upstream_shape(self):
        params = QuantumLayerParams(2, 1, np.zeros((1, 2)))
        with pytest.raises(ConfigurationError):
            vqc_batched_vjp(np.zeros((3, 2)), params, np.zeros((2, 2)))
