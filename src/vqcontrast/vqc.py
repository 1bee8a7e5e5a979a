"""Trainable quantum encoding layer.

Circuit, for an input vector x of length ``n_qubits``:

1. angle encoding: RY(x_i) on qubit i, once, before any entangling layer;
2. for each layer l: a ring of CNOTs, CNOT(q_i, q_{(i+1) mod n}) in index
   order, then RY(w[l][i]) on each qubit i;
3. readout: the Pauli-Z expectation of every qubit.

A ring needs at least two qubits, so for n_qubits == 1 the CNOT stage is
skipped and the layer collapses to a chain of RY rotations.  For
n_qubits == 2 the ring emits CNOT(0,1) followed by CNOT(1,0) exactly as the
modular formula states, even though the pair partially undoes itself.

Every evaluation runs a batch of rows (one input is one row) through one fused
kernel on a float64 (batch, 2^n) amplitude array, qubit 0 the least significant
bit, with at most two such arrays alive.  The (batch, 2^(n-h), 2^h) view,
h = n // 2, splits the register into qubits h..n-1 (its rows) and 0..h-1 (its
columns).  The encoding is written once into that view as the outer product
of the two halves' product states, each built from cos(x_i/2) and sin(x_i/2)
by doublings up to width 2^(n-h) or 2^h.  Each CNOT ring is one gather; each
RY layer is two real matrix products on the view by the Kronecker products of
the RY blocks of qubits h..n-1 (from the left) and 0..h-1 (from the right).
The readout multiplies the squared amplitudes by a Z-sign table built once
per width, and the RY factors are built once per distinct weight matrix.

The layer's API is ``vqc_batched_forward`` and ``vqc_batched_vjp``.  The VJP
uses the parameter-shift rule with shifts of +-pi/2 and a factor of 1/2,
which is exact for RY-generated rotations.  Shifts are applied to the
trainable weights and to the encoded inputs alike, so gradients flow through
the layer into whatever classical network feeds it.  Jacobian column j of a
row is its VJP with the j-th basis vector as upstream gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, NumericError, ShapeError
from .statevector import MAX_QUBITS, cnot_index, z_signs

_SHIFT = 0.5 * np.pi


@dataclass
class QuantumLayerParams:
    """Geometry and trainable rotation weights of the encoding layer."""

    n_qubits: int
    n_layers: int
    weights: np.ndarray  # (n_layers, n_qubits), radians

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigurationError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}"
            )
        if self.n_layers < 1:
            raise ConfigurationError(f"n_layers must be >= 1, got {self.n_layers}")
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.shape != (self.n_layers, self.n_qubits):
            raise ShapeError(
                f"weights must have shape ({self.n_layers}, {self.n_qubits}), "
                f"got {self.weights.shape}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise NumericError("weights contain non-finite entries")


@lru_cache(maxsize=None)
def _ring_index(n: int) -> np.ndarray:
    """One gather index for the CNOT ring CNOT(0,1), ..., CNOT(n-1,0)."""
    ring = cnot_index(n, 0, 1)
    for i in range(1, n):
        ring = ring[cnot_index(n, i, (i + 1) % n)]
    ring.flags.writeable = False
    return ring


@lru_cache(maxsize=None)
def _z_table(n: int) -> np.ndarray:
    """``z_signs(n)``, built once per width and read-only."""
    table = z_signs(n)
    table.flags.writeable = False
    return table


def _ry_factors(angles: np.ndarray) -> np.ndarray:
    """(L, 2^m, 2^m) Kronecker products of RY blocks of (L, m) angles, angle 0 rightmost."""
    c, s = np.cos(0.5 * angles), np.sin(0.5 * angles)
    blocks = np.stack([c, -s, s, c], axis=-1).reshape(*angles.shape, 2, 2)
    factors = np.ones((len(angles), 1, 1))
    for j in range(angles.shape[1]):
        outer = blocks[:, j, :, None, :, None] * factors[:, None, :, None, :]
        factors = outer.reshape(len(angles), 2 * factors.shape[1], -1)
    factors.flags.writeable = False
    return factors


@lru_cache(maxsize=16)
def _layer_factors(weight_bytes: bytes, n_layers: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """RY factors of qubits 0..h-1 and h..n-1 per layer, keyed on the weights' bytes.

    The row blocks of one evaluation share their weights, so they build these once.
    """
    weights = np.frombuffer(weight_bytes).reshape(n_layers, n)
    return _ry_factors(weights[:, : n // 2]), _ry_factors(weights[:, n // 2 :])


def _product_state(angles: np.ndarray) -> np.ndarray:
    """(rows, 2^m) product state of RY(angle) on m qubits from |0>, angle 0 the LSB."""
    c, s = np.cos(0.5 * angles), np.sin(0.5 * angles)
    state = np.ones((len(angles), 1))
    for j in range(angles.shape[1]):  # qubit j is bit j: doubling appends it as the MSB
        state = np.concatenate([c[:, j, None] * state, s[:, j, None] * state], axis=1)
    return state


def _run_batched(X: np.ndarray, weights: np.ndarray) -> np.ndarray:
    rows, n = X.shape
    h = n // 2
    amps = np.empty((rows, 1 << n))
    spare = np.empty_like(amps)
    flat, split = (-1, 1 << h), (rows, 1 << (n - h), 1 << h)
    high, low = _product_state(X[:, h:]), _product_state(X[:, :h])
    np.multiply(high[:, :, None], low[:, None, :], out=amps.reshape(split))
    for lo, hi in zip(*_layer_factors(weights.tobytes(), *weights.shape)):
        if n >= 2:  # mode="clip" gathers straight into ``spare``; "raise" buffers a copy
            np.take(amps, _ring_index(n), axis=1, out=spare, mode="clip")
            amps, spare = spare, amps
        np.matmul(amps.reshape(flat), lo.T, out=spare.reshape(flat))
        np.matmul(hi, spare.reshape(split), out=amps.reshape(split))
    np.square(amps, out=amps)
    return amps @ _z_table(n)


def _check_batch(X: np.ndarray, n_qubits: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_qubits:
        raise ShapeError(f"expected (batch, {n_qubits}) inputs, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NumericError("input contains non-finite entries")
    return X


def vqc_batched_forward(X: np.ndarray, params: QuantumLayerParams) -> np.ndarray:
    """Evaluate the circuit for every row of ``X`` independently."""
    X = _check_batch(X, params.n_qubits)
    return _run_batched(X, params.weights)


def vqc_batched_vjp(
    X: np.ndarray, params: QuantumLayerParams, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vector-Jacobian product of the batched layer via parameter shift.

    ``upstream`` is dL/d(outputs), shape (batch, n_qubits).  Returns
    (dL/dX of shape (batch, n_qubits), dL/dweights of shape
    (n_layers, n_qubits) summed over the batch).  Each partial costs two
    circuit runs: d f_j / d theta = (f_j(theta + pi/2) - f_j(theta - pi/2)) / 2.
    """
    n, layers = params.n_qubits, params.n_layers
    X = _check_batch(X, n)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != X.shape:
        raise ShapeError(
            f"upstream gradient shape {upstream.shape} does not match {X.shape}"
        )
    weights = params.weights

    def shifted(dx, dw):
        """upstream * (f(angle + pi/2) - f(angle - pi/2)) / 2 for the shifted angle."""
        plus, minus = _run_batched(X + dx, weights + dw), _run_batched(X - dx, weights - dw)
        return 0.5 * (plus - minus) * upstream

    d_inputs = np.stack([shifted(_SHIFT * e, 0.0).sum(axis=1) for e in np.eye(n)], axis=1)
    units = _SHIFT * np.eye(layers * n).reshape(-1, layers, n)
    d_weights = np.array([shifted(0.0, e).sum() for e in units]).reshape(layers, n)
    return d_inputs, d_weights
