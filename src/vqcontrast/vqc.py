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

Every evaluation runs a batch of rows through the strided kernels of
``statevector``.  RY and CNOT are real matrices acting on a real initial
state, so the amplitudes stay in a float64 array of shape (batch, 2^n).
``vqc_forward`` is the one-row case of ``vqc_batched_forward``.

Gradients use the parameter-shift rule with shifts of +-pi/2 and a factor of
1/2, which is exact for RY-generated rotations.  Shifts are applied to the
trainable weights and to the encoded inputs alike, so gradients flow through
the layer into whatever classical network feeds it.  The rule is written
once, in ``vqc_batched_vjp``; ``vqc_parameter_shift_grad`` reads the full
Jacobian of one row off it, one output at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericError, ShapeError
from .statevector import MAX_QUBITS, cnot_index, ry_rows, z_signs

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


@dataclass
class VqcGradient:
    """Jacobians of the layer outputs.

    ``d_weights[l, i, j]`` is d<Z_j>/d w[l][i]; ``d_inputs[i, j]`` is
    d<Z_j>/d x_i.
    """

    d_weights: np.ndarray  # (n_layers, n_qubits, n_qubits)
    d_inputs: np.ndarray  # (n_qubits, n_qubits)


def vqc_forward(x: np.ndarray, params: QuantumLayerParams) -> np.ndarray:
    """Run the circuit for one input row, returning per-qubit <Z>."""
    return vqc_batched_forward(np.asarray(x, dtype=np.float64)[None], params)[0]


def vqc_parameter_shift_grad(x: np.ndarray, params: QuantumLayerParams) -> VqcGradient:
    """Exact Jacobians of every output w.r.t. every angle, by parameter shift.

    Column j is ``vqc_batched_vjp`` of the single row with the j-th basis
    vector as upstream gradient.
    """
    n = params.n_qubits
    X = np.asarray(x, dtype=np.float64)[None]
    columns = [vqc_batched_vjp(X, params, e[None]) for e in np.eye(n)]
    return VqcGradient(
        d_weights=np.stack([dw for _, dw in columns], axis=-1),
        d_inputs=np.stack([dx[0] for dx, _ in columns], axis=-1),
    )


def _run_batched(X: np.ndarray, weights: np.ndarray) -> np.ndarray:
    batch, n = X.shape
    amps = np.zeros((batch, 1 << n))
    amps[:, 0] = 1.0
    for i in range(n):
        ry_rows(amps, i, X[:, i])
    for layer in range(weights.shape[0]):
        if n >= 2:
            for i in range(n):
                amps = amps[:, cnot_index(n, i, (i + 1) % n)]
        for i in range(n):
            ry_rows(amps, i, weights[layer, i])
    return amps**2 @ z_signs(n)


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

    d_inputs = np.empty_like(X)
    for i in range(n):
        shifted = X.copy()
        shifted[:, i] = X[:, i] + _SHIFT
        plus = _run_batched(shifted, weights)
        shifted[:, i] = X[:, i] - _SHIFT
        minus = _run_batched(shifted, weights)
        d_inputs[:, i] = (0.5 * (plus - minus) * upstream).sum(axis=1)

    d_weights = np.empty_like(weights)
    for layer in range(layers):
        for i in range(n):
            shifted = weights.copy()
            shifted[layer, i] = weights[layer, i] + _SHIFT
            plus = _run_batched(X, shifted)
            shifted[layer, i] = weights[layer, i] - _SHIFT
            minus = _run_batched(X, shifted)
            d_weights[layer, i] = (0.5 * (plus - minus) * upstream).sum()

    return d_inputs, d_weights
