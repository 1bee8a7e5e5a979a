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
kernel on a float64 feature-major (2^n, batch) amplitude array, qubit 0 the
least significant bit of the row index, with at most two such arrays alive in a
forward.  The encoding keeps two half-register product states, of qubits 0..h-1
and h..n-1 with h = n // 2, built from cos(x_i/2) and sin(x_i/2) by in-place
doublings; they meet in one multiply of two gathers that also apply the first
CNOT ring, and every later ring is one gather of whole rows.  Each RY layer
splits the register into contiguous groups of at most four qubits, as equal as
possible, the wider ones on the low qubits (n = 10 gives 4, 3, 3).  A group of
m qubits starting at qubit s is one batched real matrix product by the
Kronecker product of its RY blocks on the (2^(n-s-m), 2^m, 2^s * batch) view.
The readout multiplies a Z-sign table by the squared amplitudes.  The ring
index, the groups and the Z table are built here from bit arithmetic, once per
width, and the RY factors once per distinct weight matrix; the gate-level
``oracles`` that audit this kernel share none of it.

The layer's API is ``vqc_batched_forward`` and ``vqc_batched_vjp``; both are
exact.  A forward is three steps: encode, the layer sweep and the readout.
The VJP gives the input partials by one adjoint sweep (Jones & Gacon,
arXiv:2009.02823): it runs the forward to the final state psi, forms the
adjoint 2 * psi * (Z @ upstream^T), and pulls it back, per layer from the last,
through each group's transposed RY factor, last group first, and the inverse
ring gather, down to the encoded product state.  Each half register's adjoint
is then contracted with the other half's product state, and the partial of
x_k is 1/2 of its contraction with the product state whose x_k is moved by pi.
The weight partials use the parameter-shift rule with shifts of +-pi/2 and a
factor of 1/2, which is exact for RY-generated rotations; each shifted run
starts from a copy of the encoded state and rebuilds only the factor of its
layer whose group holds the shifted weight.  A VJP holds three (2^n, batch)
arrays: the encoded state and two working buffers that every run and the
adjoint sweep share.  Jacobian column j of a row is its VJP with the j-th
basis vector as upstream gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, NumericError, ShapeError

MAX_QUBITS = 16
_SHIFT = 0.5 * np.pi


@dataclass(frozen=True)
class QuantumLayerParams:
    """Geometry and trainable rotation weights of the encoding layer, checked once."""

    n_qubits: int
    n_layers: int
    weights: np.ndarray  # (n_layers, n_qubits), radians

    def __post_init__(self):
        for name, value in (("n_qubits", self.n_qubits), ("n_layers", self.n_layers)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ConfigurationError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}"
            )
        if self.n_layers < 1:
            raise ConfigurationError(f"n_layers must be >= 1, got {self.n_layers}")
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        if self.weights.shape != (self.n_layers, self.n_qubits):
            raise ShapeError(
                f"weights must have shape ({self.n_layers}, {self.n_qubits}), "
                f"got {self.weights.shape}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise NumericError("weights contain non-finite entries")


@lru_cache(maxsize=None)
def _ring_index(n: int) -> np.ndarray:
    """Gather index of the ring CNOT(0,1), ..., CNOT(n-1,0), built from its last gate back."""
    ring = np.arange(1 << n)
    for i in reversed(range(n)):
        ring ^= ((ring >> i) & 1) << ((i + 1) % n)
    ring.flags.writeable = False
    return ring


@lru_cache(maxsize=None)
def _z_table(n: int) -> np.ndarray:
    """(2^n, n) Z eigenvalues, -1 where qubit j's bit is set; built once per width, read-only."""
    table = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
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


# Widest RY factor, in qubits: a layer costs sum(2^width) multiply-adds per amplitude,
# 32 at n = 10 ([4, 3, 3]) against 64 for two 5-qubit halves.  Forward at n = 10, 4 layers,
# 64 (32) rows, one BLAS thread, 2-CPU Xeon, medians of 15 interleaved runs: 1.68 (0.60) ms
# with this cap, 1.78 (0.66) ms with 3 ([3, 3, 2, 2]) and 2.15 (0.78) ms with 5 (the halves).
_GROUP_QUBITS = 4


@lru_cache(maxsize=None)
def _qubit_groups(n: int) -> tuple[tuple[int, int], ...]:
    """(start, stop) qubits of each RY factor: contiguous, at most ``_GROUP_QUBITS``
    wide, as equal as possible, the wider ones on the low qubits."""
    count = -(-n // _GROUP_QUBITS)
    stops = np.cumsum([n // count + (k < n % count) for k in range(count)]).tolist()
    return tuple(zip([0, *stops[:-1]], stops))


@lru_cache(maxsize=2)
def _layer_factors(weight_bytes: bytes, n_layers: int, n: int) -> tuple[np.ndarray, ...]:
    """RY factors of each qubit group per layer, keyed on the weights' bytes.

    The row blocks of one evaluation and the input shifts of one VJP share their
    weights, so they build these once; two entries hold one per encoder head.
    """
    weights = np.frombuffer(weight_bytes).reshape(n_layers, n)
    return tuple(_ry_factors(weights[:, start:stop]) for start, stop in _qubit_groups(n))


@lru_cache(maxsize=None)
def _encoding_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the high- and low-half product states that the first ring gathers.

    Amplitude i after the encoding and the first ring is the product of rows
    ``ring[i] >> h`` and ``ring[i] & (2^h - 1)``; without a ring (n == 1) it is row i.
    """
    h = n // 2
    ring = _ring_index(n) if n >= 2 else np.arange(1 << n)
    high, low = ring >> h, ring & ((1 << h) - 1)
    high.flags.writeable = low.flags.writeable = False
    return high, low


def _product_state(angles: np.ndarray) -> np.ndarray:
    """(2^m, rows) product state of RY(angle) on m qubits from |0>, for (rows, m) angles.

    Qubit j is bit j: each in-place doubling appends it as the most significant bit.
    """
    c, s = np.cos(0.5 * angles.T), np.sin(0.5 * angles.T)
    state = np.empty((1 << angles.shape[1], len(angles)))
    state[0] = 1.0
    for j in range(angles.shape[1]):
        width = 1 << j
        np.multiply(state[:width], s[j], out=state[width : 2 * width])
        state[:width] *= c[j]
    return state


def _group_views(n: int, rows: int) -> list[tuple[int, int, int]]:
    """The (2^(n-stop), 2^m, 2^start * rows) view that each qubit group's factor acts on."""
    return [(1 << (n - stop), 1 << (stop - start), rows << start)
            for start, stop in _qubit_groups(n)]


def _encode(X: np.ndarray, amps: np.ndarray, spare: np.ndarray) -> None:
    """Write the encoded state of every row of ``X``, first ring applied, into ``amps``."""
    h = X.shape[1] // 2
    high_rows, low_rows = _encoding_index(X.shape[1])
    np.take(_product_state(X[:, h:]), high_rows, axis=0, out=amps, mode="clip")
    np.take(_product_state(X[:, :h]), low_rows, axis=0, out=spare, mode="clip")
    amps *= spare


def _apply_layers(amps: np.ndarray, spare: np.ndarray, factors) -> tuple[np.ndarray, np.ndarray]:
    """Run every layer on the encoded ``amps``, the two buffers taking turns as output.

    Returns (the buffer holding the final state, the other one).
    """
    n = amps.shape[0].bit_length() - 1
    views = _group_views(n, amps.shape[1])
    for layer in range(len(factors[0])):
        if layer and n >= 2:  # mode="clip" gathers straight into ``spare``; "raise" buffers a copy
            np.take(amps, _ring_index(n), axis=0, out=spare, mode="clip")
            amps, spare = spare, amps
        for group, view in zip(factors, views):
            np.matmul(group[layer], amps.reshape(view), out=spare.reshape(view))
            amps, spare = spare, amps
    return amps, spare


def _readout(amps: np.ndarray) -> np.ndarray:
    """(rows, n) <Z> of every qubit from the final state; squares ``amps`` in place."""
    np.square(amps, out=amps)
    return amps.T @ _z_table(amps.shape[0].bit_length() - 1)


@lru_cache(maxsize=None)
def _inverse_ring_index(n: int) -> np.ndarray:
    """Gather index that undoes the ring's gather; built once per width, read-only."""
    inverse = np.argsort(_ring_index(n))
    inverse.flags.writeable = False
    return inverse


def _reverse_layers(adj: np.ndarray, spare: np.ndarray, factors) -> tuple[np.ndarray, np.ndarray]:
    """Pull the adjoint of the final state back to the encoded product state.

    Per layer, last first: each group's transposed factor, last group first, then
    the inverse ring gather; for layer 0 that undoes the ring the encoding folds in.
    Returns (the buffer holding the result, the other one), like ``_apply_layers``.
    """
    n = adj.shape[0].bit_length() - 1
    views = _group_views(n, adj.shape[1])
    for layer in reversed(range(len(factors[0]))):
        for group, view in zip(reversed(factors), reversed(views)):
            np.matmul(group[layer].T, adj.reshape(view), out=spare.reshape(view))
            adj, spare = spare, adj
        if n >= 2:
            np.take(adj, _inverse_ring_index(n), axis=0, out=spare, mode="clip")
            adj, spare = spare, adj
    return adj, spare


def _input_partials(X: np.ndarray, adj: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """dL/dX from the adjoint ``adj`` of the encoded product state; ``spare`` is scratch.

    Each half register's adjoint is ``adj`` contracted with the other half's
    product state.  d/dx RY(x)|0> = RY(x + pi)|0> / 2, so the partial of x_k is
    half its half's adjoint contracted with the product state with x_k + pi.
    """
    rows, n = X.shape
    h = n // 2
    adj = adj.reshape(1 << (n - h), 1 << h, rows)  # (high-half state, low-half state, row)
    scratch = spare.reshape(adj.shape)
    d_high = np.multiply(adj, _product_state(X[:, :h]), out=scratch).sum(axis=1)
    d_low = np.multiply(adj, _product_state(X[:, h:])[:, None], out=scratch).sum(axis=0)
    d_inputs = np.empty(X.shape)
    for k in range(n):
        shifted = X.copy()
        shifted[:, k] += np.pi
        half, adjoint = (shifted[:, :h], d_low) if k < h else (shifted[:, h:], d_high)
        d_inputs[:, k] = (adjoint * _product_state(half)).sum(axis=0)
    return 0.5 * d_inputs


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
    amps = np.empty((1 << params.n_qubits, len(X)))
    spare = np.empty_like(amps)
    _encode(X, amps, spare)
    factors = _layer_factors(params.weights.tobytes(), *params.weights.shape)
    return _readout(_apply_layers(amps, spare, factors)[0])


def vqc_batched_vjp(
    X: np.ndarray, params: QuantumLayerParams, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vector-Jacobian product of the batched layer, exact in both outputs.

    ``upstream`` is dL/d(outputs), shape (batch, n_qubits).  Returns
    (dL/dX of shape (batch, n_qubits), dL/dweights of shape
    (n_layers, n_qubits) summed over the batch).  dL/dX comes from one adjoint
    sweep; each weight partial from two parameter-shift runs,
    d f_j / d theta = (f_j(theta + pi/2) - f_j(theta - pi/2)) / 2, that start
    from a copy of the encoded state.  At most three (2^n, batch) arrays are alive.
    """
    n, layers = params.n_qubits, params.n_layers
    X = _check_batch(X, n)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != X.shape:
        raise ShapeError(
            f"upstream gradient shape {upstream.shape} does not match {X.shape}"
        )
    weights = params.weights
    factors, groups = _layer_factors(weights.tobytes(), layers, n), _qubit_groups(n)
    encoded = np.empty((1 << n, len(X)))
    amps, spare = np.empty_like(encoded), np.empty_like(encoded)
    _encode(X, encoded, spare)

    # Input partials: the forward to psi, then the adjoint sweep back to the encoding.
    np.copyto(amps, encoded)
    final, adj = _apply_layers(amps, spare, factors)
    np.matmul(_z_table(n), 2.0 * upstream.T, out=adj)
    adj *= final
    d_inputs = _input_partials(X, *_reverse_layers(adj, final, factors))

    def difference(plus, minus):
        """upstream * (f(angle + pi/2) - f(angle - pi/2)) / 2 for the shifted angle."""
        return 0.5 * (plus - minus) * upstream

    def weight_shifted(layer, qubit, shift):
        """The circuit with one weight moved: only its group's factor in its layer is rebuilt."""
        group = next(k for k, (_, stop) in enumerate(groups) if qubit < stop)
        start, stop = groups[group]
        angles = weights[layer, start:stop].copy()
        angles[qubit - start] += shift
        shifted = [list(stack) for stack in factors]
        shifted[group][layer] = _ry_factors(angles[None])[0]
        np.copyto(amps, encoded)
        return _readout(_apply_layers(amps, spare, shifted)[0])

    d_weights = np.array(
        [
            difference(weight_shifted(*at, _SHIFT), weight_shifted(*at, -_SHIFT)).sum()
            for at in np.ndindex(layers, n)
        ]
    ).reshape(layers, n)
    return d_inputs, d_weights
