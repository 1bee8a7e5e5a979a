"""Trainable quantum encoding layer.

Circuit, for an input vector x of length ``n_qubits``:

1. angle encoding: RY(x_i) on qubit i, once, before any entangling layer;
2. for each layer l: a ring of CNOTs, CNOT(q_i, q_{(i+1) mod n}) in index
   order, then RY(w[l][i]) on each qubit i;
3. readout: the Pauli-Z expectation of every qubit.

A ring needs at least two qubits, so for n_qubits == 1 the CNOT stage is the
identity and the layer collapses to a chain of RY rotations.  For
n_qubits == 2 the ring emits CNOT(0,1) followed by CNOT(1,0) exactly as the
modular formula states, even though the pair partially undoes itself.

Every evaluation runs a batch of rows (one input is one row) on a float64
feature-major (2^n, rows) amplitude array, qubit 0 the least significant bit
of the row index.  The encoding keeps two half-register product states, of
qubits 0..h-1 and h..n-1 with h = n // 2, built from cos(x_i/2) and sin(x_i/2)
by in-place doublings; they meet in one multiply of two gathers that also
apply the first CNOT ring.  The rest of the circuit is one list of real,
orthogonal steps, which one executor runs with two buffers taking turns as
output: each later ring is a gather of whole rows, and each RY layer is one
batched matrix product per qubit group, by the Kronecker product of the
group's RY blocks.  The groups are contiguous, at most four qubits wide, the
wider ones low (n = 10 gives 4, 3, 3); a group of m qubits from qubit s acts
on the (2^(n-s-m), 2^m, 2^s * rows) view.  The readout multiplies a Z-sign
table by the squared amplitudes.  The ring, its inverse, the encoding's
gather rows, the groups and the Z table are one table per width, built from
bit arithmetic, and the RY factors are built once per weight matrix; the
gate-level ``oracles`` that audit this kernel share none of it.

The layer's API is ``vqc_batched_forward`` and ``vqc_batched_vjp``; both are
exact.  The forward runs the step list.  The VJP gives the input partials by
one adjoint sweep (Jones & Gacon, arXiv:2009.02823): the forward to the final
state psi, the adjoint 2 * psi * (Z @ upstream^T), then the list reversed,
with transposed factors and inverse gathers, and one more inverse gather for
the ring the encoding folds in; the inputs' pi-shifted product states take one
build per half register.  The weight partials use the parameter-shift rule,
+-pi/2 shifts and a factor of 1/2: one call per factor step builds its group's
2m shifted factors, and each run is the list with one swapped in, from a copy
of the encoded state.  A VJP holds three (2^n, rows) arrays, the encoded state
and two working buffers.  Jacobian column j is the VJP of the j-th basis vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, NumericError

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
            raise ConfigurationError(
                f"weights must have shape ({self.n_layers}, {self.n_qubits}), "
                f"got {self.weights.shape}"
            )
        if not np.all(np.isfinite(self.weights)):
            raise NumericError("weights contain non-finite entries")


# Widest RY factor, in qubits: a layer costs sum(2^width) multiply-adds per amplitude,
# 32 at n = 10 ([4, 3, 3]) against 64 for two 5-qubit halves.  Forward at n = 10, 4 layers,
# 64 (32) rows, one BLAS thread, 2-CPU Xeon, medians of 15 interleaved runs: 1.68 (0.60) ms
# with this cap, 1.78 (0.66) ms with 3 ([3, 3, 2, 2]) and 2.15 (0.78) ms with 5 (the halves).
_GROUP_QUBITS = 4


class _Width(NamedTuple):
    """The kernel's tables for one register width; every array is read-only."""

    ring: np.ndarray  # gather index of the ring CNOT(0,1), ..., CNOT(n-1,0)
    unring: np.ndarray  # the gather that undoes it
    high: np.ndarray  # amplitude i after the encoding and the first ring is the product
    low: np.ndarray  # of high-half row high[i] and low-half row low[i]
    z: np.ndarray  # (2^n, n) Z eigenvalues, -1 where qubit j's bit is set
    groups: tuple[tuple[int, int], ...]  # (start, stop) qubits of each RY factor


@lru_cache(maxsize=None)
def _width(n: int) -> _Width:
    """The tables of an n-qubit register, built once from bit arithmetic.

    The ring is composed from its last gate back.  The qubit groups are contiguous,
    at most ``_GROUP_QUBITS`` wide, as equal as possible, the wider ones on the low qubits.
    """
    ring = np.arange(1 << n)
    if n >= 2:  # at n = 1 there is no ring: the identity gather is bit-exact
        for i in reversed(range(n)):
            ring ^= ((ring >> i) & 1) << ((i + 1) % n)
    h = n // 2
    z = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    count = -(-n // _GROUP_QUBITS)
    stops = np.cumsum([n // count + (k < n % count) for k in range(count)]).tolist()
    groups = tuple(zip([0, *stops[:-1]], stops))
    table = _Width(ring, np.argsort(ring), ring >> h, ring & ((1 << h) - 1), z, groups)
    for array in table[:-1]:
        array.flags.writeable = False
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


@lru_cache(maxsize=2)
def _layer_factors(weight_bytes: bytes, n_layers: int, n: int) -> tuple[np.ndarray, ...]:
    """RY factors of each qubit group per layer, keyed on the weights' bytes.

    The row blocks of one evaluation, and a training step's forward and its VJP,
    share their weights, so they build these once; two entries hold one per head.
    """
    weights = np.frombuffer(weight_bytes).reshape(n_layers, n)
    return tuple(_ry_factors(weights[:, start:stop]) for start, stop in _width(n).groups)


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


def _encode(X: np.ndarray, amps: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write the encoded state of every row of ``X``, first ring applied, into ``amps``;
    return the (high, low) half-register product states it was built from."""
    table, h = _width(X.shape[1]), X.shape[1] // 2
    high, low = _product_state(X[:, h:]), _product_state(X[:, :h])
    np.take(high, table.high, axis=0, out=amps, mode="clip")
    np.take(low, table.low, axis=0, out=spare, mode="clip")
    amps *= spare
    return high, low


def _steps(params: QuantumLayerParams, rows: int) -> list:
    """The circuit after the encoding, as (ring, None) gathers and (RY factor, view) products.

    Per layer, the ring (the encoding folds in layer 0's), then each qubit group's
    factor on its view; factor step (layer, group k) is at layer * (groups + 1) + k.
    """
    n, table = params.n_qubits, _width(params.n_qubits)
    factors = _layer_factors(params.weights.tobytes(), params.n_layers, n)
    views = [(1 << (n - stop), 1 << (stop - start), rows << start) for start, stop in table.groups]
    steps = []
    for layer in range(params.n_layers):
        if layer:
            steps.append((table.ring, None))
        steps += [(group[layer], view) for group, view in zip(factors, views)]
    return steps


def _adjoint(steps: list, unring: np.ndarray) -> list:
    """The inverse of the encoding's ring and ``steps``, in the order that undoes them.

    Every step is real and orthogonal: a factor's inverse is its transpose, and a
    ring's inverse is the ``unring`` gather.
    """
    undone = [(unring, None) if view is None else (op.T, view) for op, view in reversed(steps)]
    return undone + [(unring, None)]


def _run(amps: np.ndarray, spare: np.ndarray, steps: list) -> tuple[np.ndarray, np.ndarray]:
    """Apply ``steps`` to ``amps``, the two buffers taking turns as output.

    Returns (the buffer holding the result, the other one).
    """
    for op, view in steps:
        if view is None:  # mode="clip" gathers straight into ``spare``; "raise" buffers a copy
            np.take(amps, op, axis=0, out=spare, mode="clip")
        else:
            np.matmul(op, amps.reshape(view), out=spare.reshape(view))
        amps, spare = spare, amps
    return amps, spare


def _readout(amps: np.ndarray) -> np.ndarray:
    """(rows, n) <Z> of every qubit from the final state; squares ``amps`` in place."""
    np.square(amps, out=amps)
    return amps.T @ _width(amps.shape[0].bit_length() - 1).z


def _input_partials(X: np.ndarray, high: np.ndarray, low: np.ndarray, adj: np.ndarray,
                    spare: np.ndarray) -> np.ndarray:
    """dL/dX from the adjoint ``adj`` of the encoded product state; ``spare`` is scratch.

    ``high`` and ``low`` are the half-register product states that ``_encode`` built.
    Each half register's adjoint is ``adj`` contracted with the other half's product
    state.  d/dx RY(x)|0> = RY(x + pi)|0> / 2, so the partial of x_k is half its half's
    adjoint contracted with block k of one product state of the half, x_k + pi in block k.
    """
    rows, n = X.shape
    h = n // 2
    adj = adj.reshape(1 << (n - h), 1 << h, rows)  # (high-half state, low-half state, row)
    scratch = spare.reshape(adj.shape)
    d_high = np.multiply(adj, low, out=scratch).sum(axis=1)
    d_low = np.multiply(adj, high[:, None], out=scratch).sum(axis=0)
    d_inputs = np.empty(X.shape)
    for cols, adjoint in ((slice(0, h), d_low), (slice(h, n), d_high)):
        m = cols.stop - cols.start
        shifted = (X[:, cols] + np.pi * np.eye(m)[:, None]).reshape(m * rows, m)
        states = _product_state(shifted).reshape(1 << m, m, rows)  # -1 fails at m = 0
        d_inputs[:, cols] = np.multiply(states, adjoint[:, None], out=states).sum(axis=0).T
        del states  # else both halves' states are alive at once, the VJP's peak
    return 0.5 * d_inputs


def _check_batch(X: np.ndarray, n_qubits: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_qubits:
        raise ConfigurationError(f"expected (batch, {n_qubits}) inputs, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise NumericError("input contains non-finite entries")
    return X


def vqc_batched_forward(X: np.ndarray, params: QuantumLayerParams) -> np.ndarray:
    """Evaluate the circuit for every row of ``X`` independently."""
    X = _check_batch(X, params.n_qubits)
    amps = np.empty((1 << params.n_qubits, len(X)))
    spare = np.empty_like(amps)
    _encode(X, amps, spare)
    return _readout(_run(amps, spare, _steps(params, len(X)))[0])


def vqc_batched_vjp(
    X: np.ndarray, params: QuantumLayerParams, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vector-Jacobian product of the batched layer, exact in both outputs.

    ``upstream`` is dL/d(outputs), shape (batch, n_qubits).  Returns (dL/dX of shape
    (batch, n_qubits), dL/dweights of shape (n_layers, n_qubits) summed over the
    batch).  dL/dX comes from one adjoint sweep and one product state per half;
    dL/dweights from parameter shift, (f(w + pi/2) - f(w - pi/2)) / 2, each factor
    step's shifted factors built in one call.  At most three (2^n, batch) arrays live.
    """
    n, layers = params.n_qubits, params.n_layers
    X = _check_batch(X, n)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != X.shape:
        raise ConfigurationError(
            f"upstream gradient shape {upstream.shape} does not match {X.shape}"
        )
    table, steps = _width(n), _steps(params, len(X))
    encoded = np.empty((1 << n, len(X)))
    amps, spare = np.empty_like(encoded), np.empty_like(encoded)
    halves = _encode(X, encoded, spare)

    # Input partials: the forward to psi, then the adjoint sweep back to the encoding.
    np.copyto(amps, encoded)
    final, adj = _run(amps, spare, steps)
    np.matmul(table.z, 2.0 * upstream.T, out=adj)
    adj *= final
    d_inputs = _input_partials(X, *halves, *_run(adj, final, _adjoint(steps, table.unring)))

    d_weights = np.empty((layers, n))
    for at, (factor, view) in enumerate(steps):
        if view is None:
            continue
        layer, k = divmod(at, len(table.groups) + 1)
        start, stop = table.groups[k]
        m = stop - start
        outs = np.empty((2 * m, *X.shape))
        shifts = params.weights[layer, start:stop] + _SHIFT * np.vstack([np.eye(m), -np.eye(m)])
        for j, shifted in enumerate(_ry_factors(shifts)):
            steps[at] = (shifted, view)
            np.copyto(amps, encoded)
            outs[j] = _readout(_run(amps, spare, steps)[0])
        steps[at] = (factor, view)
        d_weights[layer, start:stop] = 0.5 * ((outs[:m] - outs[m:]) * upstream).sum(axis=(1, 2))
    return d_inputs, d_weights
