"""Reference oracles for the circuit layer, for tests, demos and audits only.

Amplitudes are indexed by the basis-state integer, with qubit 0 as the least
significant bit.  No training or evaluation module imports this one, so the
fused kernel in ``vqc`` is audited by code it does not share:

- ``circuit_gates`` writes the paper circuit of one input row out gate by gate;
- ``run_gates`` applies a gate list to |0...0> one gate at a time, over a
  ``(rows, 2^n)`` amplitude array, through two strided kernels: ``ry_rows``
  rotates one qubit in place (a shared angle or one per row) and
  ``cnot_index`` is the gather index that applies one CNOT;
- ``dense_unitary_oracle`` builds the full 2^n x 2^n unitary of a gate list
  by explicit Kronecker expansion, sharing no code with the kernels;
- ``expect_z`` reads per-qubit <Z> off real or complex amplitudes.

The kernels do not validate their arguments.  Only the two gates the
encoding circuit needs exist: RY and CNOT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import ConfigurationError, NumericError

_ORACLE_MAX_QUBITS = 6

_I2 = np.eye(2, dtype=complex)
_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def ry_matrix(angle: float) -> np.ndarray:
    """2x2 rotation about the Y axis, exp(-i*angle/2 * sigma_y)."""
    half = 0.5 * angle
    c, s = math.cos(half), math.sin(half)
    return np.array([[c, -s], [s, c]], dtype=complex)


@dataclass(frozen=True)
class GateOp:
    """One gate in a circuit description.

    ``qubit`` is the target for both kinds; ``angle`` is set for RY and
    ``control`` for CNOT.
    """

    kind: Literal["ry", "cnot"]
    qubit: int
    angle: float | None = None
    control: int | None = None

    def __post_init__(self):
        if self.kind == "ry":
            if self.angle is None:
                raise ConfigurationError("ry gate needs an angle")
            if not math.isfinite(self.angle):
                raise NumericError(f"non-finite rotation angle {self.angle!r}")
        elif self.kind == "cnot":
            if self.control is None:
                raise ConfigurationError("cnot gate needs a control qubit")
            if self.control == self.qubit:
                raise IndexError("cnot control and target must differ")
        else:
            raise ConfigurationError(f"unknown gate kind {self.kind!r}")


def ry(qubit: int, angle: float) -> GateOp:
    return GateOp("ry", qubit, angle=angle)


def cnot(control: int, target: int) -> GateOp:
    return GateOp("cnot", target, control=control)


def ry_rows(amps: np.ndarray, qubit: int, angle) -> None:
    """Rotate ``qubit`` about Y in every row of ``amps``, in place.

    ``amps`` has shape (rows, 2^n); ``angle`` is a scalar shared by all rows
    or a (rows,) array of per-row angles.
    """
    half = 0.5 * np.asarray(angle, dtype=np.float64)
    c, s = np.cos(half), np.sin(half)
    if c.ndim == 1:
        c = c[:, None, None]
        s = s[:, None, None]
    view = amps.reshape(amps.shape[0], -1, 2, 1 << qubit)
    a0 = view[:, :, 0, :].copy()
    a1 = view[:, :, 1, :]
    view[:, :, 0, :] = c * a0 - s * a1
    view[:, :, 1, :] = s * a0 + c * a1


def cnot_index(n_qubits: int, control: int, target: int) -> np.ndarray:
    """Gather index of CNOT: ``amps[:, cnot_index(...)]`` applies the gate."""
    idx = np.arange(1 << n_qubits)
    return np.where((idx >> control) & 1 == 1, idx ^ (1 << target), idx)


def _kron_embed(factors: dict[int, np.ndarray], n_qubits: int) -> np.ndarray:
    """Kronecker product placing the given 2x2 factors on their qubits.

    Qubit 0 is the least significant bit, so it is the rightmost factor.
    """
    out = np.array([[1.0 + 0.0j]])
    for q in range(n_qubits - 1, -1, -1):
        out = np.kron(out, factors.get(q, _I2))
    return out


def gate_matrix(op: GateOp, n_qubits: int) -> np.ndarray:
    """Full-space matrix of a single gate."""
    if op.kind == "ry":
        if not 0 <= op.qubit < n_qubits:
            raise IndexError(f"qubit {op.qubit} out of range")
        return _kron_embed({op.qubit: ry_matrix(op.angle)}, n_qubits)
    for q in (op.control, op.qubit):
        if not 0 <= q < n_qubits:
            raise IndexError(f"qubit {q} out of range")
    # CNOT = |0><0|_c (x) I  +  |1><1|_c (x) X_t
    return _kron_embed({op.control: _P0}, n_qubits) + _kron_embed(
        {op.control: _P1, op.qubit: _PAULI_X}, n_qubits
    )


def dense_unitary_oracle(ops: Sequence[GateOp], n_qubits: int) -> np.ndarray:
    """Product of full-space gate matrices, first gate applied first.

    Test oracle only: builds 2^n x 2^n matrices, so n is capped well below
    the simulator's limit.
    """
    if not 1 <= n_qubits <= _ORACLE_MAX_QUBITS:
        raise ConfigurationError(
            f"dense oracle supports 1..{_ORACLE_MAX_QUBITS} qubits, got {n_qubits}"
        )
    unitary = np.eye(1 << n_qubits, dtype=complex)
    for op in ops:
        unitary = gate_matrix(op, n_qubits) @ unitary
    return unitary


def circuit_gates(x, weights) -> list[GateOp]:
    """The circuit of one input row ``x`` under (layers, n) ``weights``, gate by gate.

    RY(x_i) on each qubit i, then per layer the ring CNOT(i, (i+1) mod n) in
    index order (none at n == 1) and RY(w[l][i]) on each qubit i.
    """
    n = len(x)
    ring = [cnot(i, (i + 1) % n) for i in range(n)] if n >= 2 else []
    gates = [ry(i, x[i]) for i in range(n)]
    for layer in weights:
        gates += ring + [ry(i, layer[i]) for i in range(n)]
    return gates


def run_gates(ops: Sequence[GateOp], n_qubits: int, rows: int = 1) -> np.ndarray:
    """(rows, 2^n) amplitudes of |0...0> after ``ops``, one kernel call per gate."""
    amps = np.zeros((rows, 1 << n_qubits))
    amps[:, 0] = 1.0
    for op in ops:
        if op.kind == "ry":
            ry_rows(amps, op.qubit, op.angle)
        else:
            amps = amps[:, cnot_index(n_qubits, op.control, op.qubit)]
    return amps


def expect_z(amps) -> np.ndarray:
    """Per-qubit <Z> of real or complex amplitudes whose last axis has length 2^n."""
    amps = np.asarray(amps)
    n = amps.shape[-1].bit_length() - 1
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    return np.abs(amps) ** 2 @ np.where(bits == 1, -1.0, 1.0)
