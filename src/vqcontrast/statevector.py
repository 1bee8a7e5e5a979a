"""Exact pure-state simulation for small qubit registers.

Amplitudes are indexed by the basis-state integer, with qubit 0 as the least
significant bit.  Three strided kernels do all the work, each over a
``(rows, 2^n)`` amplitude array so one call advances many states at once:

- ``ry_rows`` rotates one qubit in place, with a shared angle or one per row,
  at O(2^n) per row instead of the O(4^n) of a full matrix product;
- ``cnot_index`` is the gather index that applies one CNOT;
- ``z_signs`` is the table that turns probabilities into per-qubit <Z>.

The circuit layer in ``vqc`` runs its batches through these kernels, and
``StateVector`` runs them on a single complex state with gate-by-gate
checks.  Only the two gates the encoding circuit needs exist: RY and CNOT.

``dense_unitary_oracle`` builds the full 2^n x 2^n unitary of a gate list by
explicit Kronecker expansion.  It shares no code with the kernels, so it can
audit them; no production code path uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import ConfigurationError, NumericError

MAX_QUBITS = 16
_ORACLE_MAX_QUBITS = 6
_NORM_TOL = 1e-12

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


def z_signs(n_qubits: int) -> np.ndarray:
    """(2^n, n) table of Z eigenvalues; ``probs @ z_signs(n)`` gives each <Z_j>."""
    idx = np.arange(1 << n_qubits)
    return 1.0 - 2.0 * ((idx[:, None] >> np.arange(n_qubits)[None, :]) & 1)


class StateVector:
    """Pure state of ``n_qubits`` qubits as 2^n complex amplitudes."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes: np.ndarray | None = None):
        if not 1 <= n_qubits <= MAX_QUBITS:
            raise ConfigurationError(
                f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}"
            )
        self.n_qubits = n_qubits
        dim = 1 << n_qubits
        if amplitudes is None:
            amps = np.zeros(dim, dtype=complex)
            amps[0] = 1.0
        else:
            amps = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
            if amps.size != dim:
                raise ConfigurationError(
                    f"expected {dim} amplitudes for {n_qubits} qubits, got {amps.size}"
                )
        self.amplitudes = amps
        self._check_norm()

    def _check_norm(self):
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > _NORM_TOL:
            raise NumericError(f"state norm drifted to {norm!r}")

    def _check_qubit(self, qubit: int):
        if not 0 <= qubit < self.n_qubits:
            raise IndexError(f"qubit {qubit} out of range for {self.n_qubits} qubits")

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amplitudes)

    def apply_ry(self, qubit: int, angle: float) -> "StateVector":
        """Rotate ``qubit`` about Y by ``angle`` radians, in place."""
        self._check_qubit(qubit)
        if not math.isfinite(angle):
            raise NumericError(f"non-finite rotation angle {angle!r}")
        ry_rows(self.amplitudes[None], qubit, angle)
        self._check_norm()
        return self

    def apply_cnot(self, control: int, target: int) -> "StateVector":
        """Flip ``target`` on every basis state whose ``control`` bit is set."""
        self._check_qubit(control)
        self._check_qubit(target)
        if control == target:
            raise IndexError("cnot control and target must differ")
        self.amplitudes = self.amplitudes[cnot_index(self.n_qubits, control, target)]
        self._check_norm()
        return self

    def apply_gate(self, op: GateOp) -> "StateVector":
        if op.kind == "ry":
            return self.apply_ry(op.qubit, op.angle)
        return self.apply_cnot(op.control, op.qubit)

    def expect_z(self, qubit: int) -> float:
        """Expectation of Pauli-Z on ``qubit``: +1 for |0>, -1 for |1>."""
        self._check_qubit(qubit)
        probs = self.amplitudes.real**2 + self.amplitudes.imag**2
        return float(np.dot(probs, z_signs(self.n_qubits)[:, qubit]))


def new_zero_state(n_qubits: int) -> StateVector:
    """The all-zeros computational basis state |0...0>."""
    return StateVector(n_qubits)


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
