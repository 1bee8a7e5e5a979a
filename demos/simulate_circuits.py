"""
Statevector simulation basics
=============================

Build small circuits gate by gate, watch the amplitudes, and cross-check
the strided kernels against a dense matrix built by Kronecker products.
The kernels act on a (rows, 2^n) array of amplitudes; one state is one row.
"""

import numpy as np

from vqcontrast.oracles import (
    cnot,
    cnot_index,
    dense_unitary_oracle,
    expect_z,
    gate_matrix,
    ry,
    ry_rows,
    run_gates,
)

np.set_printoptions(precision=4, suppress=True)

# run_gates(ops, n) applies a gate list to |0...0>; with no gates it is |0...0>
# itself, one row of amplitudes.  expect_z reads per-qubit <Z> off every row.

# A single qubit rotated by RY(theta) interpolates |0> -> |1>.
theta = np.pi / 3
state = run_gates([], 1)
ry_rows(state, 0, theta)
print("RY(pi/3)|0> amplitudes:", state[0])
print("  expected cos/sin of theta/2:", np.cos(theta / 2), np.sin(theta / 2))
print("  <Z> =", expect_z(state)[0, 0], "(should be cos(theta) =", np.cos(theta), ")")

# Qubit 0 is the least significant bit of the basis index, so |q1 q0=1>
# is index 1 and CNOT(control=0, target=1) maps index 1 -> index 3.
state = run_gates([], 2)
ry_rows(state, 0, np.pi)  # flip qubit 0: now |01>
print("\nafter RY(pi) on qubit 0:", state[0])
state = state[:, cnot_index(2, control=0, target=1)]
print("after CNOT(0 -> 1):      ", state[0], " (|11> = index 3)")

# An entangling pair: rotate qubit 0 halfway, then copy onto qubit 1.
state = run_gates([], 2)
ry_rows(state, 0, np.pi / 2)
state = state[:, cnot_index(2, 0, 1)]
print("\nentangled amplitudes:", state[0])
print("  both qubits now share one random bit: <Z0>, <Z1> =",
      np.round(expect_z(state)[0], 12))

# One call advances many states: here each row gets its own angle.
angles = np.linspace(0, np.pi, 5)
rows = run_gates([], 1, rows=len(angles))
ry_rows(rows, 0, angles)
print("\n<Z> for RY(0 .. pi), one row each:", expect_z(rows)[:, 0])

# The dense oracle multiplies explicit 2^n x 2^n matrices in gate order.
# It is exponential and only exists to audit the fast strided kernels, which
# run_gates applies one gate at a time.
ops = [ry(0, 0.7), cnot(0, 1), ry(1, -1.2), cnot(1, 0), ry(0, 2.1)]
fast = run_gates(ops, 2)
dense = dense_unitary_oracle(ops, 2)[:, 0]
print("\nstrided vs dense oracle, max |difference|:", np.abs(fast[0] - dense).max())

# gate_matrix embeds one gate into the full space; CNOT with control on
# qubit 1 is the textbook block matrix under this bit ordering.
print("\nCNOT(control=1, target=0) as a 4x4 matrix:")
print(gate_matrix(cnot(1, 0), 2).real)
