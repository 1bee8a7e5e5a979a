"""
Exact gradients for quantum circuits
====================================

Both of the circuit's gradients are exact: no finite-difference step size
to tune, no truncation error.

The circuit layer takes a batch of input rows. ``vqc_batched_vjp`` returns
the vector-Jacobian product: given dL/d<Z> for every row, it gives dL/dx per
row and dL/dweights summed over the batch. A single input is a batch of one.

- dL/dx comes from one adjoint sweep: the forward runs to the final state,
  and dL/d(state) is pulled back through the circuit's gates to the encoding.
- dL/dweights comes from the parameter-shift rule, two extra circuit runs
  per weight: d<Z>/dtheta = (f(theta + pi/2) - f(theta - pi/2)) / 2.
"""

import numpy as np

from vqcontrast.gradcheck import central_difference
from vqcontrast.oracles import circuit_gates, dense_unitary_oracle, expect_z
from vqcontrast.vqc import QuantumLayerParams, vqc_batched_forward, vqc_batched_vjp

# One qubit, one layer: the circuit RY(x) RY(w) measures <Z> = cos(x + w).
x, w = 0.9, -0.4
params = QuantumLayerParams(n_qubits=1, n_layers=1, weights=np.array([[w]]))
row = np.array([[x]])
out = vqc_batched_forward(row, params)
print("forward:", out[0, 0], " closed form cos(x+w):", np.cos(x + w))

d_inputs, d_weights = vqc_batched_vjp(row, params, upstream=np.ones((1, 1)))
print("shift-rule d/dw:", d_weights[0, 0], " closed form -sin(x+w):", -np.sin(x + w))
print("adjoint    d/dx:", d_inputs[0, 0], " closed form -sin(x+w):", -np.sin(x + w))

# Compare against central finite differences on a larger circuit, for the
# scalar loss L = sum_j r_j <Z_j> with a fixed random r.
rng = np.random.default_rng(0)
n_qubits, n_layers = 3, 2
weights = rng.uniform(-np.pi, np.pi, size=(n_layers, n_qubits))
params = QuantumLayerParams(n_qubits, n_layers, weights)
inputs = rng.uniform(-np.pi, np.pi, size=(1, n_qubits))
r = rng.standard_normal((1, n_qubits))

d_inputs, d_weights = vqc_batched_vjp(inputs, params, r)
# central_difference nudges its array in place and reruns the loss each time
def loss():
    return float((vqc_batched_forward(inputs, params) * r).sum())


fd_weights = central_difference(loss, params.weights, 1e-6)
fd_inputs = central_difference(loss, inputs, 1e-6)
print(f"\n{n_qubits} qubits, {n_layers} layers, max |exact - finite difference|: "
      f"weights (shift rule) {np.abs(d_weights - fd_weights).max():.3e}, "
      f"inputs (adjoint) {np.abs(d_inputs - fd_inputs).max():.3e}")

# The batched kernel runs whole feature matrices through the circuit at
# once. Check each row against the dense Kronecker oracle, which builds the
# circuit's full 2^n x 2^n unitary gate by gate and shares no code with it.
batch = rng.uniform(-np.pi, np.pi, size=(4, n_qubits))
batched = vqc_batched_forward(batch, params)
dense = [expect_z(dense_unitary_oracle(circuit_gates(row, weights), n_qubits)[:, 0])
         for row in batch]
print("batched vs dense oracle, max |difference|:", np.abs(batched - dense).max())
print("\nper-qubit <Z> for the batch:")
print(np.round(batched, 4))
