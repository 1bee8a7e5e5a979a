"""
Exact gradients for quantum circuits
====================================

The parameter-shift rule turns two extra circuit evaluations per angle
into an exact derivative: d<Z>/dtheta = (f(theta + pi/2) - f(theta - pi/2)) / 2.
No finite-difference step size to tune, no truncation error.
"""

import numpy as np

from vqcontrast import (
    QuantumLayerParams,
    cnot,
    dense_unitary_oracle,
    ry,
    vqc_batched_forward,
    vqc_forward,
    vqc_parameter_shift_grad,
)

# One qubit, one layer: the circuit RY(x) RY(w) measures <Z> = cos(x + w).
x, w = 0.9, -0.4
params = QuantumLayerParams(n_qubits=1, n_layers=1, weights=np.array([[w]]))
out = vqc_forward(np.array([x]), params)
print("forward:", out[0], " closed form cos(x+w):", np.cos(x + w))

grad = vqc_parameter_shift_grad(np.array([x]), params)
print("shift-rule d/dw:", grad.d_weights[0, 0, 0],
      " closed form -sin(x+w):", -np.sin(x + w))

# Compare against central finite differences on a larger circuit.
rng = np.random.default_rng(0)
n_qubits, n_layers = 3, 2
weights = rng.uniform(-np.pi, np.pi, size=(n_layers, n_qubits))
params = QuantumLayerParams(n_qubits, n_layers, weights)
inputs = rng.uniform(-np.pi, np.pi, size=n_qubits)

grad = vqc_parameter_shift_grad(inputs, params)
h = 1e-6
worst = 0.0
for l in range(n_layers):
    for i in range(n_qubits):
        bumped = weights.copy()
        bumped[l, i] += h
        dipped = weights.copy()
        dipped[l, i] -= h
        fd = (
            vqc_forward(inputs, QuantumLayerParams(n_qubits, n_layers, bumped))
            - vqc_forward(inputs, QuantumLayerParams(n_qubits, n_layers, dipped))
        ) / (2 * h)
        worst = max(worst, np.abs(grad.d_weights[l, i] - fd).max())
print(f"\n{n_qubits} qubits, {n_layers} layers: "
      f"max |shift rule - finite difference| = {worst:.3e}")

# The batched kernel runs whole feature matrices through the circuit at
# once. Check each row against the dense Kronecker oracle, which builds the
# circuit's full 2^n x 2^n unitary gate by gate and shares no code with it.
batch = rng.uniform(-np.pi, np.pi, size=(4, n_qubits))
batched = vqc_batched_forward(batch, params)
ring = [cnot(i, (i + 1) % n_qubits) for i in range(n_qubits)]
signs = 1 - 2 * ((np.arange(2**n_qubits)[:, None] >> np.arange(n_qubits)) & 1)
worst = 0.0
for row, out in zip(batch, batched):
    gates = [ry(i, row[i]) for i in range(n_qubits)]
    for l in range(n_layers):
        gates += ring + [ry(i, weights[l, i]) for i in range(n_qubits)]
    probs = np.abs(dense_unitary_oracle(gates, n_qubits)[:, 0]) ** 2
    worst = max(worst, np.abs(out - probs @ signs).max())
print("batched vs dense oracle, max |difference|:", worst)
print("\nper-qubit <Z> for the batch:")
print(np.round(batched, 4))
