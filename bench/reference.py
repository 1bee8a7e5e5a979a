"""Reference computations that the benchmark's output checks rely on.

They are written apart from ``vqcontrast`` so that a fault in the program's
kernels cannot hide inside its own checks:

- the statevector simulator keeps one state as a ``(2,)*n`` tensor with one
  axis per qubit and applies each gate by ``tensordot`` or slicing, where
  ``vqcontrast.vqc`` sweeps flat ``(batch, 2**n)`` amplitude rows;
- the gradient oracle is a central difference along one direction;
- the ranker sorts each score row, where ``topk_accuracy`` counts how many
  classes outrank the true one.
"""

from __future__ import annotations

import numpy as np


def apply_ry(psi: np.ndarray, qubit: int, theta: float) -> np.ndarray:
    """RY(theta) on one qubit: [[cos t/2, -sin t/2], [sin t/2, cos t/2]]."""
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    gate = np.array([[c, -s], [s, c]])
    return np.moveaxis(np.tensordot(gate, psi, axes=([1], [qubit])), 0, qubit)


def apply_cnot(psi: np.ndarray, control: int, target: int) -> np.ndarray:
    """Flip the target axis on the half of the state where control is 1."""
    out = psi.copy()
    where = [slice(None)] * psi.ndim
    where[control] = 1
    where = tuple(where)
    # Indexing away the control axis shifts later axes down by one.
    out[where] = np.flip(psi[where], axis=target - (target > control))
    return out


def circuit_state(x, weights) -> np.ndarray:
    """Final state of the encoding circuit for one row of angles.

    RY(x_i) on every qubit, then per layer the CNOT ring
    CNOT(i, (i+1) mod n) for i in index order (skipped for one qubit)
    followed by RY(w[l][i]) on every qubit.
    """
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    n = x.shape[0]
    psi = np.zeros((2,) * n)
    psi[(0,) * n] = 1.0
    for q in range(n):
        psi = apply_ry(psi, q, x[q])
    for layer in weights:
        if n >= 2:
            for q in range(n):
                psi = apply_cnot(psi, q, (q + 1) % n)
        for q in range(n):
            psi = apply_ry(psi, q, layer[q])
    return psi


def z_expectations(psi: np.ndarray) -> np.ndarray:
    """<Z_q> = P(qubit q reads 0) - P(qubit q reads 1) for every qubit."""
    probs = psi**2
    return np.array(
        [probs.take(0, axis=q).sum() - probs.take(1, axis=q).sum() for q in range(psi.ndim)]
    )


def circuit_rows(X, weights) -> np.ndarray:
    """Per-qubit <Z> for every row of ``X``, one row at a time."""
    return np.array([z_expectations(circuit_state(row, weights)) for row in np.asarray(X)])


def directional_derivative(f, theta: np.ndarray, direction: np.ndarray, h: float = 1e-5) -> float:
    """Central difference (f(theta + h d) - f(theta - h d)) / 2h of a scalar f."""
    return (f(theta + h * direction) - f(theta - h * direction)) / (2.0 * h)


def topk_hits(scores, true_idx, k: int) -> int:
    """Queries whose true class is among the k best scores of their row.

    A stable sort of the negated scores keeps equal scores in class order,
    so on a tie the lower class index ranks first.
    """
    order = np.argsort(-np.asarray(scores, dtype=np.float64), axis=1, kind="stable")
    position = np.argmax(order == np.asarray(true_idx)[:, None], axis=1)
    return int((position < k).sum())
