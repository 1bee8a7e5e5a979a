"""Output checks. Each raises ``CheckFailure`` with a one-line reason.

Every check compares the program's output with a computation from
``reference`` or with a property the method must have; none compares with a
stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np

from reference import circuit_rows, directional_derivative, topk_hits

FORWARD_TOL = 1e-10
# Central differences with h = 1e-5 carry O(h^2) truncation and O(eps/h)
# rounding error, both far below this share of the derivative.
GRADIENT_REL_TOL = 1e-6
UNIT_NORM_TOL = 1e-9


class CheckFailure(Exception):
    pass


def check_forward(X, weights, out) -> None:
    """``out`` is the program's per-qubit <Z> for the rows of ``X``."""
    want = circuit_rows(X, weights)
    out = np.asarray(out)
    if out.shape != want.shape:
        raise CheckFailure(f"circuit output shape {out.shape}, expected {want.shape}")
    err = float(np.abs(out - want).max())
    if not err <= FORWARD_TOL:
        raise CheckFailure(f"circuit output differs from the reference simulator by {err:.3e}")


def check_directional(name: str, f, theta, grad, rng: np.random.Generator) -> None:
    """``grad`` must give f's central-difference slope along a random direction."""
    direction = rng.standard_normal(theta.shape)
    direction /= np.linalg.norm(direction)
    want = directional_derivative(f, theta, direction)
    got = float(np.dot(grad, direction))
    err = abs(got - want)
    if not err <= GRADIENT_REL_TOL * max(abs(want), 1e-3):
        raise CheckFailure(
            f"{name}: gradient gives slope {got:.12g}, central difference {want:.12g}"
        )


def check_vjp(X, weights, upstream, d_inputs, d_weights, rng: np.random.Generator) -> None:
    """The program's VJP of sum(upstream * circuit(X, weights)) in (X, weights)."""
    X = np.asarray(X, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    split = X.size

    def f(theta):
        return float(np.sum(upstream * circuit_rows(
            theta[:split].reshape(X.shape), theta[split:].reshape(weights.shape))))

    theta = np.concatenate([X.ravel(), weights.ravel()])
    grad = np.concatenate([np.ravel(d_inputs), np.ravel(d_weights)])
    check_directional("vqc_batched_vjp", f, theta, grad, rng)


def check_unit_rows(name: str, rows) -> None:
    norms = np.linalg.norm(np.asarray(rows), axis=1)
    worst = float(np.abs(norms - 1.0).max())
    if not worst <= UNIT_NORM_TOL:
        raise CheckFailure(f"{name} rows are off unit norm by {worst:.3e}")


def check_finite(name: str, values) -> None:
    if not np.all(np.isfinite(np.asarray(values, dtype=np.float64))):
        raise CheckFailure(f"{name} holds a non-finite value")


def check_topk(scores, true_idx, top1: float, top5: float) -> None:
    """``top1``/``top5`` must equal the reference ranking of ``scores``."""
    n_query, n_class = np.shape(scores)
    for k, got in ((1, top1), (5, top5)):
        want = topk_hits(scores, true_idx, min(k, n_class)) / n_query
        if got != want:
            raise CheckFailure(f"top-{k} is {got!r}, the reference ranking gives {want!r}")


def check_learning(first_loss: float, final_loss: float, top1: float,
                   n_queries: int, n_classes: int) -> None:
    """Loss halves and zero-shot top-1 beats chance by 3 binomial SE."""
    if not final_loss < 0.5 * first_loss:
        raise CheckFailure(f"final loss {final_loss:.4f} is not below half of {first_loss:.4f}")
    chance = 1.0 / n_classes
    se = np.sqrt(chance * (1.0 - chance) / n_queries)
    if not top1 > chance + 3.0 * se:
        raise CheckFailure(f"top-1 {top1:.4f} is within 3 SE ({se:.4f}) of chance {chance:.4f}")


def check_round_trip(saved: dict, loaded: dict) -> None:
    """Loaded params equal the float32 rounding of the saved ones, bit for bit."""
    if set(saved) != set(loaded):
        raise CheckFailure("round trip changed the set of parameter names")
    for name, value in saved.items():
        want = np.asarray(value, dtype=np.float32).astype(np.float64)
        got = np.asarray(loaded[name], dtype=np.float64)
        if got.shape != want.shape or got.tobytes() != want.tobytes():
            raise CheckFailure(f"parameter {name!r} changed in the QTNS round trip")
