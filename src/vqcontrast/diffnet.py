"""Minimal dense-tensor reverse-mode differentiation engine.

Every forward pass records backward closures on a fresh ``Tape``; calling
``tape.backward(loss)`` uses the tape up.  It pops the closures last to
first and runs each one, accumulating gradients into each ``Tensor.grad``,
so what only that op held (its output, the output's gradient and the arrays
its vjp captured) is freed once the backward has passed it.  A second call
finds the tape empty and adds nothing.

Every op records through ``Tape.op(inputs, value, vjp)``: the output wraps
``value``, and on the backward ``vjp(out.grad)`` gives one partial per
input, in order, each added to that input's ``grad``.  An output that never
reached the loss (its ``grad`` is None) is skipped without calling ``vjp``.

The op set is exactly what the encoders and the contrastive objective need:
a dense linear layer, the two EEG convolutions on (batch, channel, time)
arrays (a spatial convolution that collapses the electrode axis, then a 1-D
temporal convolution), batch normalization over the same layout, ELU, an
angle squash pi*tanh(x) used to bound rotation angles, row-wise L2
normalization, and reshape.  Optimization is Adam with bias correction,
which uses its gradients up as ``backward`` uses the tape up; its betas are
the paper's (0.5, 0.999), fixed on the class.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericError


class Tensor:
    """Dense double-precision array with a gradient slot.

    float32 data, such as the dataset's samples, is widened to float64 here,
    exactly, before any op computes with it.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None  # None: never reached the loss

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


class Tape:
    """Record of one forward pass, used up in reverse by ``backward``."""

    def __init__(self):
        self._ops: list[Callable[[], None]] = []

    def record(self, backward_fn: Callable[[], None]) -> None:
        self._ops.append(backward_fn)

    def op(self, inputs: tuple[Tensor, ...], value,
           vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]]) -> Tensor:
        """The output ``Tensor`` of ``value``, with its backward recorded."""
        out = Tensor(value)

        def backward():
            if out.grad is not None:
                for t, partial in zip(inputs, vjp(out.grad), strict=True):
                    t.accumulate(partial)

        self.record(backward)
        return out

    def backward(self, loss: Tensor) -> None:
        """Backpropagate ``loss``, using the tape up as it goes.

        Each closure is popped before it runs, so an op's output, gradient and
        captured inputs are freed once the backward has passed that op, and a
        second call adds nothing.
        """
        if loss.data.size != 1:
            raise ConfigurationError(f"backward needs a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        while self._ops:
            self._ops.pop()()


# ---------------------------------------------------------------------------
# Ops


def linear(tape: Tape, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y = x @ w + b for x of shape (batch, in)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ConfigurationError(f"linear: cannot multiply {x.shape} by {w.shape}")
    if b.shape != (w.shape[1],):
        raise ConfigurationError(f"linear: bias shape {b.shape} != ({w.shape[1]},)")
    return tape.op((x, w, b), x.data @ w.data + b.data,
                   lambda g: (g @ w.data.T, x.data.T @ g, g.sum(axis=0)))


def conv_spatial(tape: Tape, x: Tensor, kernel: Tensor) -> Tensor:
    """Collapse the electrode axis of (B, E, T) into feature maps.

    The kernel (F, E) spans the full electrode axis, so the output is (B, F, T).
    """
    if x.data.ndim != 3 or kernel.data.ndim != 2:
        raise ConfigurationError(
            f"conv_spatial: expected (B, E, T) input and (F, E) kernel, "
            f"got {x.shape} and {kernel.shape}"
        )
    if kernel.shape[1] != x.shape[1]:
        raise ConfigurationError(
            f"conv_spatial: kernel spans {kernel.shape[1]} electrodes, "
            f"input has {x.shape[1]}"
        )
    xs, ks = x.data, kernel.data
    return tape.op((x, kernel), ks @ xs,
                   lambda g: (ks.T @ g, (g @ xs.transpose(0, 2, 1)).sum(0)))


def conv_temporal(tape: Tape, x: Tensor, kernel: Tensor) -> Tensor:
    """1-D convolution along the time axis of (B, F, T).

    Kernel shape (G, F, k); output (B, G, T - k + 1); stride 1, no padding.
    One matmul per kernel tap, so no (B, F, T', k) window array is built.
    """
    if x.data.ndim != 3 or kernel.data.ndim != 3:
        raise ConfigurationError(
            f"conv_temporal: expected (B, F, T) input and (G, F, k) kernel, "
            f"got {x.shape} and {kernel.shape}"
        )
    if kernel.shape[1] != x.shape[1]:
        raise ConfigurationError(
            f"conv_temporal: kernel expects {kernel.shape[1]} maps, input has {x.shape[1]}"
        )
    k = kernel.shape[2]
    t_in = x.shape[2]
    if k > t_in:
        raise ConfigurationError(f"conv_temporal: kernel length {k} exceeds input length {t_in}")
    t_out = t_in - k + 1

    xs, ks = x.data, kernel.data
    acc = ks[:, :, 0] @ xs[:, :, :t_out]
    for off in range(1, k):
        acc += ks[:, :, off] @ xs[:, :, off : off + t_out]

    def vjp(g):
        gk = np.empty_like(ks)
        gx = np.zeros_like(xs)
        for off in range(k):
            gk[:, :, off] = (g @ xs[:, :, off : off + t_out].transpose(0, 2, 1)).sum(0)
            gx[:, :, off : off + t_out] += ks[:, :, off].T @ g
        return gx, gk

    return tape.op((x, kernel), acc, vjp)


BN_MOMENTUM = 0.1  # weight of the batch statistics in the running ones
BN_EPS = 1e-5


def batch_norm(
    tape: Tape,
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    train: bool,
) -> Tensor:
    """Per-feature standardization of (B, C, T) input with a learned affine map.

    Axis 1 is the feature axis.  Train mode uses the batch statistics and
    updates the running ones in place; eval mode uses the running ones.  The
    forward is one scale and shift per feature.
    """
    if x.data.ndim != 3:
        raise ConfigurationError(f"batch_norm: expected (B, C, T) input, got {x.shape}")
    channels = x.shape[1]
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise ConfigurationError("batch_norm: gamma/beta must match the feature axis")
    axes, count = (0, 2), x.shape[0] * x.shape[2]
    if train and count < 2:
        raise ConfigurationError("batch_norm: train mode needs at least 2 samples")

    if train:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var * count / (count - 1)
    else:
        mean = running_mean.copy()  # a later train step updates the buffer in place
        var = running_var

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma.data * inv_std
    y = x.data * scale[:, None]
    y += (beta.data - mean * scale)[:, None]

    def vjp(g):
        x_hat = (x.data - mean[:, None]) * inv_std[:, None]
        g_hat = g * gamma.data[:, None]
        if train:
            # Batch statistics depend on x, so propagate through mean and var.
            g_sum = g_hat.sum(axis=axes)
            gx_sum = (g_hat * x_hat).sum(axis=axes)
            dx = (g_hat - (g_sum / count)[:, None]
                  - x_hat * (gx_sum / count)[:, None]) * inv_std[:, None]
        else:
            dx = g_hat * inv_std[:, None]
        return dx, (g * x_hat).sum(axis=axes), g.sum(axis=axes)

    return tape.op((x, gamma, beta), y, vjp)


def elu(tape: Tape, x: Tensor) -> Tensor:
    """x for x > 0, exp(x) - 1 otherwise (alpha = 1)."""
    # max(expm1(min(x, 0)), x) needs no sign mask and is exact: expm1(x) >= x
    y = np.expm1(np.minimum(x.data, 0.0))
    np.maximum(y, x.data, out=y)
    return tape.op((x,), y, lambda g: (g * (np.minimum(y, 0.0) + 1.0),))  # 1, or exp(x) if x <= 0


def angle_squash(tape: Tape, x: Tensor) -> Tensor:
    """pi * tanh(x): squashes features into the open interval (-pi, pi)."""
    t = np.tanh(x.data)
    return tape.op((x,), np.pi * t, lambda g: (g * np.pi * (1.0 - t * t),))


def l2_normalize(tape: Tape, x: Tensor) -> Tensor:
    """Scale every row of (B, D) to unit Euclidean norm."""
    if x.data.ndim != 2:
        raise ConfigurationError(f"l2_normalize: expected (B, D) input, got {x.shape}")
    norms = np.linalg.norm(x.data, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        raise NumericError("l2_normalize: degenerate zero-norm row")
    y = x.data / norms
    return tape.op((x,), y, lambda g: ((g - y * (g * y).sum(axis=1, keepdims=True)) / norms,))


def reshape(tape: Tape, x: Tensor, shape: tuple[int, ...]) -> Tensor:
    return tape.op((x,), x.data.reshape(shape), lambda g: (g.reshape(x.data.shape),))


def flatten(tape: Tape, x: Tensor) -> Tensor:
    """Collapse everything after the batch axis (explicit width: 0 rows work)."""
    return reshape(tape, x, (x.shape[0], int(np.prod(x.shape[1:]))))


# ---------------------------------------------------------------------------
# Optimizer


class Adam:
    """Adam with bias correction over named tensors, with the paper's betas.

    The moments are kept per parameter and the step count is shared, so the
    bias corrections are worked out once per step.  A step reads every
    parameter's gradient and sets it to None; it checks all of them first,
    so a step that raises moves nothing.
    """

    beta1 = 0.5
    beta2 = 0.999
    EPS = 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.steps = 0

    def step(self) -> None:
        for name, t in self.params.items():
            if t.grad is None:
                raise ConfigurationError(f"Adam: no gradient, {name!r} never reached the loss")
            if t.grad.shape != t.data.shape:
                raise ConfigurationError(
                    f"Adam: gradient {t.grad.shape} for {name!r} of shape {t.shape}"
                )
        self.steps += 1
        correct1 = 1.0 - self.beta1**self.steps
        correct2 = 1.0 - self.beta2**self.steps
        for name, t in self.params.items():
            g, t.grad = t.grad, None
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g**2
            m_hat = self.m[name] / correct1
            v_hat = self.v[name] / correct2
            # asarray keeps 0-d parameters (e.g. a scalar temperature) as ndarrays
            t.data = np.asarray(t.data - self.lr * (m_hat / (np.sqrt(v_hat) + self.EPS)))
