"""Minimal dense-tensor reverse-mode differentiation engine.

Every forward pass records backward closures on a fresh ``Tape``; calling
``tape.backward(loss)`` replays them in reverse and accumulates gradients
into each ``Tensor.grad``.  Tapes are never reused across steps.

The op set is exactly what the encoders and the contrastive objective need:
a dense linear layer, the two EEG convolutions (a spatial convolution that
collapses the electrode axis, then a 1-D temporal convolution), batch
normalization, ELU, an angle squash pi*tanh(x) used to bound rotation
angles, row-wise L2 normalization, and reshape.  Optimization is Adam with
bias correction and optional decoupled weight decay; its hyperparameters
come from the caller (the defaults live in ``RunConfig``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericError, ShapeError


class Tensor:
    """Dense double-precision array with a gradient slot."""

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
    """Record of one forward pass, replayed in reverse for gradients."""

    def __init__(self):
        self._ops: list[Callable[[], None]] = []

    def record(self, backward_fn: Callable[[], None]) -> None:
        self._ops.append(backward_fn)

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        for fn in reversed(self._ops):
            fn()


# ---------------------------------------------------------------------------
# Ops


def linear(tape: Tape, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y = x @ w + b for x of shape (batch, in)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: cannot multiply {x.shape} by {w.shape}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"linear: bias shape {b.shape} != ({w.shape[1]},)")
    out = Tensor(x.data @ w.data + b.data)

    def backward():
        g = out.grad
        if g is None:
            return
        x.accumulate(g @ w.data.T)
        w.accumulate(x.data.T @ g)
        b.accumulate(g.sum(axis=0))

    tape.record(backward)
    return out


def conv_spatial(tape: Tape, x: Tensor, kernel: Tensor) -> Tensor:
    """Collapse the electrode axis of (B, 1, E, T) into feature maps.

    The kernel spans the full electrode axis: shape (F, 1, E, 1), stride 1,
    no padding, so the output is (B, F, 1, T).
    """
    if x.data.ndim != 4 or x.shape[1] != 1:
        raise ShapeError(f"conv_spatial: expected (B, 1, E, T) input, got {x.shape}")
    if kernel.data.ndim != 4 or kernel.shape[1] != 1 or kernel.shape[3] != 1:
        raise ShapeError(
            f"conv_spatial: expected (F, 1, E, 1) kernel, got {kernel.shape}"
        )
    if kernel.shape[2] != x.shape[2]:
        raise ShapeError(
            f"conv_spatial: kernel spans {kernel.shape[2]} electrodes, "
            f"input has {x.shape[2]}"
        )
    xs = x.data[:, 0]  # (B, E, T)
    ks = kernel.data[:, 0, :, 0]  # (F, E)
    out = Tensor((ks @ xs)[:, :, None, :])

    def backward():
        g = out.grad
        if g is None:
            return
        gs = g[:, :, 0, :]  # (B, F, T)
        x.accumulate(np.einsum("bft,fe->bet", gs, ks)[:, None])
        kernel.accumulate(np.einsum("bft,bet->fe", gs, xs)[:, None, :, None])

    tape.record(backward)
    return out


def conv_temporal(tape: Tape, x: Tensor, kernel: Tensor) -> Tensor:
    """1-D convolution along the time axis of (B, F, 1, T).

    Kernel shape (G, F, 1, k); output (B, G, 1, T - k + 1); stride 1, no padding.
    One matmul per kernel tap, so no (B, F, T', k) window array is built.
    """
    if x.data.ndim != 4 or x.shape[2] != 1:
        raise ShapeError(f"conv_temporal: expected (B, F, 1, T) input, got {x.shape}")
    if kernel.data.ndim != 4 or kernel.shape[2] != 1:
        raise ShapeError(
            f"conv_temporal: expected (G, F, 1, k) kernel, got {kernel.shape}"
        )
    if kernel.shape[1] != x.shape[1]:
        raise ShapeError(
            f"conv_temporal: kernel expects {kernel.shape[1]} maps, input has {x.shape[1]}"
        )
    k = kernel.shape[3]
    t_in = x.shape[3]
    if k > t_in:
        raise ShapeError(f"conv_temporal: kernel length {k} exceeds input length {t_in}")
    t_out = t_in - k + 1

    xs = x.data[:, :, 0, :]  # (B, F, T)
    ks = kernel.data[:, :, 0, :]  # (G, F, k)
    acc = ks[:, :, 0] @ xs[:, :, :t_out]
    for off in range(1, k):
        acc += ks[:, :, off] @ xs[:, :, off : off + t_out]
    out = Tensor(acc[:, :, None, :])

    def backward():
        g = out.grad
        if g is None:
            return
        gs = g[:, :, 0, :]  # (B, G, T')
        gk = np.empty_like(ks)
        gx = np.zeros_like(xs)
        for off in range(k):
            gk[:, :, off] = (gs @ xs[:, :, off : off + t_out].transpose(0, 2, 1)).sum(0)
            gx[:, :, off : off + t_out] += ks[:, :, off].T @ gs
        kernel.accumulate(gk[:, :, None, :])
        x.accumulate(gx[:, :, None, :])

    tape.record(backward)
    return out


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
    """Per-feature standardization with a learned affine map.

    Axis 1 is the feature axis for both (B, C) and (B, C, 1, T) inputs.  Train
    mode uses the batch statistics and updates the running ones in place; eval
    mode uses the running ones.  The forward is one scale and shift per feature.
    """
    if x.data.ndim not in (2, 4):
        raise ShapeError(f"batch_norm: expected 2-D or 4-D input, got {x.shape}")
    channels = x.shape[1]
    if gamma.shape != (channels,) or beta.shape != (channels,):
        raise ShapeError("batch_norm: gamma/beta must match the feature axis")
    axes = (0,) if x.data.ndim == 2 else (0, 2, 3)
    cast = (lambda a: a) if x.data.ndim == 2 else (lambda a: a[:, None, None])
    count = int(np.prod([x.shape[i] for i in axes]))
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
    out = Tensor(x.data * cast(scale))
    out.data += cast(beta.data - mean * scale)

    def backward():
        g = out.grad
        if g is None:
            return
        x_hat = (x.data - cast(mean)) * cast(inv_std)
        gamma.accumulate((g * x_hat).sum(axis=axes))
        beta.accumulate(g.sum(axis=axes))
        g_hat = g * cast(gamma.data)
        if train:
            # Batch statistics depend on x, so propagate through mean and var.
            g_sum = g_hat.sum(axis=axes)
            gx_sum = (g_hat * x_hat).sum(axis=axes)
            dx = (g_hat - cast(g_sum / count) - x_hat * cast(gx_sum / count)) * cast(
                inv_std
            )
        else:
            dx = g_hat * cast(inv_std)
        x.accumulate(dx)

    tape.record(backward)
    return out


def elu(tape: Tape, x: Tensor) -> Tensor:
    """x for x > 0, exp(x) - 1 otherwise (alpha = 1)."""
    # max(expm1(min(x, 0)), x) needs no sign mask and is exact: expm1(x) >= x
    out = Tensor(np.expm1(np.minimum(x.data, 0.0)))
    np.maximum(out.data, x.data, out=out.data)

    def backward():
        g = out.grad
        if g is None:
            return
        x.accumulate(g * (np.minimum(out.data, 0.0) + 1.0))  # 1, or exp(x) for x <= 0

    tape.record(backward)
    return out


def angle_squash(tape: Tape, x: Tensor) -> Tensor:
    """pi * tanh(x): squashes features into the open interval (-pi, pi)."""
    t = np.tanh(x.data)
    out = Tensor(np.pi * t)

    def backward():
        g = out.grad
        if g is None:
            return
        x.accumulate(g * np.pi * (1.0 - t * t))

    tape.record(backward)
    return out


def l2_normalize(tape: Tape, x: Tensor) -> Tensor:
    """Scale every row of (B, D) to unit Euclidean norm."""
    if x.data.ndim != 2:
        raise ShapeError(f"l2_normalize: expected (B, D) input, got {x.shape}")
    norms = np.linalg.norm(x.data, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        raise NumericError("l2_normalize: degenerate zero-norm row")
    y = x.data / norms
    out = Tensor(y)

    def backward():
        g = out.grad
        if g is None:
            return
        x.accumulate((g - y * (g * y).sum(axis=1, keepdims=True)) / norms)

    tape.record(backward)
    return out


def reshape(tape: Tape, x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.reshape(shape))

    def backward():
        g = out.grad
        if g is None:
            return
        x.accumulate(g.reshape(x.data.shape))

    tape.record(backward)
    return out


def flatten(tape: Tape, x: Tensor) -> Tensor:
    """Collapse everything after the batch axis (explicit width: 0 rows work)."""
    return reshape(tape, x, (x.shape[0], int(np.prod(x.shape[1:]))))


# ---------------------------------------------------------------------------
# Optimizer


class Adam:
    """Adam with bias correction and decoupled weight decay over named tensors.

    Moments and step counts are kept per parameter.  A parameter whose
    gradient is None is skipped: its moments and its bias-correction step
    count stay as they were.
    """

    EPS = 1e-8

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float,
        beta1: float,
        beta2: float,
        weight_decay: float,
    ):
        self.params = params
        self.lr, self.beta1, self.beta2, self.weight_decay = lr, beta1, beta2, weight_decay
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.steps = dict.fromkeys(params, 0)

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def step(self) -> None:
        for name, t in self.params.items():
            g = t.grad
            if g is None:
                continue
            if g.shape != t.data.shape:
                raise ShapeError(f"Adam: gradient {g.shape} for {name!r} of shape {t.shape}")
            self.steps[name] += 1
            step = self.steps[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g**2
            m_hat = self.m[name] / (1.0 - self.beta1**step)
            v_hat = self.v[name] / (1.0 - self.beta2**step)
            update = m_hat / (np.sqrt(v_hat) + self.EPS)
            if self.weight_decay != 0.0:
                update = update + self.weight_decay * t.data
            # asarray keeps 0-d parameters (e.g. a scalar temperature) as ndarrays
            t.data = np.asarray(t.data - self.lr * update)
