"""Finite-difference verification of every backward pass in the package.

Each check builds a scalar loss sum(output * R) with a fixed random R,
computes analytic gradients (tape replay or parameter shift), then
re-evaluates the loss with every input element nudged by +/- h to form
central differences.  The maximum absolute deviation per op is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import diffnet
from .contrastive import clip_logits_op, clip_loss_op
from .diffnet import Tape, Tensor
from .encoders import EegConvEncoder, ImageEmbedHead, quantum_layer
from .harness import RunConfig
from .vqc import QuantumLayerParams, vqc_batched_forward, vqc_batched_vjp

DEFAULT_H = 1e-5
OP_TOL = 1e-6
PIPELINE_TOL = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def __str__(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (
            f"{self.name}: max deviation {self.max_deviation:.3e} "
            f"(tolerance {self.tolerance:.1e}) {status}"
        )


def central_difference(f: Callable[[], float], x: np.ndarray, h: float) -> np.ndarray:
    """d f / d x by central differences; ``f`` reads ``x`` at call time."""
    grad = np.zeros_like(x)
    flat, gflat = x.reshape(-1), grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        f_plus = f()
        flat[j] = orig - h
        f_minus = f()
        flat[j] = orig
        gflat[j] = (f_plus - f_minus) / (2.0 * h)
    return grad


def check_gradients(
    name: str,
    build: Callable[..., Tensor],
    arrays: Sequence[np.ndarray],
    tolerance: float = OP_TOL,
) -> CheckResult:
    """Compare tape gradients of ``build(tape, *tensors)`` against FD.

    ``build`` must be a pure function of the current array values; the
    arrays are mutated in place while probing finite differences.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]

    def forward(tape: Tape) -> tuple[list[Tensor], Tensor]:
        tensors = [Tensor(a) for a in arrays]
        return tensors, build(tape, *tensors)

    probe_out = forward(Tape())[1]
    r = np.random.default_rng(0).standard_normal(probe_out.data.shape)

    def scalar() -> float:
        return float(np.sum(forward(Tape())[1].data * r))

    tape = Tape()
    tensors, out = forward(tape)
    loss = Tensor(np.sum(out.data * r))
    out_ref = out

    def seed_backward():
        if loss.grad is not None:
            out_ref.accumulate(float(loss.grad) * r)

    tape.record(seed_backward)
    tape.backward(loss)

    worst = 0.0
    for t, a in zip(tensors, arrays):
        analytic = t.grad if t.grad is not None else np.zeros_like(a)
        numeric = central_difference(scalar, a, DEFAULT_H)
        worst = max(worst, float(np.abs(analytic - numeric).max()))
    return CheckResult(name=name, max_deviation=worst, tolerance=tolerance)


# ---------------------------------------------------------------------------
# Standard suite


def _check_linear(rng):
    return check_gradients(
        "linear",
        lambda tape, x, w, b: diffnet.linear(tape, x, w, b),
        [rng.standard_normal((4, 3)), rng.standard_normal((3, 5)),
         rng.standard_normal(5)],
    )


def _check_conv_spatial(rng):
    return check_gradients(
        "conv_spatial",
        lambda tape, x, k: diffnet.conv_spatial(tape, x, k),
        [rng.standard_normal((3, 1, 4, 6)), rng.standard_normal((2, 1, 4, 1))],
    )


def _check_conv_temporal(rng):
    return check_gradients(
        "conv_temporal",
        diffnet.conv_temporal,
        [rng.standard_normal((2, 2, 1, 9)), rng.standard_normal((3, 2, 1, 4))],
    )


def _bn_build(train: bool, n_features: int):
    def build(tape, x, gamma, beta):
        return diffnet.batch_norm(
            tape, x, gamma, beta,
            running_mean=np.linspace(-0.2, 0.2, n_features),
            running_var=np.linspace(0.8, 1.2, n_features),
            train=train,
        )
    return build


def _check_batch_norm_train_2d(rng):
    return check_gradients(
        "batch_norm_train_2d", _bn_build(True, 3),
        [rng.standard_normal((5, 3)), rng.standard_normal(3), rng.standard_normal(3)],
    )


def _check_batch_norm_train_4d(rng):
    return check_gradients(
        "batch_norm_train_4d", _bn_build(True, 2),
        [rng.standard_normal((3, 2, 1, 4)), rng.standard_normal(2),
         rng.standard_normal(2)],
    )


def _check_batch_norm_eval(rng):
    return check_gradients(
        "batch_norm_eval", _bn_build(False, 3),
        [rng.standard_normal((4, 3)), rng.standard_normal(3), rng.standard_normal(3)],
    )


def _check_elu(rng):
    return check_gradients(
        "elu", lambda tape, x: diffnet.elu(tape, x), [rng.standard_normal((4, 5))]
    )


def _check_angle_squash(rng):
    return check_gradients(
        "angle_squash", lambda tape, x: diffnet.angle_squash(tape, x),
        [rng.standard_normal((4, 5))],
    )


def _check_l2_normalize(rng):
    return check_gradients(
        "l2_normalize", lambda tape, x: diffnet.l2_normalize(tape, x),
        [rng.standard_normal((4, 6))],
    )


def _check_flatten(rng):
    return check_gradients(
        "flatten", lambda tape, x: diffnet.flatten(tape, x),
        [rng.standard_normal((3, 2, 1, 4))],
    )


def _check_quantum_layer(rng):
    return check_gradients(
        "quantum_layer",
        lambda tape, x, w: quantum_layer(tape, x, w),
        [rng.uniform(-np.pi, np.pi, (4, 3)), rng.uniform(-np.pi, np.pi, (2, 3))],
    )


def _check_vqc_parameter_shift(rng):
    """Parameter-shift VJP of one row against central differences, no tape."""
    n, layers, h = 3, 2, DEFAULT_H
    x = rng.uniform(-np.pi, np.pi, n)
    weights = rng.uniform(-np.pi, np.pi, (layers, n))
    r = rng.standard_normal(n)

    def scalar() -> float:
        return float(vqc_batched_forward(x[None], QuantumLayerParams(n, layers, weights))[0] @ r)

    dx, dw = vqc_batched_vjp(x[None], QuantumLayerParams(n, layers, weights), r[None])
    worst = float(np.abs(dx[0] - central_difference(scalar, x, h)).max())
    worst = max(worst, float(np.abs(dw - central_difference(scalar, weights, h)).max()))
    return CheckResult("vqc_parameter_shift", worst, OP_TOL)


_TINY = RunConfig(
    electrodes=4, time_samples=32, spatial_maps=2, temporal_maps=2,
    temporal_kernel=8, embed_dim=6, n_qubits=2, n_layers=2, image_dim=5,
)


def _check_eeg_pipeline(rng):
    template = EegConvEncoder(_TINY, np.random.default_rng(1))
    keys = sorted(template.params)
    x = rng.standard_normal((3, 1, _TINY.electrodes, _TINY.time_samples))

    def build(tape, *tensors):
        enc = EegConvEncoder(_TINY, np.random.default_rng(1))
        enc.params = dict(zip(keys, tensors))
        return enc.forward(tape, Tensor(x), train=True)

    arrays = [template.params[k].data for k in keys]
    return check_gradients("eeg_encoder_pipeline", build, arrays,
                           tolerance=PIPELINE_TOL)


def _check_image_pipeline(rng):
    template = ImageEmbedHead(_TINY, np.random.default_rng(2))
    keys = sorted(template.params)
    x = rng.standard_normal((3, _TINY.image_dim))

    def build(tape, *tensors):
        head = ImageEmbedHead(_TINY, np.random.default_rng(2))
        head.params = dict(zip(keys, tensors))
        return head.forward(tape, Tensor(x))

    arrays = [template.params[k].data for k in keys]
    return check_gradients("image_head_pipeline", build, arrays,
                           tolerance=PIPELINE_TOL)


def _check_clip_loss_chain(rng):
    def build(tape, e_raw, i_raw, log_tau):
        e = diffnet.l2_normalize(tape, e_raw)
        i = diffnet.l2_normalize(tape, i_raw)
        return clip_loss_op(tape, clip_logits_op(tape, e, i, log_tau))

    return check_gradients(
        "clip_loss_chain", build,
        [rng.standard_normal((5, 7)), rng.standard_normal((5, 7)),
         np.array(0.3)],
    )


STANDARD_CHECKS: tuple[Callable, ...] = (
    _check_linear,
    _check_conv_spatial,
    _check_conv_temporal,
    _check_batch_norm_train_2d,
    _check_batch_norm_train_4d,
    _check_batch_norm_eval,
    _check_elu,
    _check_angle_squash,
    _check_l2_normalize,
    _check_flatten,
    _check_quantum_layer,
    _check_vqc_parameter_shift,
    _check_eeg_pipeline,
    _check_image_pipeline,
    _check_clip_loss_chain,
)


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    """Run the standard suite; one result per op, deterministic given seed."""
    results = []
    for i, check in enumerate(STANDARD_CHECKS):
        results.append(check(np.random.default_rng(seed + i)))
    return results
