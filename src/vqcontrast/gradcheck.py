"""Finite-difference verification of every backward pass in the package.

Each check builds a scalar loss sum(output * R) with a fixed random R,
computes analytic gradients by tape replay, then re-evaluates the loss with
every input element nudged by +/- h to form central differences.  The maximum
absolute deviation per op is reported.

The standard suite, ``STANDARD_CHECKS``, is one ordered table of
``(name, build, draw)`` op specs, one pipeline check for each encoder head
and one for the contrastive loss chain.  The circuit's ``vqc_batched_vjp`` is
checked through its tape op, ``quantum_layer``, on four rows of five qubits,
so its weight partials are read in both qubit groups of the RY layers.  Ops
are looked up at call time, so a patched op is the one checked; check ``i``
draws from ``default_rng(seed + i)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import diffnet, encoders
from .contrastive import clip_logits_op, clip_loss_op
from .diffnet import Tape, Tensor
from .encoders import EegConvEncoder, ImageEmbedHead
from .harness import RunConfig

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


def check_gradients(name: str, build: Callable[..., Tensor], arrays: Sequence[np.ndarray],
                    tolerance: float = OP_TOL) -> CheckResult:
    """Compare tape gradients of ``build(tape, *tensors)`` against FD.

    ``build`` must be a pure function of the current array values; the
    arrays are mutated in place while probing finite differences.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]

    def forward(tape: Tape) -> tuple[list[Tensor], Tensor]:
        tensors = [Tensor(a) for a in arrays]
        return tensors, build(tape, *tensors)

    tape = Tape()
    tensors, out = forward(tape)
    r = np.random.default_rng(0).standard_normal(out.shape)
    tape.backward(tape.op((out,), np.sum(out.data * r), lambda g: (g * r,)))

    def scalar() -> float:
        return float(np.sum(forward(Tape())[1].data * r))

    worst = 0.0
    for t, a in zip(tensors, arrays):
        analytic = t.grad if t.grad is not None else np.zeros_like(a)
        numeric = central_difference(scalar, a, DEFAULT_H)
        worst = max(worst, float(np.abs(analytic - numeric).max()))
    return CheckResult(name=name, max_deviation=worst, tolerance=tolerance)


# ---------------------------------------------------------------------------
# Standard suite


def _op(name: str, module=diffnet) -> Callable[..., Tensor]:
    return lambda tape, *tensors: getattr(module, name)(tape, *tensors)


def _bn(train: bool) -> Callable[..., Tensor]:
    def build(tape, x, gamma, beta):
        return diffnet.batch_norm(
            tape, x, gamma, beta,
            running_mean=np.linspace(-0.2, 0.2, 2),
            running_var=np.linspace(0.8, 1.2, 2),
            train=train,
        )
    return build


def _clip_chain(tape, e_raw, i_raw, log_tau):
    e = diffnet.l2_normalize(tape, e_raw)
    i = diffnet.l2_normalize(tape, i_raw)
    return clip_loss_op(tape, clip_logits_op(tape, e, i, log_tau))


def _normal(*shapes) -> Callable[[np.random.Generator], list]:
    return lambda rng: [rng.standard_normal(s) for s in shapes]


def _check_spec(name: str, build, draw, rng: np.random.Generator) -> CheckResult:
    return check_gradients(name, build, draw(rng))


_TINY = RunConfig(
    electrodes=4, time_samples=32, spatial_maps=2, temporal_maps=2,
    temporal_kernel=8, embed_dim=6, n_qubits=2, n_layers=2, image_dim=5,
)


def _check_pipeline(name, head_cls, init_seed, shape, rng, **forward_kwargs):
    """Gradients of every head parameter through one whole forward pass."""
    template = head_cls(_TINY, np.random.default_rng(init_seed)).params
    keys = sorted(template)
    x = rng.standard_normal(shape)

    def build(tape, *tensors):
        # a fresh head per call: train-mode batch norm updates its buffers
        head = head_cls(_TINY, np.random.default_rng(init_seed))
        head.params = dict(zip(keys, tensors))
        return head.forward(tape, Tensor(x), **forward_kwargs)

    return check_gradients(name, build, [template[k].data for k in keys],
                           tolerance=PIPELINE_TOL)


STANDARD_CHECKS: tuple[Callable[[np.random.Generator], CheckResult], ...] = (
    *(partial(_check_spec, *spec) for spec in (
        ("linear", _op("linear"), _normal((4, 3), (3, 5), 5)),
        ("conv_spatial", _op("conv_spatial"), _normal((3, 4, 6), (2, 4))),
        ("conv_temporal", _op("conv_temporal"), _normal((2, 2, 9), (3, 2, 4))),
        ("batch_norm_train", _bn(True), _normal((3, 2, 4), 2, 2)),
        ("batch_norm_eval", _bn(False), _normal((3, 2, 4), 2, 2)),
        ("elu", _op("elu"), _normal((4, 5))),
        ("angle_squash", _op("angle_squash"), _normal((4, 5))),
        ("l2_normalize", _op("l2_normalize"), _normal((4, 6))),
        ("flatten", _op("flatten"), _normal((3, 2, 4))),
        # five qubits: two RY groups, qubits 0-2 and 3-4
        ("quantum_layer", _op("quantum_layer", encoders),
         lambda rng: [rng.uniform(-np.pi, np.pi, s) for s in ((4, 5), (2, 5))]),
    )),
    partial(_check_pipeline, "eeg_encoder_pipeline", EegConvEncoder, 1,
            (3, _TINY.electrodes, _TINY.time_samples), train=True),
    partial(_check_pipeline, "image_head_pipeline", ImageEmbedHead, 2,
            (3, _TINY.image_dim)),
    partial(_check_spec, "clip_loss_chain", _clip_chain,
            lambda rng: [*_normal((5, 7), (5, 7))(rng), np.array(0.3)]),
)


def run_all_checks(seed: int = 0) -> list[CheckResult]:
    """Run the standard suite; one result per op, deterministic given seed."""
    return [check(np.random.default_rng(seed + i)) for i, check in enumerate(STANDARD_CHECKS)]
