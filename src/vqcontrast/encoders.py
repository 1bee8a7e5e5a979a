"""Modality encoders: an EEG convolutional front end and an image head.

Both encoders take their geometry from a ``RunConfig`` and end in the same
tail, built by ``_tail_params`` and run by ``_tail``: project features to
the qubit count, squash them to rotation angles in (-pi, pi), run the
variational quantum layer, project to the shared embedding dimension,
and L2-normalize.  The EEG path prepends a spatial convolution across
electrodes and a temporal convolution along samples, on (batch, electrodes,
time) input and (batch, feature map, time) activations; the image path
starts from precomputed backbone embeddings, which are input data and
never trained.

Trainable values live in ``Tensor`` objects keyed by name; batch-norm
running statistics are plain arrays ("buffers") that persist with the
parameters but receive no gradients.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import diffnet
from .diffnet import Tape, Tensor
from .errors import ShapeError
from .vqc import QuantumLayerParams, vqc_batched_forward, vqc_batched_vjp

if TYPE_CHECKING:
    from .harness import RunConfig


def quantum_layer(tape: Tape, x: Tensor, weights: Tensor) -> Tensor:
    """Tape op wrapping the batched quantum circuit.

    ``x`` holds per-row rotation angles (B, n_qubits); ``weights`` is the
    (n_layers, n_qubits) trainable angle grid.  The op's vjp is
    ``vqc_batched_vjp``, whose (d_inputs, d_weights) pair is exact; its
    docstring says which method gives each.
    """
    if weights.data.ndim != 2:
        raise ShapeError(f"expected (n_layers, n_qubits) weights, got {weights.shape}")
    params = QuantumLayerParams(
        n_qubits=weights.shape[1], n_layers=weights.shape[0], weights=weights.data
    )
    return tape.op((x, weights), vqc_batched_forward(x.data, params),
                   lambda g: vqc_batched_vjp(x.data, params, g))


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# The projections feeding the angle squash start damped so that initial
# rotation angles sit near zero: every sample then measures to nearly the
# same state, similarity logits start near-uniform, and the first-epoch
# loss lands at ~ln B despite the large initial temperature.
ANGLE_INIT_SCALE = 0.1


def _tail_params(
    rng: np.random.Generator, in_dim: int, config: RunConfig
) -> dict[str, Tensor]:
    """The tail's five parameters for ``in_dim`` input features."""
    q, d = config.n_qubits, config.embed_dim
    return {
        "angle_w": Tensor(ANGLE_INIT_SCALE * _glorot(rng, (in_dim, q), in_dim, q)),
        "angle_b": Tensor(np.zeros(q)),
        "circuit_weights": Tensor(rng.uniform(-np.pi, np.pi, size=(config.n_layers, q))),
        "proj_w": Tensor(_glorot(rng, (q, d), q, d)),
        "proj_b": Tensor(np.zeros(d)),
    }


def _tail(tape: Tape, h: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Linear -> angle squash -> quantum layer -> linear -> L2 norm."""
    h = diffnet.linear(tape, h, params["angle_w"], params["angle_b"])
    h = diffnet.angle_squash(tape, h)
    h = quantum_layer(tape, h, params["circuit_weights"])
    h = diffnet.linear(tape, h, params["proj_w"], params["proj_b"])
    return diffnet.l2_normalize(tape, h)


class EegConvEncoder:
    """Spatial conv -> BN -> ELU -> temporal conv -> BN -> ELU -> flatten,
    then the shared quantum tail, on (B, electrodes, time_samples) input;
    geometry from a ``RunConfig``."""

    def __init__(self, config: RunConfig, rng: np.random.Generator):
        self.config = c = config
        flat_dim = c.temporal_maps * (c.time_samples - c.temporal_kernel + 1)
        self.params: dict[str, Tensor] = {
            "spatial_kernel": Tensor(
                _glorot(rng, (c.spatial_maps, c.electrodes), c.electrodes, c.spatial_maps)
            ),
            "bn1_gamma": Tensor(np.ones(c.spatial_maps)),
            "bn1_beta": Tensor(np.zeros(c.spatial_maps)),
            "temporal_kernel": Tensor(
                _glorot(rng, (c.temporal_maps, c.spatial_maps, c.temporal_kernel),
                        c.spatial_maps * c.temporal_kernel,
                        c.temporal_maps * c.temporal_kernel)
            ),
            "bn2_gamma": Tensor(np.ones(c.temporal_maps)),
            "bn2_beta": Tensor(np.zeros(c.temporal_maps)),
            **_tail_params(rng, flat_dim, c),
        }
        self.buffers: dict[str, np.ndarray] = {
            "bn1_mean": np.zeros(c.spatial_maps),
            "bn1_var": np.ones(c.spatial_maps),
            "bn2_mean": np.zeros(c.temporal_maps),
            "bn2_var": np.ones(c.temporal_maps),
        }

    def forward(self, tape: Tape, x: Tensor, train: bool) -> Tensor:
        c = self.config
        if x.data.ndim != 3 or x.shape[1:] != (c.electrodes, c.time_samples):
            raise ShapeError(
                f"expected (B, {c.electrodes}, {c.time_samples}) input, got {x.shape}"
            )
        p, b = self.params, self.buffers
        h = diffnet.conv_spatial(tape, x, p["spatial_kernel"])
        h = diffnet.batch_norm(tape, h, p["bn1_gamma"], p["bn1_beta"],
                               b["bn1_mean"], b["bn1_var"], train)
        h = diffnet.elu(tape, h)
        h = diffnet.conv_temporal(tape, h, p["temporal_kernel"])
        h = diffnet.batch_norm(tape, h, p["bn2_gamma"], p["bn2_beta"],
                               b["bn2_mean"], b["bn2_var"], train)
        h = diffnet.elu(tape, h)
        return _tail(tape, diffnet.flatten(tape, h), p)


class ImageEmbedHead:
    """The shared quantum tail over precomputed (frozen) backbone embeddings
    of width ``config.image_dim``."""

    def __init__(self, config: RunConfig, rng: np.random.Generator):
        self.config = config
        self.params: dict[str, Tensor] = _tail_params(rng, config.image_dim, config)

    def forward(self, tape: Tape, x: Tensor) -> Tensor:
        width = self.config.image_dim
        if x.data.ndim != 2 or x.shape[1] != width:
            raise ShapeError(f"expected (B, {width}) embeddings, got {x.shape}")
        return _tail(tape, x, self.params)
