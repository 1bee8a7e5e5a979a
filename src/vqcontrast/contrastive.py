"""Symmetric cross-modal contrastive objective and retrieval metrics.

Matched EEG/image pairs sit on the diagonal of a similarity matrix.  The
loss is softmax cross-entropy against that diagonal, computed along both
axes and averaged, with a learned log-temperature scaling the logits.

The pure-numpy functions here are used for evaluation and testing; the
``*_op`` variants are diffnet tape ops, recorded through ``Tape.op`` with
their vector-Jacobian products, so the objective can train the encoders
end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffnet import Tape, Tensor
from .errors import ConfigurationError, NumericError, ShapeError

# Common clamp on the learned log-temperature: e^tau never exceeds 100.
MAX_LOG_TEMPERATURE = float(np.log(100.0))
# Where the learned log-temperature starts: CLIP's initial temperature 0.07.
TAU_INIT = float(np.log(1.0 / 0.07))

_UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class ContrastiveBatch:
    """A batch of matched embeddings plus the current log-temperature.

    Row i of ``eeg_features`` and row i of ``image_features`` form the
    positive pair; every other pairing is a negative.
    """

    eeg_features: np.ndarray
    image_features: np.ndarray
    log_temperature: float

    def __post_init__(self):
        e = np.asarray(self.eeg_features, dtype=np.float64)
        v = np.asarray(self.image_features, dtype=np.float64)
        if e.ndim != 2 or v.ndim != 2 or e.shape != v.shape:
            raise ShapeError(
                f"paired embeddings must share a (B, D) shape, got {e.shape} and {v.shape}"
            )
        if e.shape[0] < 1:
            raise ShapeError("batch must contain at least one pair")
        if not np.isfinite(self.log_temperature):
            raise ConfigurationError("log-temperature must be finite")
        for name, rows in (("eeg", e), ("image", v)):
            norms = np.linalg.norm(rows, axis=1)
            worst = float(np.abs(norms - 1.0).max())
            if worst > _UNIT_NORM_TOL:
                raise ShapeError(
                    f"{name} rows must be unit-norm (max deviation {worst:.3e})"
                )
        object.__setattr__(self, "eeg_features", e)
        object.__setattr__(self, "image_features", v)

    @property
    def size(self) -> int:
        return self.eeg_features.shape[0]


def clip_logits(eeg_features, image_features, log_temperature: float) -> np.ndarray:
    """Scaled pairwise similarity: logits[i, j] = <e_i, v_j> * e^tau.

    Rows need not match in count (evaluation scores queries against a
    class gallery), but the feature dimension must.
    """
    e = np.asarray(eeg_features, dtype=np.float64)
    v = np.asarray(image_features, dtype=np.float64)
    if e.ndim != 2 or v.ndim != 2 or e.shape[1] != v.shape[1]:
        raise ShapeError(
            f"cannot pair embeddings of shape {e.shape} with {v.shape}"
        )
    return (e @ v.T) * np.exp(log_temperature)


def _directional_loss(logits: np.ndarray) -> tuple[float, np.ndarray]:
    # Row-wise softmax cross-entropy against the diagonal, max-stabilized,
    # and the row softmax, which shares its exponentials and row sums.
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    s = e.sum(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(s[:, 0])
    return float(np.mean(lse - np.diagonal(logits))), e / s


def clip_loss(logits) -> float:
    """The mean of the row-wise and the column-wise cross-entropy."""
    return clip_loss_gradient(logits)[0]


def clip_loss_gradient(logits) -> tuple[float, np.ndarray]:
    """Loss value plus d(loss)/d(logits), from one softmax per direction."""
    l = np.asarray(logits, dtype=np.float64)
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise ShapeError(f"contrastive logits must be square, got {l.shape}")
    row_loss, rows = _directional_loss(l)
    col_loss, cols = _directional_loss(l.T)
    eye = np.eye(l.shape[0])
    grad = ((rows - eye) + (cols.T - eye)) / (2.0 * l.shape[0])
    return (row_loss + col_loss) / 2.0, grad


def clip_logits_op(tape: Tape, eeg: Tensor, image: Tensor, log_tau: Tensor) -> Tensor:
    """Tape-recorded logits with gradients for both embeddings and tau."""
    if log_tau.data.size != 1:
        raise ShapeError("log-temperature must be a scalar")
    logits = clip_logits(eeg.data, image.data, log_tau.data.reshape(()))
    scale = float(np.exp(log_tau.data.reshape(())))
    # d logits / d tau = logits itself, so chain through the output.
    return tape.op((eeg, image, log_tau), logits, lambda g: (
        g @ image.data * scale,
        g.T @ eeg.data * scale,
        np.full_like(log_tau.data, np.sum(g * logits)),
    ))


def clip_loss_op(tape: Tape, logits: Tensor) -> Tensor:
    """Tape-recorded symmetric contrastive loss over square logits."""
    value, grad = clip_loss_gradient(logits.data)
    return tape.op((logits,), value, lambda g: (float(g) * grad,))


def topk_accuracy(scores, true_class, k: int) -> float:
    """Fraction of queries whose true class ranks in the top k scores.

    Ties are broken in favor of the lowest class index, so the result is
    deterministic for any finite score matrix.  A non-finite score raises
    ``NumericError``: NaN compares false both ways and would rank first.
    """
    s = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(true_class)
    if s.ndim != 2:
        raise ShapeError(f"scores must be (n_query, n_class), got {s.shape}")
    n_query, n_class = s.shape
    if labels.shape != (n_query,):
        raise ShapeError(f"labels shape {labels.shape} != ({n_query},)")
    if n_query == 0:
        raise ShapeError("topk_accuracy needs at least one query")
    if not 1 <= k <= n_class:
        raise ConfigurationError(f"k={k} out of range [1, {n_class}]")
    if not np.all(np.isfinite(s)):
        raise NumericError("scores contain non-finite entries")
    if labels.dtype.kind not in "iu":
        raise ConfigurationError(f"labels must be integer class indices, got {labels.dtype}")
    if labels.min() < 0 or labels.max() >= n_class:
        raise ConfigurationError("labels reference out-of-range class indices")
    own = s[np.arange(n_query), labels][:, None]
    classes = np.arange(n_class)[None, :]
    # Rank = classes scoring strictly higher, plus equal scorers that win ties.
    rank = (s > own).sum(axis=1) + ((s == own) & (classes < labels[:, None])).sum(axis=1)
    return float(np.mean(rank < k))
