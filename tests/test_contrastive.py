"""Contrastive objective identities, gradients, and retrieval metrics."""

import numpy as np
import pytest

from vqcontrast import clip_logits, clip_loss, topk_accuracy
from vqcontrast.contrastive import (
    MAX_LOG_TEMPERATURE,
    ContrastiveBatch,
    clip_logits_op,
    clip_loss_gradient,
    clip_loss_op,
)
from vqcontrast.diffnet import Tape, Tensor
from vqcontrast.errors import ConfigurationError, NumericError, ShapeError


def unit_rows(rng, b, d):
    x = rng.standard_normal((b, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Logits


def test_orthonormal_rows_give_identity_at_zero_temperature():
    e = np.eye(4)
    np.testing.assert_allclose(clip_logits(e, e, 0.0), np.eye(4), atol=1e-15)


def test_initial_temperature_scale():
    tau = float(np.log(1 / 0.07))
    logits = clip_logits(np.eye(2), np.eye(2), tau)
    assert abs(logits[0, 0] - 1 / 0.07) < 1e-10
    assert abs(logits[0, 0] - 14.2857) < 1e-3


def test_logits_bounded_by_temperature_scale():
    rng = np.random.default_rng(0)
    for _ in range(20):
        b, d = int(rng.integers(1, 9)), int(rng.integers(2, 12))
        tau = float(rng.uniform(-1, 3))
        logits = clip_logits(unit_rows(rng, b, d), unit_rows(rng, b, d), tau)
        assert np.all(np.abs(logits) <= np.exp(tau) + 1e-9)


def test_logits_rectangular_for_retrieval():
    rng = np.random.default_rng(1)
    out = clip_logits(unit_rows(rng, 7, 4), unit_rows(rng, 3, 4), 0.5)
    assert out.shape == (7, 3)


def test_logits_feature_mismatch():
    with pytest.raises(ShapeError):
        clip_logits(np.eye(3), np.eye(4), 0.0)


# ---------------------------------------------------------------------------
# Loss identities


def test_single_pair_loss_is_zero():
    assert clip_loss(np.array([[3.7]])) == 0.0


def test_uniform_logits_loss_is_log_batch():
    for b in (2, 4, 16):
        loss = clip_loss(np.full((b, b), 0.37))
        assert abs(loss - np.log(b)) < 1e-12


def test_diagonal_margin_closed_form():
    b, m = 4, 2.0
    loss = clip_loss(m * np.eye(b))
    assert abs(loss - (np.log(np.exp(m) + b - 1) - m)) < 1e-12


def test_transpose_symmetry_is_exact():
    rng = np.random.default_rng(2)
    for _ in range(25):
        b = int(rng.integers(1, 10))
        logits = rng.standard_normal((b, b)) * 10
        assert clip_loss(logits) == clip_loss(logits.T)


def test_loss_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(25):
        b = int(rng.integers(1, 8))
        assert clip_loss(rng.standard_normal((b, b)) * 5) >= 0.0


def test_loss_decreases_with_temperature_at_perfect_alignment():
    e = np.eye(4)
    losses = [clip_loss(clip_logits(e, e, tau)) for tau in (0.0, 1.0, 2.0, 3.0)]
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_loss_requires_square():
    with pytest.raises(ShapeError):
        clip_loss(np.ones((3, 4)))


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((5, 5)) * 3
    _, grad = clip_loss_gradient(logits)
    h = 1e-6
    for i in range(5):
        for j in range(5):
            bumped = logits.copy()
            bumped[i, j] += h
            dipped = logits.copy()
            dipped[i, j] -= h
            fd = (clip_loss(bumped) - clip_loss(dipped)) / (2 * h)
            assert abs(grad[i, j] - fd) < 1e-8


def test_loss_and_gradient_are_the_two_softmax_form_bitwise():
    # one exponential per direction gives exactly the separate-pass arithmetic
    rng = np.random.default_rng(8)
    for b, scale in ((1, 1.0), (2, 0.1), (7, 3.0), (33, 100.0)):
        l = rng.standard_normal((b, b)) * scale
        rows = np.exp(l - l.max(axis=1, keepdims=True))
        rows /= rows.sum(axis=1, keepdims=True)
        cols = np.exp(l - l.max(axis=0, keepdims=True))
        cols /= cols.sum(axis=0, keepdims=True)
        eye = np.eye(b)
        want = ((rows - eye) + (cols - eye)) / (2.0 * b)
        lse_r = l.max(axis=1) + np.log(np.exp(l - l.max(axis=1, keepdims=True)).sum(axis=1))
        lse_c = l.max(axis=0) + np.log(np.exp(l - l.max(axis=0, keepdims=True)).sum(axis=0))
        d = np.diagonal(l)
        value, grad = clip_loss_gradient(l)
        assert value == clip_loss(l) == (float(np.mean(lse_r - d)) + float(np.mean(lse_c - d))) / 2
        assert np.array_equal(grad, want)


def test_loss_op_backward_through_logits_and_temperature():
    rng = np.random.default_rng(5)
    e = unit_rows(rng, 4, 6)
    v = unit_rows(rng, 4, 6)
    tau0 = 0.8
    h = 1e-6

    tape = Tape()
    e_t, v_t, tau_t = Tensor(e), Tensor(v), Tensor(np.array(tau0))
    loss = clip_loss_op(tape, clip_logits_op(tape, e_t, v_t, tau_t))
    tape.backward(loss)

    def loss_at(tau):
        return clip_loss(clip_logits(e, v, tau))

    fd_tau = (loss_at(tau0 + h) - loss_at(tau0 - h)) / (2 * h)
    assert abs(float(tau_t.grad) - fd_tau) < 1e-8

    fd_e = np.zeros_like(e)
    for i in range(e.shape[0]):
        for j in range(e.shape[1]):
            up, dn = e.copy(), e.copy()
            up[i, j] += h
            dn[i, j] -= h
            fd_e[i, j] = (clip_loss(clip_logits(up, v, tau0))
                          - clip_loss(clip_logits(dn, v, tau0))) / (2 * h)
    np.testing.assert_allclose(e_t.grad, fd_e, atol=1e-8)


def test_loss_stable_at_large_scale():
    # cosine 1.0 at e^tau = 100 must not overflow the softmax
    logits = clip_logits(np.eye(3), np.eye(3), MAX_LOG_TEMPERATURE)
    assert np.isfinite(clip_loss(logits))


# ---------------------------------------------------------------------------
# Batch container


def test_batch_validates_unit_rows():
    rng = np.random.default_rng(6)
    good = ContrastiveBatch(unit_rows(rng, 3, 5), unit_rows(rng, 3, 5), 0.0)
    assert good.size == 3
    with pytest.raises(ShapeError):
        ContrastiveBatch(2.0 * unit_rows(rng, 3, 5), unit_rows(rng, 3, 5), 0.0)


def test_batch_validates_shapes_and_temperature():
    rng = np.random.default_rng(7)
    with pytest.raises(ShapeError):
        ContrastiveBatch(unit_rows(rng, 3, 5), unit_rows(rng, 4, 5), 0.0)
    with pytest.raises(ShapeError):
        ContrastiveBatch(np.zeros((0, 5)), np.zeros((0, 5)), 0.0)
    with pytest.raises(ConfigurationError):
        ContrastiveBatch(unit_rows(rng, 2, 5), unit_rows(rng, 2, 5), np.inf)


# ---------------------------------------------------------------------------
# Top-k accuracy


def test_topk_identity_scores():
    assert topk_accuracy(np.eye(5), np.arange(5), 1) == 1.0


def test_topk_full_k_is_always_one():
    rng = np.random.default_rng(8)
    scores = rng.standard_normal((10, 6))
    labels = rng.integers(0, 6, size=10)
    assert topk_accuracy(scores, labels, 6) == 1.0


def test_topk_constant_scores_tie_break():
    """All-equal scores rank class 0 first, so only true-class-0 queries hit."""
    labels = np.array([0, 1, 2, 0, 3])
    acc = topk_accuracy(np.ones((5, 4)), labels, 1)
    assert acc == np.mean(labels == 0)


def test_topk_tie_break_prefers_lower_index():
    scores = np.array([[1.0, 2.0, 2.0]])
    assert topk_accuracy(scores, [1], 1) == 1.0  # wins the tie against class 2
    assert topk_accuracy(scores, [2], 1) == 0.0
    assert topk_accuracy(scores, [2], 2) == 1.0


def test_topk_invariant_under_monotone_transforms():
    rng = np.random.default_rng(9)
    for _ in range(20):
        scores = rng.standard_normal((12, 7))
        labels = rng.integers(0, 7, size=12)
        k = int(rng.integers(1, 8))
        base = topk_accuracy(scores, labels, k)
        assert topk_accuracy(3.0 * scores + 1.2, labels, k) == base
        assert topk_accuracy(np.exp(scores), labels, k) == base


def test_topk_k_out_of_range():
    with pytest.raises(ConfigurationError):
        topk_accuracy(np.eye(3), np.arange(3), 0)
    with pytest.raises(ConfigurationError):
        topk_accuracy(np.eye(3), np.arange(3), 4)


def test_topk_rejects_non_finite_scores():
    # a NaN row would otherwise rank its true class first
    for bad in (np.nan, np.inf, -np.inf):
        scores = np.eye(3)
        scores[1, 2] = bad
        with pytest.raises(NumericError):
            topk_accuracy(scores, np.arange(3), 1)


def test_topk_label_validation():
    with pytest.raises(ShapeError):
        topk_accuracy(np.eye(3), np.arange(2), 1)
    with pytest.raises(ConfigurationError):
        topk_accuracy(np.eye(3), np.array([0, 1, 3]), 1)
    # a float label would be truncated to a class (2.7 -> 2), a bool read as 0 or 1
    for labels in ([0.9, 1.2, 2.7], [True, False, True]):
        with pytest.raises(ConfigurationError, match="integer class indices"):
            topk_accuracy(np.eye(3), labels, 1)
    assert topk_accuracy(np.eye(3), np.arange(3, dtype=np.uint8), 1) == 1.0


def test_topk_rejects_zero_queries():
    with pytest.raises(ShapeError, match="at least one query"):
        topk_accuracy(np.zeros((0, 4)), np.zeros(0, int), 1)
