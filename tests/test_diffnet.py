"""Autodiff engine ops against closed forms and the optimizer against its
update equations."""

import tracemalloc
import weakref

import numpy as np
import pytest

from vqcontrast import diffnet
from vqcontrast import RunConfig
from vqcontrast.diffnet import Adam, Tape, Tensor
from vqcontrast.errors import ConfigurationError, NumericError, ShapeError


def backprop(build, arrays, seed=0):
    """Run build on fresh Tensors, backprop a random-weighted sum, and
    return (output data, per-input grads, weighting)."""
    tape = Tape()
    tensors = [Tensor(a) for a in arrays]
    out = build(tape, *tensors)
    r = np.random.default_rng(seed).standard_normal(out.data.shape)
    tape.backward(tape.op((out,), np.sum(out.data * r), lambda g: (g * r,)))
    return out.data, [t.grad for t in tensors], r


# ---------------------------------------------------------------------------
# Forward values


def test_linear_forward():
    rng = np.random.default_rng(0)
    x, w, b = rng.standard_normal((4, 3)), rng.standard_normal((3, 5)), rng.standard_normal(5)
    out, _, _ = backprop(lambda t, x_, w_, b_: diffnet.linear(t, x_, w_, b_), [x, w, b])
    np.testing.assert_allclose(out, x @ w + b, atol=1e-14)


def test_linear_backward_closed_form():
    rng = np.random.default_rng(1)
    x, w, b = rng.standard_normal((4, 3)), rng.standard_normal((3, 5)), rng.standard_normal(5)
    _, (dx, dw, db), r = backprop(lambda t, x_, w_, b_: diffnet.linear(t, x_, w_, b_), [x, w, b])
    np.testing.assert_allclose(dx, r @ w.T, atol=1e-14)
    np.testing.assert_allclose(dw, x.T @ r, atol=1e-14)
    np.testing.assert_allclose(db, r.sum(axis=0), atol=1e-14)


def test_conv_spatial_matches_loops():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 5))
    k = rng.standard_normal((4, 3))
    out, (dx, dk), r = backprop(lambda t, x_, k_: diffnet.conv_spatial(t, x_, k_), [x, k])
    assert out.shape == (2, 4, 5)
    expected_dx, expected_dk = np.zeros_like(x), np.zeros_like(k)
    for b in range(2):
        for f in range(4):
            for t in range(5):
                expected = np.dot(k[f], x[b, :, t])
                assert abs(out[b, f, t] - expected) < 1e-12
                expected_dx[b, :, t] += r[b, f, t] * k[f]
                expected_dk[f] += r[b, f, t] * x[b, :, t]
    np.testing.assert_allclose(dx, expected_dx, atol=1e-12)
    np.testing.assert_allclose(dk, expected_dk, atol=1e-12)


def test_conv_temporal_matches_loops():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 10))
    k = rng.standard_normal((4, 3, 4))
    out, (dx, dk), r = backprop(lambda t, x_, k_: diffnet.conv_temporal(t, x_, k_), [x, k])
    assert out.shape == (2, 4, 7)
    expected_dx, expected_dk = np.zeros_like(x), np.zeros_like(k)
    for b in range(2):
        for g in range(4):
            for t in range(7):
                window = x[b, :, t : t + 4]
                assert abs(out[b, g, t] - np.sum(window * k[g])) < 1e-12
                expected_dx[b, :, t : t + 4] += r[b, g, t] * k[g]
                expected_dk[g] += r[b, g, t] * window
    np.testing.assert_allclose(dx, expected_dx, atol=1e-12)
    np.testing.assert_allclose(dk, expected_dk, atol=1e-12)


def test_conv_temporal_never_holds_a_window_array():
    """Forward and backward at paper-step shape stay below one (B, F, T', k) array."""
    rng = np.random.default_rng(13)
    x, k = rng.standard_normal((64, 8, 100)), rng.standard_normal((8, 8, 16))
    window_bytes = 64 * 8 * (100 - 16 + 1) * 16 * 8
    tracemalloc.start()
    try:
        _, (dx, dk), _ = backprop(lambda t, x_, k_: diffnet.conv_temporal(t, x_, k_), [x, k])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dx.shape == x.shape and dk.shape == k.shape
    assert peak < window_bytes


AXES = (0, 2)  # batch norm's statistics run over the batch and time axes, not features


def test_batch_norm_train_standardizes():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((10, 3, 5)) * 2.5 + 1.0
    gamma, beta = np.ones(3), np.zeros(3)
    mean, var = np.zeros(3), np.ones(3)
    tape = Tape()
    out = diffnet.batch_norm(tape, Tensor(x), Tensor(gamma), Tensor(beta), mean, var, train=True)
    np.testing.assert_allclose(out.data.mean(axis=AXES), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.var(axis=AXES), 1.0, atol=1e-4)


def test_batch_norm_running_stats_update():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4, 5))
    mean, var = np.zeros(4), np.ones(4)
    tape = Tape()
    diffnet.batch_norm(tape, Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                       mean, var, train=True)
    assert diffnet.BN_MOMENTUM == 0.1
    np.testing.assert_allclose(mean, 0.1 * x.mean(axis=AXES), atol=1e-14)
    # running variance uses the unbiased estimator over all 4 * 5 positions
    np.testing.assert_allclose(var, 0.9 + 0.1 * x.var(axis=AXES) * 20 / 19, atol=1e-14)


def test_batch_norm_eval_uses_running_stats():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
    mean, var = np.array([1.0, 1.0]), np.array([4.0, 4.0])
    tape = Tape()
    out = diffnet.batch_norm(tape, Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                             mean, var, train=False)
    expected = (x - 1.0) / np.sqrt(4.0 + diffnet.BN_EPS)
    np.testing.assert_allclose(out.data, expected, atol=1e-14)
    np.testing.assert_array_equal(mean, [1.0, 1.0])  # untouched in eval


def test_batch_norm_affine_params_apply():
    x = np.array([[0.0, 0.0], [2.0, 4.0]])[:, :, None]
    tape = Tape()
    out = diffnet.batch_norm(tape, Tensor(x), Tensor(np.array([2.0, 3.0])),
                             Tensor(np.array([1.0, -1.0])), np.zeros(2), np.ones(2),
                             train=True)
    np.testing.assert_allclose(out.data[:, 0, 0], [1.0 - 2.0, 1.0 + 2.0], atol=1e-4)
    np.testing.assert_allclose(out.data[:, 1, 0], [-1.0 - 3.0, -1.0 + 3.0], atol=1e-4)


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("shape", [(5, 3, 7), (2, 3, 1)], ids=["3d", "smallest"])
def test_batch_norm_matches_textbook_form(train, shape):
    """The one-pass scale and shift equals gamma * (x - mean) / sigma + beta, down
    to the two positions per feature that train mode needs."""
    rng = np.random.default_rng(17)
    x = rng.standard_normal(shape) * 2.0 + 0.7
    gamma, beta = rng.standard_normal(3), rng.standard_normal(3)
    running_mean, running_var = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)
    if train:
        mean, var = x.mean(axis=AXES), x.var(axis=AXES)
    else:
        mean, var = running_mean.copy(), running_var.copy()

    def cast(a):
        return a[:, None]

    expected = cast(gamma) * (x - cast(mean)) / np.sqrt(cast(var) + 1e-5) + cast(beta)
    out = diffnet.batch_norm(Tape(), Tensor(x), Tensor(gamma), Tensor(beta),
                             running_mean, running_var, train=train)
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)


def test_batch_norm_single_sample_train_rejected():
    tape = Tape()
    with pytest.raises(ConfigurationError):
        diffnet.batch_norm(tape, Tensor(np.ones((1, 3, 1))), Tensor(np.ones(3)),
                           Tensor(np.zeros(3)), np.zeros(3), np.ones(3), train=True)


def test_elu_values():
    x = np.array([[-2.0, -0.5, 0.5, 2.0]])
    tape = Tape()
    out = diffnet.elu(tape, Tensor(x))
    np.testing.assert_allclose(
        out.data, [[np.expm1(-2.0), np.expm1(-0.5), 0.5, 2.0]], atol=1e-15
    )


def test_elu_is_bitwise_the_where_form():
    """Value and slope equal the masked form; a large x overflows nothing."""
    rng = np.random.default_rng(18)
    x = np.concatenate([rng.standard_normal(200) * 3,
                        [0.0, -0.0, 1e-300, -1e-300, -800.0, 800.0]])
    out, (dx,), r = backprop(lambda t, x_: diffnet.elu(t, x_), [x])
    with np.errstate(over="ignore"):
        expected = np.where(x > 0, x, np.expm1(x))
    slope = np.where(x > 0, 1.0, expected + 1.0)
    np.testing.assert_array_equal(out.view(np.uint64), expected.view(np.uint64))
    np.testing.assert_array_equal(dx.view(np.uint64), (r * slope).view(np.uint64))


def test_angle_squash_bounds():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((8, 8)) * 4
    tape = Tape()
    out = diffnet.angle_squash(tape, Tensor(x))
    assert np.all(np.abs(out.data) < np.pi)
    np.testing.assert_allclose(out.data, np.pi * np.tanh(x), atol=1e-15)
    # tanh saturates to exactly 1.0 in float64, so huge inputs pin at +/- pi
    extreme = diffnet.angle_squash(tape, Tensor(np.array([[50.0, -50.0]])))
    np.testing.assert_array_equal(extreme.data, [[np.pi, -np.pi]])


def test_l2_normalize_rows():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((5, 9)) * 3
    tape = Tape()
    out = diffnet.l2_normalize(tape, Tensor(x))
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)


def test_l2_normalize_rejects_zero_row():
    x = np.zeros((2, 4))
    x[0, 0] = 1.0
    with pytest.raises(NumericError):
        diffnet.l2_normalize(Tape(), Tensor(x))


def test_flatten_shape_and_gradient():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 2, 1, 4))
    out, (dx,), r = backprop(lambda t, x_: diffnet.flatten(t, x_), [x])
    assert out.shape == (3, 8)
    np.testing.assert_allclose(dx, r.reshape(x.shape), atol=1e-15)


def test_flatten_keeps_the_width_of_a_zero_row_batch():
    out = diffnet.flatten(Tape(), Tensor(np.zeros((0, 2, 1, 4))))
    assert out.shape == (0, 8)


# ---------------------------------------------------------------------------
# Tape mechanics


def test_backward_requires_scalar_loss():
    with pytest.raises(ShapeError):
        Tape().backward(Tensor(np.ones(3)))


def test_gradient_accumulation():
    t = Tensor(np.zeros(3))
    t.accumulate(np.array([1.0, 2.0, 3.0]))
    t.accumulate(np.array([0.5, 0.5, 0.5]))
    np.testing.assert_array_equal(t.grad, [1.5, 2.5, 3.5])


def _two_linears():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 4))
    w1, b1 = rng.standard_normal((4, 5)), rng.standard_normal(5)
    w2, b2 = rng.standard_normal((5, 2)), rng.standard_normal(2)
    return [x, w1, b1, w2, b2]


def _assert_two_linears_grads(arrays, grads, r):
    # checked against the factored closed form
    x, w1, b1, w2, _ = arrays
    dx, dw1, _, dw2, _ = grads
    np.testing.assert_allclose(dx, r @ w2.T @ w1.T, atol=1e-13)
    np.testing.assert_allclose(dw2, (x @ w1 + b1).T @ r, atol=1e-13)
    np.testing.assert_allclose(dw1, x.T @ (r @ w2.T), atol=1e-13)


def test_chained_ops_backprop():
    # two linears back to back
    def build(tape, x_, w1_, b1_, w2_, b2_):
        return diffnet.linear(tape, diffnet.linear(tape, x_, w1_, b1_), w2_, b2_)

    arrays = _two_linears()
    _, grads, r = backprop(build, arrays)
    _assert_two_linears_grads(arrays, grads, r)


def test_backward_frees_each_op_it_has_passed():
    """The tape stays bound, yet the middle op's output is gone after backward."""
    arrays = _two_linears()
    tensors = [Tensor(a) for a in arrays]
    x, w1, b1, w2, b2 = tensors
    tape = Tape()
    middle = diffnet.linear(tape, diffnet.linear(tape, x, w1, b1), w2, b2)
    r = np.random.default_rng(0).standard_normal(middle.shape)
    loss = tape.op((middle,), np.sum(middle.data * r), lambda g: (g * r,))
    freed = weakref.ref(middle.data)  # Tensor has __slots__ and no weakref slot
    del middle
    tape.backward(loss)
    assert freed() is None
    _assert_two_linears_grads(arrays, [t.grad for t in tensors], r)
    tape.backward(loss)  # the tape is used up: a second call adds nothing
    _assert_two_linears_grads(arrays, [t.grad for t in tensors], r)


def test_op_off_the_loss_path_is_skipped():
    """An output that never reaches the loss leaves its inputs' grads None
    and its vjp uncalled."""
    def never(g):
        raise AssertionError("the vjp of an op off the loss path ran")

    tape = Tape()
    x, side = Tensor(np.ones(3)), Tensor(np.ones(3))
    tape.op((side,), 2.0 * side.data, never)
    tape.backward(tape.op((x,), np.sum(x.data), lambda g: (g * np.ones(3),)))
    assert side.grad is None
    np.testing.assert_array_equal(x.grad, np.ones(3))


@pytest.mark.parametrize("partials", [0, 2])
def test_op_rejects_a_vjp_with_the_wrong_number_of_partials(partials):
    tape = Tape()
    x = Tensor(np.ones(3))
    loss = tape.op((x,), np.sum(x.data), lambda g: (g * np.ones(3),) * partials)
    with pytest.raises(ValueError):
        tape.backward(loss)


def test_shape_validation():
    t = Tape()
    with pytest.raises(ShapeError):
        diffnet.linear(t, Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.ones(5)))
    with pytest.raises(ShapeError):
        diffnet.conv_spatial(t, Tensor(np.ones((2, 4, 8))), Tensor(np.ones((3, 5))))
    with pytest.raises(ShapeError):
        diffnet.conv_temporal(t, Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 3, 6))))
    with pytest.raises(ShapeError):
        diffnet.l2_normalize(t, Tensor(np.ones(4)))
    for shape in ((4, 3), (4, 3, 1, 5)):  # batch norm takes the encoder's (B, C, T) only
        with pytest.raises(ShapeError, match=r"\(B, C, T\)"):
            diffnet.batch_norm(t, Tensor(np.ones(shape)), Tensor(np.ones(3)),
                               Tensor(np.zeros(3)), np.zeros(3), np.ones(3), train=True)


# ---------------------------------------------------------------------------
# Optimizer


def adam_on(p, lr=RunConfig().lr):
    """An Adam over one tensor ``p``, with RunConfig's lr by default."""
    params = {"p": Tensor(p)}
    return params["p"], Adam(params, lr)


def step_with(t, opt, g):
    t.grad = np.asarray(g, dtype=np.float64)
    opt.step()
    assert t.grad is None  # the step uses its gradient up
    return t.data


def test_adam_first_step_closed_form():
    rng = np.random.default_rng(10)
    p = rng.standard_normal(6)
    g = rng.standard_normal(6)
    t, opt = adam_on(p.copy(), lr=0.01)
    updated = step_with(t, opt, g)
    # after bias correction the first step is lr * g / (|g| + eps)
    np.testing.assert_allclose(updated, p - 0.01 * g / (np.abs(g) + 1e-8), atol=1e-12)


def test_adam_matches_reference_loop(monkeypatch):
    monkeypatch.setattr(Adam, "beta2", 0.9)  # a step reads the betas off the class
    rng = np.random.default_rng(11)
    p = rng.standard_normal((3, 2))
    t, opt = adam_on(p.copy(), lr=0.05)

    m = np.zeros_like(p)
    v = np.zeros_like(p)
    p_ref = p.copy()
    for step in range(1, 8):
        g = rng.standard_normal(p.shape)
        p_ours = step_with(t, opt, g)
        m = 0.5 * m + 0.5 * g
        v = 0.9 * v + 0.1 * g**2
        m_hat = m / (1 - 0.5**step)
        v_hat = v / (1 - 0.9**step)
        p_ref = p_ref - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(p_ours, p_ref, atol=1e-12)


def test_adam_default_hyperparameters():
    """The learning rate lives in RunConfig; the paper's betas and eps are Adam's."""
    _, opt = adam_on(np.zeros(1))
    assert (opt.lr, opt.beta1, opt.beta2) == (0.0002, 0.5, 0.999)
    assert Adam.EPS == 1e-8


def test_adam_refuses_a_missing_gradient():
    """A parameter without a gradient never reached the loss: the step names it
    and moves nothing."""
    params = {"a": Tensor(np.ones(2)), "b": Tensor(np.ones(2))}
    opt = Adam(params, lr=0.1)
    params["a"].grad = np.ones(2)
    with pytest.raises(ConfigurationError, match="'b'"):
        opt.step()
    np.testing.assert_array_equal(params["a"].data, np.ones(2))
    assert opt.steps == 0


def test_adam_step_shape_mismatch():
    """A wrong-shaped gradient after a good one raises before anything moves:
    the good parameter, its moments and the step count stay as they were."""
    params = {"a": Tensor(np.ones(2)), "b": Tensor(np.ones(3))}
    opt = Adam(params, lr=0.1)
    params["a"].grad = np.ones(2)
    params["b"].grad = np.ones(4)
    with pytest.raises(ShapeError, match="'b'"):
        opt.step()
    np.testing.assert_array_equal(params["a"].data, np.ones(2))
    np.testing.assert_array_equal(opt.m["a"], np.zeros(2))
    np.testing.assert_array_equal(opt.v["a"], np.zeros(2))
    assert opt.steps == 0


def test_adam_preserves_zero_dim_parameters():
    t, opt = adam_on(np.array(1.0), lr=0.1)
    updated = step_with(t, opt, np.array(2.0))
    assert isinstance(updated, np.ndarray) and updated.shape == ()
