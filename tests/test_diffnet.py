"""Autodiff engine ops against closed forms and the optimizer against its
update equations."""

import tracemalloc

import numpy as np
import pytest

from vqcontrast import diffnet
from vqcontrast import RunConfig
from vqcontrast.diffnet import Adam, Tape, Tensor
from vqcontrast.errors import ConfigurationError, NumericError, ShapeError


def scalarize(tape, out, r):
    """sum(out * r) as a tape op so backward can be replayed from a scalar."""
    loss = Tensor(np.sum(out.data * r))

    def backward():
        if loss.grad is not None:
            out.accumulate(float(loss.grad) * r)

    tape.record(backward)
    return loss


def backprop(build, arrays, seed=0):
    """Run build on fresh Tensors, backprop a random-weighted sum, and
    return (output data, per-input grads, weighting)."""
    tape = Tape()
    tensors = [Tensor(a) for a in arrays]
    out = build(tape, *tensors)
    r = np.random.default_rng(seed).standard_normal(out.data.shape)
    tape.backward(scalarize(tape, out, r))
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
    x = rng.standard_normal((2, 1, 3, 5))
    k = rng.standard_normal((4, 1, 3, 1))
    out, _, _ = backprop(lambda t, x_, k_: diffnet.conv_spatial(t, x_, k_), [x, k])
    assert out.shape == (2, 4, 1, 5)
    for b in range(2):
        for f in range(4):
            for t in range(5):
                expected = np.dot(k[f, 0, :, 0], x[b, 0, :, t])
                assert abs(out[b, f, 0, t] - expected) < 1e-12


def test_conv_temporal_matches_loops():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 3, 1, 10))
    k = rng.standard_normal((4, 3, 1, 4))
    out, (dx, dk), r = backprop(lambda t, x_, k_: diffnet.conv_temporal(t, x_, k_), [x, k])
    assert out.shape == (2, 4, 1, 7)
    expected_dx, expected_dk = np.zeros_like(x), np.zeros_like(k)
    for b in range(2):
        for g in range(4):
            for t in range(7):
                window = x[b, :, 0, t : t + 4]
                assert abs(out[b, g, 0, t] - np.sum(window * k[g, :, 0, :])) < 1e-12
                expected_dx[b, :, 0, t : t + 4] += r[b, g, 0, t] * k[g, :, 0, :]
                expected_dk[g, :, 0, :] += r[b, g, 0, t] * window
    np.testing.assert_allclose(dx, expected_dx, atol=1e-12)
    np.testing.assert_allclose(dk, expected_dk, atol=1e-12)


def test_conv_temporal_never_holds_a_window_array():
    """Forward and backward at paper-step shape stay below one (B, F, T', k) array."""
    rng = np.random.default_rng(13)
    x, k = rng.standard_normal((64, 8, 1, 100)), rng.standard_normal((8, 8, 1, 16))
    window_bytes = 64 * 8 * (100 - 16 + 1) * 16 * 8
    tracemalloc.start()
    try:
        _, (dx, dk), _ = backprop(lambda t, x_, k_: diffnet.conv_temporal(t, x_, k_), [x, k])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dx.shape == x.shape and dk.shape == k.shape
    assert peak < window_bytes


def test_batch_norm_train_standardizes():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((50, 3)) * 2.5 + 1.0
    gamma, beta = np.ones(3), np.zeros(3)
    mean, var = np.zeros(3), np.ones(3)
    tape = Tape()
    out = diffnet.batch_norm(tape, Tensor(x), Tensor(gamma), Tensor(beta), mean, var, train=True)
    np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.var(axis=0), 1.0, atol=1e-4)


def test_batch_norm_running_stats_update():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 4))
    mean, var = np.zeros(4), np.ones(4)
    tape = Tape()
    diffnet.batch_norm(tape, Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)),
                       mean, var, train=True)
    assert diffnet.BN_MOMENTUM == 0.1
    np.testing.assert_allclose(mean, 0.1 * x.mean(axis=0), atol=1e-14)
    # running variance uses the unbiased estimator
    np.testing.assert_allclose(var, 0.9 + 0.1 * x.var(axis=0) * 20 / 19, atol=1e-14)


def test_batch_norm_eval_uses_running_stats():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    mean, var = np.array([1.0, 1.0]), np.array([4.0, 4.0])
    tape = Tape()
    out = diffnet.batch_norm(tape, Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                             mean, var, train=False)
    expected = (x - 1.0) / np.sqrt(4.0 + diffnet.BN_EPS)
    np.testing.assert_allclose(out.data, expected, atol=1e-14)
    np.testing.assert_array_equal(mean, [1.0, 1.0])  # untouched in eval


def test_batch_norm_affine_params_apply():
    x = np.array([[0.0, 0.0], [2.0, 4.0]])
    tape = Tape()
    out = diffnet.batch_norm(tape, Tensor(x), Tensor(np.array([2.0, 3.0])),
                             Tensor(np.array([1.0, -1.0])), np.zeros(2), np.ones(2),
                             train=True)
    np.testing.assert_allclose(out.data[:, 0], [1.0 - 2.0, 1.0 + 2.0], atol=1e-4)
    np.testing.assert_allclose(out.data[:, 1], [-1.0 - 3.0, -1.0 + 3.0], atol=1e-4)


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("shape", [(6, 3), (5, 3, 1, 7)], ids=["2d", "4d"])
def test_batch_norm_matches_textbook_form(train, shape):
    """The one-pass scale and shift equals gamma * (x - mean) / sigma + beta."""
    rng = np.random.default_rng(17)
    x = rng.standard_normal(shape) * 2.0 + 0.7
    gamma, beta = rng.standard_normal(3), rng.standard_normal(3)
    running_mean, running_var = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)
    axes = (0,) if len(shape) == 2 else (0, 2, 3)
    if train:
        mean, var = x.mean(axis=axes), x.var(axis=axes)
    else:
        mean, var = running_mean.copy(), running_var.copy()
    cast = (lambda a: a) if len(shape) == 2 else (lambda a: a[:, None, None])
    expected = cast(gamma) * (x - cast(mean)) / np.sqrt(cast(var) + 1e-5) + cast(beta)
    out = diffnet.batch_norm(Tape(), Tensor(x), Tensor(gamma), Tensor(beta),
                             running_mean, running_var, train=train)
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)


def test_batch_norm_single_sample_train_rejected():
    tape = Tape()
    with pytest.raises(ConfigurationError):
        diffnet.batch_norm(tape, Tensor(np.ones((1, 3))), Tensor(np.ones(3)),
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


def test_chained_ops_backprop():
    # two linears back to back; checked against the factored closed form
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 4))
    w1, b1 = rng.standard_normal((4, 5)), rng.standard_normal(5)
    w2, b2 = rng.standard_normal((5, 2)), rng.standard_normal(2)

    def build(tape, x_, w1_, b1_, w2_, b2_):
        return diffnet.linear(tape, diffnet.linear(tape, x_, w1_, b1_), w2_, b2_)

    _, (dx, dw1, db1, dw2, db2), r = backprop(build, [x, w1, b1, w2, b2])
    np.testing.assert_allclose(dx, r @ w2.T @ w1.T, atol=1e-13)
    np.testing.assert_allclose(dw2, (x @ w1 + b1).T @ r, atol=1e-13)
    np.testing.assert_allclose(dw1, x.T @ (r @ w2.T), atol=1e-13)


def test_shape_validation():
    t = Tape()
    with pytest.raises(ShapeError):
        diffnet.linear(t, Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.ones(5)))
    with pytest.raises(ShapeError):
        diffnet.conv_spatial(t, Tensor(np.ones((2, 1, 4, 8))), Tensor(np.ones((3, 1, 5, 1))))
    with pytest.raises(ShapeError):
        diffnet.conv_temporal(t, Tensor(np.ones((2, 3, 1, 4))), Tensor(np.ones((2, 3, 1, 6))))
    with pytest.raises(ShapeError):
        diffnet.l2_normalize(t, Tensor(np.ones(4)))


# ---------------------------------------------------------------------------
# Optimizer


def adam_on(p, **hyper):
    """An Adam over one tensor ``p``, hyperparameters defaulting to RunConfig's."""
    d = RunConfig()
    kw = dict(lr=d.lr, beta1=d.beta1, beta2=d.beta2, weight_decay=d.weight_decay)
    params = {"p": Tensor(p)}
    return params["p"], Adam(params, **{**kw, **hyper})


def step_with(t, opt, g):
    t.grad = np.asarray(g, dtype=np.float64)
    opt.step()
    opt.zero_grad()
    return t.data


def test_adam_first_step_closed_form():
    rng = np.random.default_rng(10)
    p = rng.standard_normal(6)
    g = rng.standard_normal(6)
    t, opt = adam_on(p.copy(), lr=0.01, beta1=0.5, beta2=0.999)
    updated = step_with(t, opt, g)
    # after bias correction the first step is lr * g / (|g| + eps)
    np.testing.assert_allclose(updated, p - 0.01 * g / (np.abs(g) + 1e-8), atol=1e-12)


def test_adam_matches_reference_loop():
    rng = np.random.default_rng(11)
    p = rng.standard_normal((3, 2))
    t, opt = adam_on(p.copy(), lr=0.05, beta1=0.5, beta2=0.9)

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


def test_adam_decoupled_weight_decay():
    t, opt = adam_on(np.array([2.0]), lr=0.1, weight_decay=0.5)
    updated = step_with(t, opt, [0.0])
    # zero gradient: only the decay term moves the parameter
    np.testing.assert_allclose(updated, [2.0 - 0.1 * 0.5 * 2.0], atol=1e-12)


def test_adam_default_hyperparameters():
    """The defaults live in RunConfig; only eps is fixed by the optimizer."""
    d = RunConfig()
    assert (d.lr, d.beta1, d.beta2, d.weight_decay) == (0.0002, 0.5, 0.999, 0.0)
    assert Adam.EPS == 1e-8


def test_adam_wrapper_skips_missing_grads():
    """A parameter without a gradient keeps its value, moments and step count,
    so its bias correction resumes where it left off."""
    params = {"a": Tensor(np.ones(2)), "b": Tensor(np.ones(2))}
    opt = Adam(params, lr=0.1, beta1=0.5, beta2=0.999, weight_decay=0.0)
    params["a"].grad = np.ones(2)
    opt.step()
    assert not np.array_equal(params["a"].data, np.ones(2))
    np.testing.assert_array_equal(params["b"].data, np.ones(2))
    np.testing.assert_array_equal(opt.m["b"], np.zeros(2))
    np.testing.assert_array_equal(opt.v["b"], np.zeros(2))
    assert opt.steps == {"a": 1, "b": 0}
    opt.zero_grad()
    assert params["a"].grad is None
    # b's first real step is a first step: lr * g / (|g| + eps)
    params["b"].grad = np.full(2, 3.0)
    opt.step()
    np.testing.assert_allclose(params["b"].data, 1.0 - 0.1 * 3.0 / (3.0 + 1e-8), atol=1e-12)
    assert opt.steps == {"a": 1, "b": 1}


def test_adam_step_shape_mismatch():
    t, opt = adam_on(np.zeros(3))
    t.grad = np.zeros(4)
    with pytest.raises(ShapeError):
        opt.step()


def test_adam_preserves_zero_dim_parameters():
    t, opt = adam_on(np.array(1.0), lr=0.1)
    updated = step_with(t, opt, np.array(2.0))
    assert isinstance(updated, np.ndarray) and updated.shape == ()
