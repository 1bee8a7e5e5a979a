"""Modality encoders: geometry checks, determinism, and the quantum tail."""

import numpy as np
import pytest

from vqcontrast.diffnet import Tape, Tensor
from vqcontrast.encoders import (
    EegConvEncoder,
    EegEncoderConfig,
    ImageEmbedHead,
    ImageHeadConfig,
    quantum_layer,
)
from vqcontrast.errors import ConfigurationError, ShapeError
from vqcontrast.statevector import cnot, ry

TINY = EegEncoderConfig(
    electrodes=4,
    time_samples=32,
    spatial_maps=2,
    temporal_maps=3,
    temporal_kernel=8,
    embed_dim=6,
    n_qubits=2,
    n_layers=2,
)

IMG_TINY = ImageHeadConfig(input_dim=5, embed_dim=6, n_qubits=2, n_layers=2)


def scalarize(tape, out, r):
    loss = Tensor(np.sum(out.data * r))

    def backward():
        if loss.grad is not None:
            out.accumulate(float(loss.grad) * r)

    tape.record(backward)
    return loss


# ---------------------------------------------------------------------------
# Configs


def test_config_derived_dimensions():
    assert TINY.temporal_out == 25
    assert TINY.flat_dim == 75


def test_config_rejects_nonpositive_fields():
    with pytest.raises(ConfigurationError):
        EegEncoderConfig(0, 32, 2, 3, 8, 6, 2, 2)
    with pytest.raises(ConfigurationError):
        ImageHeadConfig(input_dim=5, embed_dim=0, n_qubits=2, n_layers=2)


def test_config_rejects_kernel_longer_than_signal():
    with pytest.raises(ConfigurationError):
        EegEncoderConfig(4, 8, 2, 3, 9, 6, 2, 2)


def test_config_rejects_too_many_qubits():
    with pytest.raises(ConfigurationError):
        ImageHeadConfig(input_dim=5, embed_dim=6, n_qubits=17, n_layers=2)


# ---------------------------------------------------------------------------
# Quantum layer op


def test_quantum_layer_matches_scalar_circuit(oracle_z):
    """Each row against the dense oracle of its own gate list."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-np.pi, np.pi, size=(3, 2))
    w = rng.uniform(-np.pi, np.pi, size=(2, 2))
    out = quantum_layer(Tape(), Tensor(x), Tensor(w))
    for row in range(3):
        gates = [ry(0, x[row, 0]), ry(1, x[row, 1])]
        for layer in range(2):
            gates += [cnot(0, 1), cnot(1, 0), ry(0, w[layer, 0]), ry(1, w[layer, 1])]
        np.testing.assert_allclose(out.data[row], oracle_z(gates, 2), atol=1e-12)


def test_quantum_layer_rejects_flat_weights():
    with pytest.raises(ShapeError):
        quantum_layer(Tape(), Tensor(np.zeros((2, 2))), Tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# EEG encoder


def test_eeg_encoder_output_is_unit_rows():
    rng = np.random.default_rng(1)
    enc = EegConvEncoder(TINY, rng)
    x = Tensor(rng.standard_normal((5, 1, 4, 32)))
    out = enc.forward(Tape(), x, train=True)
    assert out.shape == (5, TINY.embed_dim)
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)


def test_eeg_encoder_init_is_seed_deterministic():
    a = EegConvEncoder(TINY, np.random.default_rng(7))
    b = EegConvEncoder(TINY, np.random.default_rng(7))
    assert sorted(a.params) == sorted(b.params)
    for name in a.params:
        np.testing.assert_array_equal(a.params[name].data, b.params[name].data)
    assert np.abs(a.params["circuit_weights"].data).max() <= np.pi


def test_eeg_encoder_zeroed_angles_collapse_to_one_row():
    """With zero angle projection and circuit weights, every qubit measures
    +1, so all samples map to the same normalized embedding."""
    rng = np.random.default_rng(2)
    enc = EegConvEncoder(TINY, rng)
    enc.params["angle_w"].data[:] = 0.0
    enc.params["angle_b"].data[:] = 0.0
    enc.params["circuit_weights"].data[:] = 0.0
    x = Tensor(rng.standard_normal((4, 1, 4, 32)))
    out = enc.forward(Tape(), x, train=False)
    z = np.ones(TINY.n_qubits) @ enc.params["proj_w"].data + enc.params["proj_b"].data
    expected = z / np.linalg.norm(z)
    for row in range(4):
        np.testing.assert_allclose(out.data[row], expected, atol=1e-12)


def test_eeg_encoder_eval_mode_is_per_sample():
    """In eval mode no op couples samples, so row order cannot matter."""
    rng = np.random.default_rng(3)
    enc = EegConvEncoder(TINY, rng)
    x = rng.standard_normal((6, 1, 4, 32))
    perm = rng.permutation(6)
    out = enc.forward(Tape(), Tensor(x), train=False)
    out_perm = enc.forward(Tape(), Tensor(x[perm]), train=False)
    np.testing.assert_allclose(out_perm.data, out.data[perm], atol=1e-12)


def test_eeg_encoder_train_mode_updates_running_stats():
    rng = np.random.default_rng(4)
    enc = EegConvEncoder(TINY, rng)
    before = {k: v.copy() for k, v in enc.buffers.items()}
    enc.forward(Tape(), Tensor(rng.standard_normal((4, 1, 4, 32))), train=True)
    assert any(not np.array_equal(before[k], enc.buffers[k]) for k in before)


def test_eeg_encoder_single_sample_train_pools_over_time():
    # Channel statistics pool over the time axis, so even B=1 is well posed.
    rng = np.random.default_rng(5)
    enc = EegConvEncoder(TINY, rng)
    out = enc.forward(Tape(), Tensor(rng.standard_normal((1, 1, 4, 32))), train=True)
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)


def test_eeg_encoder_rejects_wrong_input_shape():
    enc = EegConvEncoder(TINY, np.random.default_rng(6))
    with pytest.raises(ShapeError):
        enc.forward(Tape(), Tensor(np.zeros((4, 4, 32))), train=False)
    with pytest.raises(ShapeError):
        enc.forward(Tape(), Tensor(np.zeros((4, 1, 5, 32))), train=False)


def test_eeg_encoder_extreme_inputs_stay_finite():
    rng = np.random.default_rng(7)
    enc = EegConvEncoder(TINY, rng)
    x = Tensor(1e3 * rng.standard_normal((4, 1, 4, 32)))
    out = enc.forward(Tape(), x, train=True)
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)


def test_eeg_encoder_gradients_reach_every_parameter():
    rng = np.random.default_rng(8)
    enc = EegConvEncoder(TINY, rng)
    tape = Tape()
    out = enc.forward(tape, Tensor(rng.standard_normal((4, 1, 4, 32))), train=True)
    tape.backward(scalarize(tape, out, rng.standard_normal(out.data.shape)))
    for name, p in enc.params.items():
        assert p.grad is not None, name
        assert np.any(p.grad != 0.0), name


# ---------------------------------------------------------------------------
# Image head


def test_image_head_output_is_unit_rows():
    rng = np.random.default_rng(9)
    head = ImageEmbedHead(IMG_TINY, rng)
    out = head.forward(Tape(), Tensor(rng.standard_normal((5, 5))))
    assert out.shape == (5, IMG_TINY.embed_dim)
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)


def test_image_head_rejects_wrong_width():
    head = ImageEmbedHead(IMG_TINY, np.random.default_rng(10))
    with pytest.raises(ShapeError):
        head.forward(Tape(), Tensor(np.zeros((5, 4))))


def test_image_head_is_per_sample():
    rng = np.random.default_rng(11)
    head = ImageEmbedHead(IMG_TINY, rng)
    x = rng.standard_normal((6, 5))
    perm = rng.permutation(6)
    out = head.forward(Tape(), Tensor(x))
    out_perm = head.forward(Tape(), Tensor(x[perm]))
    np.testing.assert_allclose(out_perm.data, out.data[perm], atol=1e-12)


def test_image_head_gradients_reach_every_parameter():
    rng = np.random.default_rng(12)
    head = ImageEmbedHead(IMG_TINY, rng)
    tape = Tape()
    out = head.forward(tape, Tensor(rng.standard_normal((4, 5))))
    tape.backward(scalarize(tape, out, rng.standard_normal(out.data.shape)))
    for name, p in head.params.items():
        assert p.grad is not None, name
        assert np.any(p.grad != 0.0), name
