"""Modality encoders: geometry checks, determinism, and the quantum tail."""

import numpy as np
import pytest

from vqcontrast import RunConfig
from vqcontrast.diffnet import Tape, Tensor
from vqcontrast.encoders import EegConvEncoder, ImageEmbedHead, quantum_layer
from vqcontrast.errors import ConfigurationError, ShapeError
from vqcontrast.oracles import circuit_gates
from vqcontrast.vqc import MAX_QUBITS

TINY = RunConfig(
    electrodes=4,
    time_samples=32,
    spatial_maps=2,
    temporal_maps=3,
    temporal_kernel=8,
    embed_dim=6,
    n_qubits=2,
    n_layers=2,
    image_dim=5,
)


# ---------------------------------------------------------------------------
# Configs


def test_config_derived_dimensions():
    """Both heads size their tails from the config and share its names."""
    eeg = EegConvEncoder(TINY, np.random.default_rng(0))
    img = ImageEmbedHead(TINY, np.random.default_rng(0))
    # 3 temporal maps x (32 - 8 + 1) samples flatten to 75 features
    assert eeg.params["angle_w"].shape == (75, TINY.n_qubits)
    assert img.params["angle_w"].shape == (TINY.image_dim, TINY.n_qubits)
    tail = ["angle_w", "angle_b", "circuit_weights", "proj_w", "proj_b"]
    assert list(img.params) == tail
    assert list(eeg.params)[-5:] == tail
    for head in (eeg, img):
        assert head.params["circuit_weights"].shape == (TINY.n_layers, TINY.n_qubits)
        assert head.params["proj_w"].shape == (TINY.n_qubits, TINY.embed_dim)


def test_config_rejects_nonpositive_fields():
    for field in ("electrodes", "embed_dim", "image_dim"):
        with pytest.raises(ConfigurationError, match=field):
            RunConfig(**{field: 0})


def test_config_rejects_kernel_longer_than_signal():
    with pytest.raises(ConfigurationError, match="temporal_kernel"):
        RunConfig(time_samples=8, temporal_kernel=9)


def test_config_rejects_too_many_qubits():
    assert RunConfig(n_qubits=MAX_QUBITS).n_qubits == MAX_QUBITS
    with pytest.raises(ConfigurationError, match="n_qubits"):
        RunConfig(n_qubits=MAX_QUBITS + 1)


# ---------------------------------------------------------------------------
# Quantum layer op


def test_quantum_layer_matches_scalar_circuit(oracle_z):
    """Each row against the dense oracle of its own gate list."""
    rng = np.random.default_rng(0)
    x = rng.uniform(-np.pi, np.pi, size=(3, 2))
    w = rng.uniform(-np.pi, np.pi, size=(2, 2))
    out = quantum_layer(Tape(), Tensor(x), Tensor(w))
    for row in range(3):
        expected = oracle_z(circuit_gates(x[row], w), 2)
        np.testing.assert_allclose(out.data[row], expected, atol=1e-12)


def test_quantum_layer_rejects_flat_weights():
    with pytest.raises(ShapeError):
        quantum_layer(Tape(), Tensor(np.zeros((2, 2))), Tensor(np.zeros(4)))


# ---------------------------------------------------------------------------
# EEG encoder


def test_eeg_encoder_output_is_unit_rows():
    rng = np.random.default_rng(1)
    enc = EegConvEncoder(TINY, rng)
    x = Tensor(rng.standard_normal((5, 4, 32)))
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
    x = Tensor(rng.standard_normal((4, 4, 32)))
    out = enc.forward(Tape(), x, train=False)
    z = np.ones(TINY.n_qubits) @ enc.params["proj_w"].data + enc.params["proj_b"].data
    expected = z / np.linalg.norm(z)
    for row in range(4):
        np.testing.assert_allclose(out.data[row], expected, atol=1e-12)


def test_eeg_encoder_eval_mode_is_per_sample():
    """In eval mode no op couples samples, so row order cannot matter."""
    rng = np.random.default_rng(3)
    enc = EegConvEncoder(TINY, rng)
    x = rng.standard_normal((6, 4, 32))
    perm = rng.permutation(6)
    out = enc.forward(Tape(), Tensor(x), train=False)
    out_perm = enc.forward(Tape(), Tensor(x[perm]), train=False)
    np.testing.assert_allclose(out_perm.data, out.data[perm], atol=1e-12)


def test_eeg_encoder_train_mode_updates_running_stats():
    rng = np.random.default_rng(4)
    enc = EegConvEncoder(TINY, rng)
    before = {k: v.copy() for k, v in enc.buffers.items()}
    enc.forward(Tape(), Tensor(rng.standard_normal((4, 4, 32))), train=True)
    assert any(not np.array_equal(before[k], enc.buffers[k]) for k in before)


def test_eeg_encoder_single_sample_train_pools_over_time():
    # Channel statistics pool over the time axis, so even B=1 is well posed.
    rng = np.random.default_rng(5)
    enc = EegConvEncoder(TINY, rng)
    out = enc.forward(Tape(), Tensor(rng.standard_normal((1, 4, 32))), train=True)
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)


def test_eeg_encoder_rejects_wrong_input_shape():
    enc = EegConvEncoder(TINY, np.random.default_rng(6))
    for shape in ((4, 1, 4, 32), (4, 5, 32)):  # a singleton channel axis; wrong electrodes
        with pytest.raises(ShapeError, match=r"expected \(B, 4, 32\) input"):
            enc.forward(Tape(), Tensor(np.zeros(shape)), train=False)


def test_eeg_encoder_extreme_inputs_stay_finite():
    rng = np.random.default_rng(7)
    enc = EegConvEncoder(TINY, rng)
    x = Tensor(1e3 * rng.standard_normal((4, 4, 32)))
    out = enc.forward(Tape(), x, train=True)
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)


def test_eeg_encoder_gradients_reach_every_parameter():
    rng = np.random.default_rng(8)
    enc = EegConvEncoder(TINY, rng)
    tape = Tape()
    out = enc.forward(tape, Tensor(rng.standard_normal((4, 4, 32))), train=True)
    r = rng.standard_normal(out.data.shape)
    tape.backward(tape.op((out,), np.sum(out.data * r), lambda g: (g * r,)))
    for name, p in enc.params.items():
        assert p.grad is not None, name
        assert np.any(p.grad != 0.0), name


# ---------------------------------------------------------------------------
# Image head


def test_image_head_output_is_unit_rows():
    rng = np.random.default_rng(9)
    head = ImageEmbedHead(TINY, rng)
    out = head.forward(Tape(), Tensor(rng.standard_normal((5, 5))))
    assert out.shape == (5, TINY.embed_dim)
    np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)


def test_image_head_rejects_wrong_width():
    head = ImageEmbedHead(TINY, np.random.default_rng(10))
    with pytest.raises(ShapeError):
        head.forward(Tape(), Tensor(np.zeros((5, 4))))


def test_image_head_is_per_sample():
    rng = np.random.default_rng(11)
    head = ImageEmbedHead(TINY, rng)
    x = rng.standard_normal((6, 5))
    perm = rng.permutation(6)
    out = head.forward(Tape(), Tensor(x))
    out_perm = head.forward(Tape(), Tensor(x[perm]))
    np.testing.assert_allclose(out_perm.data, out.data[perm], atol=1e-12)


def test_image_head_gradients_reach_every_parameter():
    rng = np.random.default_rng(12)
    head = ImageEmbedHead(TINY, rng)
    tape = Tape()
    out = head.forward(tape, Tensor(rng.standard_normal((4, 5))))
    r = rng.standard_normal(out.data.shape)
    tape.backward(tape.op((out,), np.sum(out.data * r), lambda g: (g * r,)))
    for name, p in head.params.items():
        assert p.grad is not None, name
        assert np.any(p.grad != 0.0), name
