"""Tests of the benchmark's own references, checks and trace arithmetic.

    PYTHONPATH=src python -m pytest -q bench

Each check must accept the program's real output and reject a corrupted one.
"""

import itertools

import numpy as np
import pytest

import checks
from checks import CheckFailure
from reference import apply_cnot, circuit_rows, topk_hits, z_expectations
from tracer import Tracer, add_epoch_roots, instrumented, per_unit, self_times
from vqcontrast import diffnet, generate_dataset, harness
from vqcontrast.vqc import QuantumLayerParams, vqc_batched_forward, vqc_batched_vjp


@pytest.mark.parametrize("x,w", [(0.0, 0.0), (0.3, -1.1), (2.5, 1.7), (-3.0, 0.4)])
def test_single_qubit_closed_form(x, w):
    assert circuit_rows([[x]], [[w]])[0, 0] == pytest.approx(np.cos(x + w), abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cnot_ring_permutes_basis_states(n):
    for bits in itertools.product((0, 1), repeat=n):
        psi = np.zeros((2,) * n)
        psi[bits] = 1.0
        for q in range(n):
            psi = apply_cnot(psi, q, (q + 1) % n)
        want = list(bits)
        for q in range(n):
            want[(q + 1) % n] ^= want[q]
        assert psi[tuple(want)] == 1.0 and np.count_nonzero(psi) == 1


def test_z_expectations_read_basis_bits():
    psi = np.zeros((2, 2, 2))
    psi[1, 0, 1] = 1.0
    assert z_expectations(psi).tolist() == [-1.0, 1.0, -1.0]


def _circuit(n_qubits=5, n_layers=3, rows=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-np.pi, np.pi, size=(rows, n_qubits))
    weights = rng.uniform(-np.pi, np.pi, size=(n_layers, n_qubits))
    return rng, X, weights, QuantumLayerParams(n_qubits, n_layers, weights)


def test_forward_check_accepts_program_and_rejects_perturbed_output():
    _, X, weights, params = _circuit()
    out = vqc_batched_forward(X, params)
    checks.check_forward(X, weights, out)
    bad = out.copy()
    bad[2, 3] += 1e-8
    with pytest.raises(CheckFailure):
        checks.check_forward(X, weights, bad)


def test_vjp_check_accepts_program_and_rejects_sign_flip():
    rng, X, weights, params = _circuit()
    upstream = rng.standard_normal(X.shape)
    d_inputs, d_weights = vqc_batched_vjp(X, params, upstream)
    checks.check_vjp(X, weights, upstream, d_inputs, d_weights, np.random.default_rng(1))
    with pytest.raises(CheckFailure):
        checks.check_vjp(X, weights, upstream, -d_inputs, -d_weights,
                         np.random.default_rng(1))


def test_directional_check_rejects_sign_flip():
    A = np.random.default_rng(2).standard_normal((7, 7))

    def f(theta):
        return float(np.sin(theta) @ A @ theta)

    theta = np.linspace(-1.0, 1.0, 7)
    grad = np.cos(theta) * (A @ theta) + A.T @ np.sin(theta)
    checks.check_directional("f", f, theta, grad, np.random.default_rng(3))
    with pytest.raises(CheckFailure):
        checks.check_directional("f", f, theta, -grad, np.random.default_rng(3))


def test_topk_check_rejects_wrong_topk():
    rng = np.random.default_rng(4)
    scores = rng.standard_normal((50, 9))
    true_idx = rng.integers(0, 9, size=50)
    top1 = topk_hits(scores, true_idx, 1) / 50
    top5 = topk_hits(scores, true_idx, 5) / 50
    checks.check_topk(scores, true_idx, top1, top5)
    with pytest.raises(CheckFailure):
        checks.check_topk(scores, true_idx, top1 + 1 / 50, top5)
    with pytest.raises(CheckFailure):
        checks.check_topk(scores, true_idx, top1, top5 - 1 / 50)


def test_ranker_breaks_ties_toward_lower_class():
    scores = np.zeros((4, 6))
    true_idx = np.array([0, 1, 4, 5])
    assert topk_hits(scores, true_idx, 1) == 1
    assert topk_hits(scores, true_idx, 5) == 3


def test_round_trip_check_rejects_a_flipped_bit():
    saved = {"w": np.array([[0.1, -2.5], [3.0, 1e-3]]), "tau": np.array(2.659)}
    loaded = {k: v.astype(np.float32).astype(np.float64) for k, v in saved.items()}
    checks.check_round_trip(saved, loaded)
    bits = loaded["w"].view(np.uint64)
    bits[0, 1] ^= np.uint64(1 << 40)
    with pytest.raises(CheckFailure):
        checks.check_round_trip(saved, loaded)


def test_learning_check_needs_both_signals():
    checks.check_learning(3.8, 1.0, 0.5, 160, 8)
    with pytest.raises(CheckFailure):
        checks.check_learning(3.8, 2.0, 0.5, 160, 8)
    with pytest.raises(CheckFailure):
        checks.check_learning(3.8, 1.0, 0.18, 160, 8)


def test_self_times_add_up_to_the_root():
    tracer = Tracer()
    root = tracer.begin("harness.eval")
    with tracer.span("vqc.forward"):
        tracer.event("vqc.forward_rows", 8)
    with tracer.span("diffnet.elu.fwd"):
        with tracer.span("diffnet.linear.fwd"):
            pass
    tracer.finish(root)
    own = self_times(tracer)
    assert np.all(own >= 0.0)
    assert own.sum() == pytest.approx(tracer.duration(root), rel=1e-12)
    layers = per_unit(tracer, [root], 1)
    assert layers["vqc.forward_rows"] == 8
    assert sum(v for k, v in layers.items() if k.endswith("_s")) == pytest.approx(
        tracer.duration(root), rel=1e-12)


def test_traced_training_adds_up_and_restores_the_program(tmp_path):
    config = harness.RunConfig(
        n_qubits=2, n_layers=1, lr=0.02, epochs=3, batch_size=4, electrodes=3,
        time_samples=16, spatial_maps=2, temporal_maps=2, temporal_kernel=4,
        embed_dim=4, image_dim=6, n_train_classes=2, n_test_classes=2,
        samples_per_class=4, noise_sigma=0.2, latent_dim=2, seed=3, n_runs=1,
    )
    manifest = generate_dataset(
        tmp_path, seed=3, n_train_classes=2, n_test_classes=2, samples_per_class=4,
        electrodes=3, time_samples=16, image_dim=6, noise_sigma=0.2)
    program = (diffnet.linear, diffnet.Tape.record, harness.MetricsRecord)
    tracer = Tracer()
    with instrumented(tracer):
        _, records = harness.train(config, manifest)
    assert (diffnet.linear, diffnet.Tape.record, harness.MetricsRecord) == program

    units = add_epoch_roots(tracer)
    steps = 2 * len(units)  # 8 training rows in batches of 4
    layers = per_unit(tracer, units, steps)
    assert len(units) == 3
    assert layers["vqc.vjp_rows"] == 8  # 4 EEG and 4 image rows per step
    assert layers["harness.step_self_s"] >= 0.0
    assert sum(v for k, v in layers.items() if k.endswith("_s")) == pytest.approx(
        sum(r.wall_time for r in records) / steps, rel=1e-9)
