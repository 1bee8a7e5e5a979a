"""Acceptance gate: the eight release criteria, one test per criterion.

Each test prints a [PASS]/[FAIL] line; conftest.py repeats the verdicts
in the terminal summary so they stay visible under output capture.  One
further test pins the zero-shot top-k on the acceptance dataset.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from vqcontrast import (
    RetrievalModel,
    RunConfig,
    clip_loss,
    evaluate_zero_shot,
    generate_dataset,
    run_all_checks,
    run_protocol,
    train,
)
from vqcontrast.cli import main
from vqcontrast.data import MANIFEST_FILE
from vqcontrast.statevector import cnot, cnot_index, dense_unitary_oracle, ry, ry_rows
from vqcontrast.vqc import QuantumLayerParams, vqc_batched_forward, vqc_batched_vjp


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


# Small enough for a workstation, large enough to show a learning signal.
DESK = RunConfig(
    n_qubits=4,
    n_layers=2,
    lr=0.002,
    epochs=100,
    batch_size=32,
    electrodes=8,
    time_samples=64,
    spatial_maps=8,
    temporal_maps=8,
    temporal_kernel=16,
    embed_dim=16,
    image_dim=32,
    n_train_classes=16,
    n_test_classes=8,
    samples_per_class=20,
    noise_sigma=0.3,
    latent_dim=2,
    seed=0,
    n_runs=5,
)


@pytest.fixture(scope="module")
def desk_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("deskdata")
    return generate_dataset(
        root,
        seed=DESK.seed,
        n_train_classes=DESK.n_train_classes,
        n_test_classes=DESK.n_test_classes,
        samples_per_class=DESK.samples_per_class,
        electrodes=DESK.electrodes,
        time_samples=DESK.time_samples,
        image_dim=DESK.image_dim,
        noise_sigma=DESK.noise_sigma,
        latent_dim=DESK.latent_dim,
    )


def test_criterion_1_statevector_matches_dense_oracle():
    with criterion("1 statevector vs dense oracle (n<=4, 1e-10, <10s)"):
        rng = np.random.default_rng(7)
        started = time.perf_counter()
        for n in range(1, 5):
            for _ in range(100):
                length = int(rng.integers(1, 13))
                ops = []
                for _ in range(length):
                    if n >= 2 and rng.random() < 0.4:
                        c, t = rng.choice(n, size=2, replace=False)
                        ops.append(cnot(int(c), int(t)))
                    else:
                        ops.append(ry(int(rng.integers(n)),
                                      float(rng.uniform(-2 * np.pi, 2 * np.pi))))
                amps = np.zeros((1, 2**n))
                amps[0, 0] = 1.0
                for op in ops:
                    if op.kind == "ry":
                        ry_rows(amps, op.qubit, op.angle)
                    else:
                        amps = amps[:, cnot_index(n, op.control, op.qubit)]
                expected = dense_unitary_oracle(ops, n)[:, 0]
                np.testing.assert_allclose(amps[0], expected, atol=1e-10)
        assert time.perf_counter() - started < 10.0


def test_criterion_2_single_qubit_closed_form():
    with criterion("2 single-qubit cos(x+w) forward 1e-12, gradient 1e-10"):
        for x in np.linspace(-np.pi, np.pi, 10):
            for w in np.linspace(-np.pi, np.pi, 10):
                params = QuantumLayerParams(
                    n_qubits=1, n_layers=1, weights=np.array([[w]])
                )
                row = np.array([[x]])
                out = vqc_batched_forward(row, params)
                assert abs(out[0, 0] - np.cos(x + w)) < 1e-12
                d_inputs, d_weights = vqc_batched_vjp(row, params, np.ones((1, 1)))
                assert abs(d_weights[0, 0] + np.sin(x + w)) < 1e-10
                assert abs(d_inputs[0, 0] + np.sin(x + w)) < 1e-10


def test_criterion_3_gradient_suite(tmp_path):
    with criterion("3 finite-difference suite + gradcheck exit 0, <2min"):
        started = time.perf_counter()
        results = run_all_checks(seed=0)
        assert results
        assert all(r.passed for r in results), [str(r) for r in results]

        config_path = tmp_path / "config.json"
        RunConfig().save(config_path)
        proc = subprocess.run(
            [sys.executable, "-m", "vqcontrast.cli", "gradcheck",
             "--config", str(config_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert time.perf_counter() - started < 120.0


def test_criterion_4_loss_identities():
    with criterion("4 contrastive loss closed forms and exact symmetry"):
        for b in (2, 4, 16):
            assert abs(clip_loss(np.full((b, b), 0.7)) - np.log(b)) < 1e-12
        rng = np.random.default_rng(0)
        for _ in range(50):
            b = int(rng.integers(1, 9))
            logits = rng.standard_normal((b, b)) * 8
            assert clip_loss(logits) == clip_loss(logits.T)
        assert clip_loss(np.array([[2.2]])) == 0.0
        target = np.log(np.exp(2.0) + 3.0) - 2.0
        assert abs(clip_loss(2.0 * np.eye(4)) - target) < 1e-12


def test_criterion_5_default_hyperparameters_round_trip(tmp_path):
    with criterion("5 pinned defaults survive a config round trip"):
        config = RunConfig()
        path = tmp_path / "config.json"
        config.save(path)
        loaded = RunConfig.load(path)
        assert loaded == config
        assert loaded.n_qubits == 10
        assert loaded.n_layers == 4
        assert loaded.lr == 0.0002
        assert loaded.beta1 == 0.5
        assert loaded.beta2 == 0.999
        assert loaded.epochs == 200
        assert abs(loaded.tau_init - 2.6593) < 1e-4
        assert loaded.tau_init == float(np.log(1.0 / 0.07))
        assert loaded.n_runs == 5


def test_criterion_6_desk_scale_learning_signal(desk_data):
    with criterion("6 five-seed protocol: loss halves, top1 >= 37.5%, <10min"):
        started = time.perf_counter()
        report = run_protocol(DESK, desk_data)
        elapsed = time.perf_counter() - started
        first = report["first_epoch_train_loss"]["mean"]
        final = report["final_train_loss"]["mean"]
        assert final < 0.5 * first, (first, final)
        assert report["top1"]["mean"] >= 0.375, report["top1"]
        assert elapsed < 600.0


def test_criterion_7_untrained_model_stays_at_chance(desk_data):
    with criterion("7 untrained top1 within 3 binomial SE of 1/8"):
        model = RetrievalModel(replace(DESK, seed=1), np.random.default_rng(1))
        record = evaluate_zero_shot(model, desk_data)
        _, _, labels = desk_data.load_arrays()
        n_queries = int(np.isin(labels, desk_data.test_classes).sum())
        chance = 1.0 / len(desk_data.test_classes)
        se = np.sqrt(chance * (1.0 - chance) / n_queries)
        assert abs(record.top1 - chance) <= 3.0 * se, (record.top1, chance, se)


@pytest.mark.parametrize("epochs,top1,top5", [(0, 0.125, 0.625), (5, 0.4, 0.75625)])
def test_zero_shot_topk_is_pinned_on_the_acceptance_dataset(desk_data, epochs, top1, top5):
    """Recorded before eval ran in row blocks; the rankings must not move."""
    if epochs:
        model, _ = train(replace(DESK, epochs=epochs), desk_data)
    else:
        model = RetrievalModel(replace(DESK, seed=1), np.random.default_rng(1))
    record = evaluate_zero_shot(model, desk_data)
    assert (record.top1, record.top5) == (top1, top5)


def test_criterion_8_metrics_stream_is_byte_reproducible(tmp_path):
    with criterion("8 identical seed + config: byte-identical metrics"):
        config = RunConfig(
            n_qubits=2, n_layers=1, lr=0.02, epochs=5, batch_size=4,
            electrodes=3, time_samples=16, spatial_maps=2, temporal_maps=2,
            temporal_kernel=4, embed_dim=4, image_dim=6, n_train_classes=2,
            n_test_classes=2, samples_per_class=4, noise_sigma=0.2,
            latent_dim=2, seed=3, n_runs=1,
        )
        config_path = tmp_path / "config.json"
        config.save(config_path)
        data_dir = tmp_path / "data"
        assert main(["gen-data", "--config", str(config_path),
                     "--out-dir", str(data_dir)]) == 0
        manifest = data_dir / MANIFEST_FILE

        streams = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "vqcontrast.cli", "train",
                 "--config", str(config_path), "--data", str(manifest),
                 "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            streams.append(out.read_bytes())
        assert streams[0] == streams[1]
        assert len(streams[0].splitlines()) == config.epochs
