"""Run configuration, metrics stream, training loop, and protocol harness."""

import gc
import os
import signal
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vqcontrast import (
    DatasetManifest,
    MetricsRecord,
    RetrievalModel,
    RunConfig,
    clip_logits,
    clip_loss,
    evaluate_zero_shot,
    generate_dataset,
    load_tensor_file,
    run_protocol,
    train,
    write_metrics,
)
from vqcontrast import data, diffnet, encoders, gradcheck, harness
from vqcontrast.contrastive import MAX_LOG_TEMPERATURE, TAU_INIT, clip_logits_op, clip_loss_op
from vqcontrast.data import EEG_FILE, IMAGE_EMB_FILE, LABELS_FILE, MANIFEST_FILE
from vqcontrast.diffnet import Tape, Tensor
from vqcontrast.errors import ConfigurationError, NumericError
from vqcontrast.gradcheck import central_difference, run_all_checks
from vqcontrast.qtns import save_params

TINY_RUN = RunConfig(
    n_qubits=2,
    n_layers=1,
    lr=0.02,
    epochs=3,
    batch_size=4,
    electrodes=3,
    time_samples=16,
    spatial_maps=2,
    temporal_maps=2,
    temporal_kernel=4,
    embed_dim=4,
    image_dim=6,
    n_train_classes=2,
    n_test_classes=2,
    samples_per_class=4,
    noise_sigma=0.2,
    latent_dim=2,
    seed=0,
    n_runs=2,
)


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinydata")
    return generate_dataset(
        root,
        seed=0,
        n_train_classes=2,
        n_test_classes=2,
        samples_per_class=4,
        electrodes=3,
        time_samples=16,
        image_dim=6,
        noise_sigma=0.2,
        latent_dim=2,
    )


# ---------------------------------------------------------------------------
# RunConfig


def test_config_round_trips_through_json(tmp_path):
    path = tmp_path / "config.json"
    TINY_RUN.save(path)
    assert RunConfig.load(path) == TINY_RUN
    assert RunConfig.from_dict(TINY_RUN.to_dict()) == TINY_RUN


def test_config_rejects_unknown_keys():
    # Adam's betas and the initial temperature are constants, and the dataset
    # comes from --data: none of them is a config key
    for key in ("learning_rate", "beta1", "beta2", "tau_init", "data_manifest"):
        with pytest.raises(ConfigurationError, match=rf"unknown config keys: \['{key}'\]"):
            RunConfig.from_dict({**RunConfig().to_dict(), key: 0.1})


def test_config_rejects_bad_values():
    for kw in (
        {"batch_size": 1},
        {"n_qubits": 0},
        {"n_qubits": True},
        {"n_qubits": 17},
        {"epochs": -1},
        {"epochs": True},
        {"lr": 0.0},
        {"seed": -1},
        {"noise_sigma": -0.5},
        {"temporal_kernel": 101},
        {"lr": float("inf")},
        {"lr": 10**400},  # an int too large for a float
    ):
        with pytest.raises(ConfigurationError):
            RunConfig(**kw)


def test_config_load_rejects_bad_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{oops")
    with pytest.raises(ConfigurationError):
        RunConfig.load(path)


# ---------------------------------------------------------------------------
# MetricsRecord


def test_metrics_line_is_compact_sorted_and_omits_wall_time():
    record = MetricsRecord(run_id=3, epoch=1, train_loss=0.5, wall_time=123.4)
    assert record.to_json_line() == (
        '{"epoch":1,"run_id":3,"top1":null,"top5":null,"train_loss":0.5}'
    )


def test_metrics_file_round_trip(tmp_path):
    """``write_metrics`` writes each record's line and a newline, nothing else."""
    records = [
        MetricsRecord(run_id=0, epoch=0, train_loss=2.0, wall_time=1.5),
        MetricsRecord(run_id=0, top1=0.5, top5=1.0),
    ]
    path = tmp_path / "metrics.jsonl"
    write_metrics(records, path)
    assert path.read_bytes() == b"".join(r.to_json_line().encode() + b"\n" for r in records)
    write_metrics([], path)
    assert path.read_bytes() == b""


# ---------------------------------------------------------------------------
# Training


def test_train_emits_one_record_per_epoch(tiny_data):
    model, records = train(TINY_RUN, tiny_data)
    assert len(records) == TINY_RUN.epochs
    assert [r.epoch for r in records] == [0, 1, 2]
    assert all(r.run_id == TINY_RUN.seed for r in records)
    assert all(np.isfinite(r.train_loss) for r in records)
    assert all(r.wall_time is not None for r in records)
    assert all(r.top1 is None for r in records)


def test_first_epoch_loss_sits_near_log_batch_size(tiny_data):
    _, records = train(TINY_RUN, tiny_data)
    bound = np.log(TINY_RUN.batch_size)
    assert 0.5 * bound <= records[0].train_loss <= 1.5 * bound


def test_training_reduces_loss(tiny_data):
    _, records = train(replace(TINY_RUN, epochs=10), tiny_data)
    assert records[-1].train_loss < records[0].train_loss


def test_train_is_deterministic(tiny_data):
    run = lambda: train(TINY_RUN, tiny_data)
    model_a, records_a = run()
    model_b, records_b = run()
    assert [r.to_json_line() for r in records_a] == [r.to_json_line() for r in records_b]
    state_a, state_b = model_a.named_state(), model_b.named_state()
    assert sorted(state_a) == sorted(state_b)
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name], err_msg=name)


def test_trained_model_holds_no_gradient(tiny_data):
    """A fresh backward pass on a trained model sees only its own gradient."""
    model, _ = train(TINY_RUN, tiny_data)
    params = model.named_parameters()
    assert {name: t.grad for name, t in params.items() if t.grad is not None} == {}

    eeg, emb, labels = tiny_data.load_arrays()
    rows = np.flatnonzero(np.isin(labels, tiny_data.train_classes))[:4]

    def forward():
        tape = Tape()
        e = model.eeg_encoder.forward(tape, Tensor(eeg[rows]), train=True)
        i = model.image_head.forward(tape, Tensor(emb[labels[rows]]))
        return tape, clip_loss_op(tape, clip_logits_op(tape, e, i, model.log_tau))

    tape, loss = forward()
    tape.backward(loss)
    for name in ("log_tau", "eeg.circuit_weights"):
        numeric = central_difference(lambda: float(forward()[1].data), params[name].data, 1e-6)
        np.testing.assert_allclose(params[name].grad, numeric, atol=1e-7, err_msg=name)


def test_log_temperature_stays_clamped(tiny_data, monkeypatch):
    """A log-temperature that starts above the clamp is pulled back after each step."""
    monkeypatch.setattr(harness, "TAU_INIT", 10.0)
    config = replace(TINY_RUN, epochs=1)
    assert float(RetrievalModel(config, np.random.default_rng(0)).log_tau.data) == 10.0
    model, _ = train(config, tiny_data)
    assert float(model.log_tau.data) <= MAX_LOG_TEMPERATURE


def test_train_epochs_zero_is_a_no_op(tiny_data):
    model, records = train(replace(TINY_RUN, epochs=0), tiny_data)
    assert records == []
    assert float(model.log_tau.data) == TAU_INIT


def test_train_rejects_mismatched_geometry(tiny_data):
    with pytest.raises(ConfigurationError, match="geometry"):
        train(replace(TINY_RUN, electrodes=4), tiny_data)
    with pytest.raises(ConfigurationError, match="image"):
        train(replace(TINY_RUN, image_dim=7), tiny_data)


def test_train_rejects_empty_training_split(tiny_data):
    manifest = replace(tiny_data, train_classes=[99], test_classes=[0, 1, 2, 3])
    with pytest.raises(ConfigurationError, match="training classes"):
        train(TINY_RUN, manifest)


def test_train_rejects_all_undersized_batches(tmp_path):
    manifest = generate_dataset(
        tmp_path,
        seed=0,
        n_train_classes=1,
        n_test_classes=1,
        samples_per_class=1,
        electrodes=3,
        time_samples=16,
        image_dim=6,
        noise_sigma=0.2,
    )
    config = replace(TINY_RUN, n_train_classes=1, n_test_classes=1, samples_per_class=1)
    with pytest.raises(ConfigurationError, match="batch needs 2 samples; the training classes "
                       "hold 1$"):
        train(config, manifest)


def test_train_aborts_on_non_finite_loss(tiny_data, monkeypatch):
    def poisoned(tape, logits):
        return Tensor(np.array(np.nan))

    monkeypatch.setattr(harness, "clip_loss_op", poisoned)
    with pytest.raises(NumericError, match="non-finite"):
        train(TINY_RUN, tiny_data)


def test_duplicated_pair_batch_scores_uniformly(tiny_data):
    """Two copies of one pair produce uniform logits, hence loss ln 2."""
    eeg, emb, _ = tiny_data.load_arrays()
    model = RetrievalModel(TINY_RUN, np.random.default_rng(3))
    e = model.embed_eeg(np.repeat(eeg[:1], 2, axis=0))
    v = model.embed_images(np.repeat(emb[:1], 2, axis=0))
    loss = clip_loss(clip_logits(e, v, 1.3))
    assert abs(loss - np.log(2.0)) < 1e-12


# ---------------------------------------------------------------------------
# Blocked eval-mode embedding

BLOCK = harness._EVAL_BLOCK_ROWS


def _model_with_running_stats(config, seed):
    """A model whose batch norms hold non-trivial running statistics."""
    model = RetrievalModel(config, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for name, buf in model.eeg_encoder.buffers.items():
        buf[:] = rng.uniform(0.5, 1.5, buf.shape) * (1 if name.endswith("var") else 0.3)
    return model


# One CPU embeds every block in the calling thread; two add a pool thread;
# three run more threads than a 2-CPU host has cores.
CPU_COUNTS = (1, 2, 3)


def _at_each_cpu_count(monkeypatch, embed):
    """``embed()`` at every count in ``CPU_COUNTS``; asserts they agree byte for byte."""
    results = []
    for cpus in CPU_COUNTS:
        monkeypatch.setattr(harness, "_EVAL_CPUS", cpus)
        results.append(embed())
    for result in results[1:]:
        assert [r.tobytes() for r in result] == [r.tobytes() for r in results[0]]
    return results[0]


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
def test_blocked_embeddings_match_one_unblocked_forward(n, monkeypatch):
    model = _model_with_running_stats(TINY_RUN, 4)
    rng = np.random.default_rng(n)
    eeg = rng.standard_normal((n, TINY_RUN.electrodes, TINY_RUN.time_samples))
    emb = rng.standard_normal((n, TINY_RUN.image_dim))
    whole_eeg = model.eeg_encoder.forward(Tape(), Tensor(eeg), train=False).data
    whole_img = model.image_head.forward(Tape(), Tensor(emb)).data
    got_eeg, got_img = _at_each_cpu_count(
        monkeypatch, lambda: (model.embed_eeg(eeg), model.embed_images(emb)))
    np.testing.assert_allclose(got_eeg, whole_eeg, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_img, whole_img, rtol=0, atol=1e-12)


@pytest.mark.parametrize("picked", [0, 1, BLOCK + 1])
def test_embedding_picked_rows_equals_embedding_their_copy(picked, monkeypatch):
    model = _model_with_running_stats(TINY_RUN, 4)
    rng = np.random.default_rng(picked)
    eeg = rng.standard_normal((2 * BLOCK, TINY_RUN.electrodes, TINY_RUN.time_samples))
    rows = np.sort(rng.choice(len(eeg), picked, replace=False))
    by_index, by_copy = _at_each_cpu_count(
        monkeypatch, lambda: (model.embed_eeg(eeg, rows), model.embed_eeg(eeg[rows])))
    np.testing.assert_array_equal(by_index, by_copy)


def test_eval_forwards_record_no_backward_closure(monkeypatch):
    model = _model_with_running_stats(TINY_RUN, 4)
    rng = np.random.default_rng(7)
    eeg = rng.standard_normal((BLOCK, TINY_RUN.electrodes, TINY_RUN.time_samples))
    emb = rng.standard_normal((BLOCK, TINY_RUN.image_dim))
    taped_eeg = model.eeg_encoder.forward(Tape(), Tensor(eeg), train=False).data
    taped_img = model.image_head.forward(Tape(), Tensor(emb)).data

    def refuse(tape, backward_fn):
        raise AssertionError("an eval forward recorded a backward closure")

    monkeypatch.setattr(diffnet.Tape, "record", refuse)
    assert model.embed_eeg(eeg).tobytes() == taped_eeg.tobytes()
    assert model.embed_images(emb).tobytes() == taped_img.tobytes()


def test_zero_row_batch_embeds_to_an_empty_matrix(monkeypatch):
    model = RetrievalModel(TINY_RUN, np.random.default_rng(0))
    eeg = np.zeros((0, TINY_RUN.electrodes, TINY_RUN.time_samples))
    img = np.zeros((0, TINY_RUN.image_dim))
    got_eeg, got_img = _at_each_cpu_count(
        monkeypatch, lambda: (model.embed_eeg(eeg), model.embed_images(img)))
    assert got_eeg.shape == got_img.shape == (0, TINY_RUN.embed_dim)


def test_embed_eeg_peak_memory_stays_cache_sized():
    """1024 queries at the default geometry: an unblocked forward peaks at 64 MiB."""
    config = RunConfig()
    model = _model_with_running_stats(config, 5)
    eeg = np.random.default_rng(6).standard_normal(
        (1024, config.electrodes, config.time_samples))
    tracemalloc.start()
    try:
        out = model.embed_eeg(eeg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1024, config.embed_dim)
    assert peak <= 16 * 2**20, peak / 2**20


def test_training_step_peak_memory_frees_what_backward_has_passed():
    """One default-geometry step, both heads, its batch included, peaks at
    5.2 MiB; a tape that keeps every op's arrays until it is dropped, at 8.4."""
    config = RunConfig()
    model = RetrievalModel(config, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    tracemalloc.start()
    try:
        eeg = rng.standard_normal((64, config.electrodes, config.time_samples))
        emb = rng.standard_normal((64, config.image_dim))
        tape = Tape()
        e = model.eeg_encoder.forward(tape, Tensor(eeg), train=True)
        v = model.image_head.forward(tape, Tensor(emb))
        tape.backward(clip_loss_op(tape, clip_logits_op(tape, e, v, model.log_tau)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.eeg_encoder.params["circuit_weights"].grad is not None
    assert peak <= 6 * 2**20, peak / 2**20


def test_a_kept_train_result_holds_little_beyond_its_parameters(tmp_path):
    """Each kept ``train`` result holds its 65 KiB of parameters and buffers and
    about 6 KiB besides: no tape, gradient or Adam moment outlives the call.  A
    benchmark that keeps every round's model grows its peak RSS by this much."""
    config = replace(TINY_RUN, epochs=1, n_runs=1, image_dim=4096)
    manifest = generate_dataset(
        tmp_path, seed=0, n_train_classes=2, n_test_classes=2, samples_per_class=4,
        electrodes=3, time_samples=16, image_dim=config.image_dim, noise_sigma=0.2,
        latent_dim=2)
    kept = [train(config, manifest)]  # the first call fills the module-level caches
    state_bytes = sum(a.nbytes for a in kept[0][0].named_state().values())
    assert state_bytes >= 64 * 2**10
    calls = 4
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept += [train(config, manifest) for _ in range(calls)]
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown <= calls * (state_bytes + 16 * 2**10), (grown / calls - state_bytes) / 2**10


# ---------------------------------------------------------------------------
# Evaluation


def test_evaluate_zero_shot_record_shape(tiny_data):
    model, _ = train(TINY_RUN, tiny_data)
    record = evaluate_zero_shot(model, tiny_data)
    assert record.run_id == TINY_RUN.seed
    assert record.epoch is None and record.train_loss is None
    assert 0.0 <= record.top1 <= 1.0
    # Only two held-out classes, so "top 5" saturates at the class count.
    assert record.top5 == 1.0


def _gate_eeg_forward(monkeypatch, pool_forward=None):
    """Patch the EEG forward so that, with more than one CPU, a thread that has
    taken a block embeds nothing until the other side has taken one too: the
    calling thread waits for a pool thread, and a pool thread for the calling
    thread.  With several blocks, both then embed, whichever starts first.
    ``pool_forward`` stands in for the forward on pool threads.  Returns the
    name of the thread of each block, and the events the two sides set, keyed
    ``"caller"`` and ``"pool"``."""
    forward = encoders.EegConvEncoder.forward
    names, took = [], {"caller": threading.Event(), "pool": threading.Event()}

    def gated(self, tape, x, train):
        names.append(threading.current_thread().name)
        in_pool = threading.current_thread() is not threading.main_thread()
        mine, other = ("pool", "caller") if in_pool else ("caller", "pool")
        took[mine].set()
        if harness._EVAL_CPUS > 1:
            assert took[other].wait(timeout=60), f"the {other} side took no block"
        return ((pool_forward or forward) if in_pool else forward)(self, tape, x, train)

    monkeypatch.setattr(encoders.EegConvEncoder, "forward", gated)
    return names, took


def test_evaluate_zero_shot_gives_one_record_at_any_cpu_count(tiny_data, monkeypatch):
    """Eight queries in four blocks; a short switch interval makes the threads
    interleave inside every op."""
    model, _ = train(TINY_RUN, tiny_data)
    monkeypatch.setattr(harness, "_EVAL_BLOCK_ROWS", 2)
    names, took = _gate_eeg_forward(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    lines = []
    try:
        for cpus in CPU_COUNTS:
            monkeypatch.setattr(harness, "_EVAL_CPUS", cpus)
            names.clear()
            for event in took.values():
                event.clear()
            lines.append(evaluate_zero_shot(model, tiny_data).to_json_line())
            assert len(names) == 4
            assert threading.main_thread().name in names, names
            assert took["pool"].is_set() == (cpus > 1), names
    finally:
        sys.setswitchinterval(interval)
    assert lines == [lines[0]] * len(CPU_COUNTS)


def test_numeric_error_in_a_pool_thread_reaches_the_caller(tiny_data, monkeypatch):
    model, _ = train(TINY_RUN, tiny_data)
    monkeypatch.setattr(harness, "_EVAL_BLOCK_ROWS", 2)
    monkeypatch.setattr(harness, "_EVAL_CPUS", 2)
    error = NumericError("non-finite angle in a pool thread's block")

    def fails(self, tape, x, train):
        raise error

    names, _ = _gate_eeg_forward(monkeypatch, pool_forward=fails)
    with pytest.raises(NumericError) as caught:
        evaluate_zero_shot(model, tiny_data)
    assert caught.value is error
    assert any(name.startswith("vqcontrast-eval") for name in names), names


def test_an_error_in_the_calling_threads_block_waits_for_the_pool(tiny_data, monkeypatch):
    """No pool block is still running when the caller sees the error."""
    model, _ = train(TINY_RUN, tiny_data)
    monkeypatch.setattr(harness, "_EVAL_BLOCK_ROWS", 2)
    monkeypatch.setattr(harness, "_EVAL_CPUS", 2)
    forward = encoders.EegConvEncoder.forward
    running = []

    def slow(self, tape, x, train):
        running.append(x.shape)
        time.sleep(0.05)
        out = forward(self, tape, x, train)
        running.pop()
        return out

    names, _ = _gate_eeg_forward(monkeypatch, pool_forward=slow)
    gated = encoders.EegConvEncoder.forward
    error = NumericError("non-finite angle in the calling thread's block")

    def calling_thread_fails(self, tape, x, train):
        out = gated(self, tape, x, train)
        if threading.current_thread() is threading.main_thread():
            raise error
        return out

    monkeypatch.setattr(encoders.EegConvEncoder, "forward", calling_thread_fails)
    with pytest.raises(NumericError) as caught:
        evaluate_zero_shot(model, tiny_data)
    assert caught.value is error
    assert not running and len(names) == 4, names


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_process_forked_after_an_eval_can_eval(monkeypatch):
    """A pool thread kept between calls would not exist in the child, whose
    eval would then wait for it forever."""
    monkeypatch.setattr(harness, "_EVAL_CPUS", 2)
    model = _model_with_running_stats(TINY_RUN, 4)
    eeg = np.random.default_rng(3).standard_normal(
        (2 * BLOCK + 5, TINY_RUN.electrodes, TINY_RUN.time_samples))
    before = model.embed_eeg(eeg).tobytes()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if model.embed_eeg(eeg).tobytes() == before else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0, done


def test_float32_dataset_trains_and_scores_as_its_float64_widening(tiny_data, monkeypatch):
    """No arithmetic runs in float32: widening the loaded arrays first changes no bit."""
    eeg, emb, _ = tiny_data.load_arrays()
    assert eeg.dtype == emb.dtype == np.float32

    def run():
        model, records = train(TINY_RUN, tiny_data)
        records.append(evaluate_zero_shot(model, tiny_data))
        return model.named_state(), [r.to_json_line() for r in records]

    state, lines = run()
    loaded = DatasetManifest.load_arrays

    def widened(manifest):
        eeg, emb, labels = loaded(manifest)
        return eeg.astype(np.float64), emb.astype(np.float64), labels

    monkeypatch.setattr(DatasetManifest, "load_arrays", widened)
    state64, lines64 = run()
    assert lines64 == lines
    assert state64.keys() == state.keys()
    for name, value in state.items():
        assert value.tobytes() == state64[name].tobytes(), name


def test_untrained_head_to_head_accuracy_is_chance_like(tiny_data):
    model = RetrievalModel(TINY_RUN, np.random.default_rng(1))
    record = evaluate_zero_shot(model, tiny_data)
    assert 0.0 <= record.top1 <= 1.0


# ---------------------------------------------------------------------------
# Persistence


def test_model_save_load_round_trip(tiny_data, tmp_path):
    model, _ = train(TINY_RUN, tiny_data)
    eeg, _, _ = tiny_data.load_arrays()
    path = tmp_path / "model.params"
    model.save(path)

    loaded = RetrievalModel.from_saved(TINY_RUN, path)
    np.testing.assert_allclose(
        loaded.embed_eeg(eeg[:3]), model.embed_eeg(eeg[:3]), atol=1e-4
    )
    for name, value in model.named_state().items():
        np.testing.assert_allclose(loaded.named_state()[name], value, atol=1e-6)

    # float32 storage is idempotent: saving the loaded model changes nothing
    again = tmp_path / "model2.params"
    loaded.save(again)
    assert path.read_bytes() == again.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.params", "model2.params"]


def test_load_state_rejects_mismatched_names(tiny_data):
    model = RetrievalModel(TINY_RUN, np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="mismatch"):
        model.load_state({})


def test_load_state_rejects_non_finite_values():
    model = RetrievalModel(TINY_RUN, np.random.default_rng(0))
    state = model.named_state()
    state["log_tau"] = np.array(np.nan)
    with pytest.raises(ConfigurationError, match="'log_tau'.*non-finite"):
        model.load_state(state)


def test_training_a_loaded_model_leaves_its_source_unchanged():
    source = RetrievalModel(TINY_RUN, np.random.default_rng(0))
    before = {name: value.copy() for name, value in source.named_state().items()}
    loaded = RetrievalModel(TINY_RUN, np.random.default_rng(1))
    loaded.load_state(source.named_state())
    eeg = np.random.default_rng(2).normal(
        size=(4, TINY_RUN.electrodes, TINY_RUN.time_samples))
    loaded.eeg_encoder.forward(Tape(), Tensor(eeg), train=True)
    moved = loaded.eeg_encoder.buffers["bn1_mean"]
    assert not np.array_equal(moved, before["eeg.buffers.bn1_mean"])  # the forward ran
    for name, value in source.named_state().items():
        assert value.tobytes() == before[name].tobytes(), name


def test_from_saved_rejects_a_transposed_tensor(tmp_path):
    # same element count, other shape: refused, not reshaped into scrambled weights
    model = RetrievalModel(TINY_RUN, np.random.default_rng(0))
    state = model.named_state()
    assert state["img.angle_w"].shape == (TINY_RUN.image_dim, TINY_RUN.n_qubits)
    state["img.angle_w"] = state["img.angle_w"].T
    path = tmp_path / "model.params"
    save_params(path, state)
    with pytest.raises(ConfigurationError, match="mismatch for 'img.angle_w'"):
        RetrievalModel.from_saved(TINY_RUN, path)


def test_from_saved_rejects_other_geometry(tmp_path):
    # same parameter names, different shapes: must fail cleanly, not in reshape
    model = RetrievalModel(TINY_RUN, np.random.default_rng(0))
    path = tmp_path / "model.params"
    model.save(path)
    other = replace(TINY_RUN, n_qubits=3)
    with pytest.raises(ConfigurationError, match="mismatch"):
        RetrievalModel.from_saved(other, path)


# ---------------------------------------------------------------------------
# Protocol


def test_run_protocol_reports_per_seed_results(tiny_data):
    config = replace(TINY_RUN, epochs=2, n_runs=2)
    report = run_protocol(config, tiny_data)
    assert report["n_runs"] == 2
    assert report["seeds"] == [0, 1]
    for key in ("top1", "top5", "first_epoch_train_loss", "final_train_loss"):
        summary = report[key]
        assert len(summary["per_run"]) == 2
        mean, values = summary["mean"], summary["per_run"]
        assert abs(mean - np.mean(values)) < 1e-12
        assert abs(summary["std"] - np.std(values, ddof=1)) < 1e-12
    assert report["top1"]["formatted"].endswith("%")


def test_run_protocol_reads_each_file_once(tiny_data, monkeypatch):
    names = []

    def counting(path):
        names.append(path.name)
        return load_tensor_file(path)

    monkeypatch.setattr(data, "load_tensor_file", counting)
    manifest = DatasetManifest.load(tiny_data.root / MANIFEST_FILE)
    run_protocol(replace(TINY_RUN, epochs=1, n_runs=2), manifest)
    assert sorted(names) == sorted([EEG_FILE, IMAGE_EMB_FILE, LABELS_FILE])


def test_run_protocol_single_run_has_zero_std(tiny_data):
    report = run_protocol(replace(TINY_RUN, epochs=1, n_runs=1), tiny_data)
    assert report["top1"]["std"] == 0.0
    assert report["seeds"] == [0]


# ---------------------------------------------------------------------------
# Gradient check harness


def test_gradcheck_all_passes_for_default_config():
    results = run_all_checks(seed=RunConfig().seed)
    assert results, "suite must not be empty"
    assert all(r.passed for r in results), [str(r) for r in results]


SUITE = [
    "linear", "conv_spatial", "conv_temporal", "batch_norm_train", "batch_norm_eval",
    "elu", "angle_squash", "l2_normalize", "flatten", "quantum_layer",
    "eeg_encoder_pipeline", "image_head_pipeline", "clip_loss_chain",
]


def test_gradcheck_suite_is_pinned():
    assert [r.name for r in run_all_checks(0)] == SUITE


# each table op -> the module it is looked up on and the checks that run it
TABLE_OPS = {
    "linear": (diffnet, ["linear"]),
    "conv_spatial": (diffnet, ["conv_spatial"]),
    "conv_temporal": (diffnet, ["conv_temporal"]),
    "batch_norm": (diffnet, ["batch_norm_train", "batch_norm_eval"]),
    "elu": (diffnet, ["elu"]),
    "angle_squash": (diffnet, ["angle_squash"]),
    "l2_normalize": (diffnet, ["l2_normalize", "clip_loss_chain"]),
    "flatten": (diffnet, ["flatten"]),
    "quantum_layer": (encoders, ["quantum_layer"]),
}


@pytest.mark.parametrize("op", TABLE_OPS)
def test_gradcheck_looks_each_op_up_at_call_time(monkeypatch, op):
    module, checks = TABLE_OPS[op]
    real = getattr(module, op)
    # the real forward on a throwaway tape: no gradient reaches the inputs
    monkeypatch.setattr(module, op, lambda tape, *args, **kwargs: real(Tape(), *args, **kwargs))
    for name in checks:
        i = SUITE.index(name)
        result = gradcheck.STANDARD_CHECKS[i](np.random.default_rng(i))
        assert result.name == name and not result.passed, str(result)


def test_gradcheck_quantum_layer_reads_both_qubit_groups(monkeypatch):
    """The row's five qubits make two RY groups, qubits 0-2 and 3-4; weight
    partials wrong in the second group alone fail it."""
    real = encoders.vqc_batched_vjp

    def halved_second_group(x, params, upstream):
        d_inputs, d_weights = real(x, params, upstream)
        d_weights = d_weights.copy()
        d_weights[:, 3:] *= 0.5
        return d_inputs, d_weights

    monkeypatch.setattr(encoders, "vqc_batched_vjp", halved_second_group)
    i = SUITE.index("quantum_layer")
    result = gradcheck.STANDARD_CHECKS[i](np.random.default_rng(i))
    assert result.name == "quantum_layer" and not result.passed, str(result)


def test_gradcheck_flags_a_broken_backward(monkeypatch):
    def bad_elu(tape, x):
        y = np.where(x.data > 0, x.data, np.expm1(x.data))
        return tape.op((x,), y, lambda g: (2.0 * g,))  # wrong by a factor of two

    monkeypatch.setattr(diffnet, "elu", bad_elu)
    results = {r.name: r for r in run_all_checks(seed=0)}
    assert not results["elu"].passed
    assert "FAIL" in str(results["elu"])
