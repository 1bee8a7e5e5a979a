"""Command-line interface: subcommand wiring and the exit-code contract."""

import json
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vqcontrast import RetrievalModel, RunConfig, read_metrics, save_params, save_tensor_file
from vqcontrast import encoders, harness
from vqcontrast.cli import main
from vqcontrast.data import EEG_FILE, IMAGE_EMB_FILE, MANIFEST_FILE
from vqcontrast.errors import NumericError
from vqcontrast.qtns import load_tensor_file

TINY = RunConfig(
    n_qubits=2,
    n_layers=1,
    lr=0.02,
    epochs=2,
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
    n_runs=1,
)


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    TINY.save(path)
    return path


def gen_data(tmp_path, config_path):
    data_dir = tmp_path / "data"
    assert main(["gen-data", "--config", str(config_path), "--out-dir", str(data_dir)]) == 0
    return data_dir / MANIFEST_FILE


def test_gen_data_prints_manifest_path(tmp_path, config_path, capsys):
    manifest = gen_data(tmp_path, config_path)
    assert manifest.exists()
    assert str(manifest) in capsys.readouterr().out


def test_train_eval_round_trip(tmp_path, config_path, capsys):
    manifest = gen_data(tmp_path, config_path)
    metrics = tmp_path / "metrics.jsonl"
    params = tmp_path / "model.params"

    code = main([
        "train", "--config", str(config_path), "--data", str(manifest),
        "--out", str(metrics), "--params", str(params),
    ])
    assert code == 0
    assert "final loss" in capsys.readouterr().out
    records = read_metrics(metrics)
    assert len(records) == TINY.epochs
    assert params.exists() and params.with_name("model.params.qtns").exists()

    eval_out = tmp_path / "eval.jsonl"
    code = main([
        "eval", "--config", str(config_path), "--data", str(manifest),
        "--params", str(params), "--out", str(eval_out),
    ])
    assert code == 0
    assert "top1" in capsys.readouterr().out
    (record,) = read_metrics(eval_out)
    assert record.top1 is not None and record.epoch is None


def test_train_without_params_flag_saves_nothing(tmp_path, config_path):
    manifest = gen_data(tmp_path, config_path)
    metrics = tmp_path / "metrics.jsonl"
    assert main([
        "train", "--config", str(config_path), "--data", str(manifest),
        "--out", str(metrics),
    ]) == 0
    assert not list(tmp_path.glob("*.params*"))


def test_gradcheck_reports_and_exits_zero(config_path, capsys):
    assert main(["gradcheck", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "gradient checks passed" in out
    assert "linear" in out


def test_protocol_generates_dataset_when_none_given(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    replace(TINY, epochs=1).save(config_path)
    report_path = tmp_path / "report.json"
    assert main(["protocol", "--config", str(config_path), "--out", str(report_path)]) == 0
    assert "±" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["n_runs"] == 1
    assert 0.0 <= report["top1"]["mean"] <= 1.0
    assert (tmp_path / "report.json.data" / MANIFEST_FILE).exists()


def test_protocol_prefers_manifest_from_config(tmp_path):
    base = tmp_path / "base.json"
    TINY.save(base)
    manifest = gen_data(tmp_path, base)

    config_path = tmp_path / "config.json"
    replace(TINY, epochs=1, data_manifest=str(manifest)).save(config_path)
    report_path = tmp_path / "report.json"
    assert main(["protocol", "--config", str(config_path), "--out", str(report_path)]) == 0
    assert not (tmp_path / "report.json.data").exists()


def test_explicit_data_flag_overrides_config(tmp_path):
    base = tmp_path / "base.json"
    TINY.save(base)
    manifest = gen_data(tmp_path, base)

    config_path = tmp_path / "config.json"
    replace(TINY, epochs=1, data_manifest="does/not/exist.json").save(config_path)
    report_path = tmp_path / "report.json"
    assert main([
        "protocol", "--config", str(config_path),
        "--out", str(report_path), "--data", str(manifest),
    ]) == 0


# ---------------------------------------------------------------------------
# Exit codes


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["train"]) == 1  # missing required flags
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "gen-data" in capsys.readouterr().out


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "vqcontrast", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "gen-data" in proc.stdout


def test_eval_subprocess_exits_promptly(tmp_path):
    """80 queries make two blocks, so with two or more CPUs the eval starts a
    pool thread; it must not keep the interpreter from exiting."""
    config = replace(TINY, samples_per_class=40)
    config_path = tmp_path / "config.json"
    config.save(config_path)
    manifest = gen_data(tmp_path, config_path)
    params = tmp_path / "model.params"
    RetrievalModel(config, np.random.default_rng(0)).save(params)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "vqcontrast", "eval", "--config", str(config_path),
         "--data", str(manifest), "--params", str(params), "--out", str(tmp_path / "eval.jsonl")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("top1"), proc.stdout


def test_numeric_failure_in_an_eval_pool_thread_exits_two(tmp_path, config_path, capsys,
                                                          monkeypatch):
    manifest = gen_data(tmp_path, config_path)
    params = tmp_path / "model.params"
    RetrievalModel(TINY, np.random.default_rng(0)).save(params)
    monkeypatch.setattr(harness, "_EVAL_BLOCK_ROWS", 2)
    monkeypatch.setattr(harness, "_EVAL_CPUS", 2)
    forward = encoders.EegConvEncoder.forward
    raised = threading.Event()

    def fails_in_the_pool(self, tape, x, train):
        # the calling thread waits, so that the pool thread takes a block
        if threading.current_thread() is threading.main_thread():
            assert raised.wait(timeout=60), "no pool thread took a block"
            return forward(self, tape, x, train)
        raised.set()
        raise NumericError("input contains non-finite entries")

    monkeypatch.setattr(encoders.EegConvEncoder, "forward", fails_in_the_pool)
    capsys.readouterr()
    assert main(["eval", "--config", str(config_path), "--data", str(manifest),
                 "--params", str(params), "--out", str(tmp_path / "eval.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err == "numeric failure: input contains non-finite entries\n", err


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert main(["gradcheck", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_config_key_exits_one(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    doc = TINY.to_dict()
    doc["misspelled"] = 1
    config_path.write_text(json.dumps(doc))
    assert main(["gradcheck", "--config", str(config_path)]) == 1
    assert "unknown" in capsys.readouterr().err


def test_corrupt_dataset_exits_one(tmp_path, config_path, capsys):
    manifest = gen_data(tmp_path, config_path)
    eeg_path = manifest.parent / EEG_FILE
    eeg_path.write_bytes(eeg_path.read_bytes()[:10])
    code = main([
        "train", "--config", str(config_path), "--data", str(manifest),
        "--out", str(tmp_path / "metrics.jsonl"),
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_non_finite_params_file_exits_one(tmp_path, config_path, capsys):
    """A NaN temperature makes every score NaN, which would rank every true class
    first; the file is refused on load instead."""
    manifest = gen_data(tmp_path, config_path)
    state = RetrievalModel(TINY, np.random.default_rng(0)).named_state()
    state["log_tau"] = np.array(np.nan)
    params = tmp_path / "model.params"
    save_params(params, state)
    code = main([
        "eval", "--config", str(config_path), "--data", str(manifest),
        "--params", str(params), "--out", str(tmp_path / "eval.jsonl"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "'log_tau' contains non-finite" in err, err
    assert not (tmp_path / "eval.jsonl").exists()


def test_transposed_params_file_exits_one(tmp_path, config_path, capsys):
    """A tensor with the right element count but another shape is refused."""
    manifest = gen_data(tmp_path, config_path)
    state = RetrievalModel(TINY, np.random.default_rng(0)).named_state()
    state["img.angle_w"] = state["img.angle_w"].T
    params = tmp_path / "model.params"
    save_params(params, state)
    code = main([
        "eval", "--config", str(config_path), "--data", str(manifest),
        "--params", str(params), "--out", str(tmp_path / "eval.jsonl"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "mismatch for 'img.angle_w'" in err, err
    assert not (tmp_path / "eval.jsonl").exists()


@pytest.mark.parametrize("absolute", [True, False], ids=["absolute", "parent-dir"])
def test_params_index_naming_a_container_elsewhere_exits_one(tmp_path, config_path, absolute):
    """An index may name only a container beside it, even a valid one elsewhere."""
    manifest = gen_data(tmp_path, config_path)
    for sub in ("elsewhere", "here"):
        (tmp_path / sub).mkdir()
    RetrievalModel(TINY, np.random.default_rng(0)).save(tmp_path / "elsewhere" / "model.params")
    index = json.loads((tmp_path / "elsewhere" / "model.params").read_text())
    container = tmp_path / "elsewhere" / index["container"]
    index["container"] = str(container) if absolute else "../elsewhere/model.params.qtns"
    params = tmp_path / "here" / "model.params"
    params.write_text(json.dumps(index))
    proc = subprocess.run(
        [sys.executable, "-m", "vqcontrast.cli", "eval", "--config", str(config_path),
         "--data", str(manifest), "--params", str(params), "--out", str(tmp_path / "eval.jsonl")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "container" in proc.stderr, proc.stderr
    assert not (tmp_path / "eval.jsonl").exists()


def test_config_numpy_cannot_size_exits_one(tmp_path):
    """An image width numpy refuses to allocate is malformed input, not a crash."""
    config_path = tmp_path / "config.json"
    replace(TINY, image_dim=10**20).save(config_path)
    proc = subprocess.run(
        [sys.executable, "-m", "vqcontrast.cli", "gen-data", "--config", str(config_path),
         "--out-dir", str(tmp_path / "data")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_config_with_a_retired_key_exits_one(tmp_path):
    """Adam's betas and the initial temperature are constants, no longer config keys."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**TINY.to_dict(), "beta1": 0.5, "beta2": 0.999,
                                       "tau_init": 2.0}))
    proc = subprocess.run(
        [sys.executable, "-m", "vqcontrast.cli", "train", "--config", str(config_path),
         "--data", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "out.jsonl")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "unknown config keys: ['beta1', 'beta2', 'tau_init']" in proc.stderr, proc.stderr


def test_memory_error_exits_one(tmp_path, config_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. PiB")

    monkeypatch.setattr("vqcontrast.cli.generate_dataset", out_of_memory)
    assert main(["gen-data", "--config", str(config_path), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Unable to allocate" in err, err


def test_non_finite_dataset_is_a_numeric_failure(tmp_path, config_path):
    """A NaN or inf in a tensor file is refused when the dataset is loaded:
    exit 2 and one stderr line naming the file, before any forward pass."""
    manifest = gen_data(tmp_path, config_path)
    params = tmp_path / "model.params"
    RetrievalModel(TINY, np.random.default_rng(0)).save(params)
    cases = [("train", EEG_FILE, np.inf), ("train", IMAGE_EMB_FILE, np.nan),
             ("eval", EEG_FILE, -np.inf)]
    for command, name, value in cases:
        path = manifest.parent / name
        clean = path.read_bytes()
        poisoned = load_tensor_file(path)
        poisoned.flat[3] = value
        save_tensor_file(path, poisoned)
        extra = ["--params", str(params)] if command == "eval" else []
        proc = subprocess.run(
            [sys.executable, "-m", "vqcontrast.cli", command, "--config", str(config_path),
             "--data", str(manifest), "--out", str(tmp_path / "out.jsonl"), *extra],
            capture_output=True, text=True,
        )
        path.write_bytes(clean)
        assert proc.returncode == 2, (command, name, proc.stderr)
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("numeric failure") and name in proc.stderr, proc.stderr


_MANIFEST = {
    "eeg_path": EEG_FILE, "image_emb_path": "image_emb.qtns",
    "labels_path": "labels.qtns", "train_classes": [0, 1], "test_classes": [2, 3],
}


_NOT_UTF8 = b"\xff\xfe{}"


def _json_bytes(doc, base) -> bytes:
    """``doc`` merged over ``base`` as JSON, or ``doc`` itself when it is raw bytes."""
    return doc if isinstance(doc, bytes) else json.dumps({**base, **doc}).encode()


@pytest.mark.parametrize("config,manifest,index", [
    ({"lr": "abc"}, {}, None),
    ({"epochs": True}, {}, None),
    ({"lr": 10**400}, {}, None),
    ({}, {"train_classes": ["x"]}, None),
    ({}, {"train_classes": 5}, None),
    ({}, {"eeg_path": 5}, None),
    ({}, {"eeg_path": "eeg\0.qtns"}, None),
    ({}, {}, {"container": "model.params.qtns", "tensors": []}),
    ({}, {}, {"container": "model.params.qtns", "tensors": {"log_tau": "abc"}}),
    ({}, {}, {"container": 5, "tensors": {}}),
    ({}, {}, {"container": "model\0.qtns", "tensors": {}}),
    (_NOT_UTF8, {}, None),
    ({}, _NOT_UTF8, None),
    ({}, {}, _NOT_UTF8),
], ids=["config-lr", "config-epochs-bool", "config-lr-huge-int", "manifest-class-id",
        "manifest-classes", "manifest-path", "manifest-path-nul", "index-tensors",
        "index-offset", "index-container", "index-container-nul",
        "config-not-utf8", "manifest-not-utf8", "index-not-utf8"])
def test_malformed_input_exits_one_without_traceback(tmp_path, config, manifest, index):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(_json_bytes(config, TINY.to_dict()))
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_bytes(_json_bytes(manifest, _MANIFEST))
    params = tmp_path / "model.params"
    (tmp_path / "model.params.qtns").write_bytes(b"")
    params.write_bytes(index if isinstance(index, bytes) else json.dumps(index).encode())
    command = ["eval", "--params", str(params)] if index else ["train"]
    proc = subprocess.run(
        [sys.executable, "-m", "vqcontrast.cli", *command, "--config", str(config_path),
         "--data", str(manifest_path), "--out", str(tmp_path / "out.jsonl")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    if _NOT_UTF8 in (config, manifest, index):
        assert "not valid UTF-8" in proc.stderr, proc.stderr
    else:
        for name in config:  # refused by the config check, not by a later stage
            assert f"{name} must" in proc.stderr, proc.stderr


@pytest.mark.parametrize("nested", ["config", "manifest", "index"])
def test_deeply_nested_json_exits_one_without_traceback(tmp_path, nested):
    """100 000 nested ``[`` in any input file are refused as malformed input."""
    paths = {name: tmp_path / f"{name}.json" for name in ("config", "manifest", "index")}
    paths["config"].write_bytes(_json_bytes({}, TINY.to_dict()))
    paths["manifest"].write_bytes(_json_bytes({}, _MANIFEST))
    paths["index"].write_text(json.dumps({"container": "index.json.qtns", "tensors": {}}))
    paths[nested].write_bytes(b"[" * 100_000)
    proc = subprocess.run(
        [sys.executable, "-m", "vqcontrast.cli", "eval", "--config", str(paths["config"]),
         "--data", str(paths["manifest"]), "--params", str(paths["index"]),
         "--out", str(tmp_path / "out.jsonl")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "recursion" in proc.stderr, proc.stderr


def test_repeated_class_ids_exit_one(tmp_path, config_path, capsys):
    """A repeated test class would score a 3-row gallery for 2 classes."""
    manifest = gen_data(tmp_path, config_path)
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()),
                                    "train_classes": [0, 1, 1], "test_classes": [2, 2, 3]}))
    capsys.readouterr()
    code = main(["train", "--config", str(config_path), "--data", str(manifest),
                 "--out", str(tmp_path / "train.jsonl")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and "repeats a class id" in err, err
    assert not (tmp_path / "train.jsonl").exists()


@pytest.mark.parametrize("test_classes", [[2, 3, -1], [2, 3, 4]], ids=["negative", "past-table"])
def test_test_class_outside_image_table_exits_one(tmp_path, config_path, capsys, test_classes):
    """A held-out class id must name a row of the image table: a negative one
    would wrap around to another class's row, one past the end would index
    out of bounds."""
    manifest = gen_data(tmp_path, config_path)
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()),
                                    "test_classes": test_classes}))
    params = tmp_path / "model.params"
    RetrievalModel(TINY, np.random.default_rng(0)).save(params)
    capsys.readouterr()
    code = main([
        "eval", "--config", str(config_path), "--data", str(manifest),
        "--params", str(params), "--out", str(tmp_path / "eval.jsonl"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and "class" in err, err
    assert not (tmp_path / "eval.jsonl").exists()
