"""Command-line interface: subcommand wiring and the exit-code contract."""

import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from vqcontrast import RetrievalModel, RunConfig, read_metrics, save_params, save_tensor_file
from vqcontrast.cli import main
from vqcontrast.data import EEG_FILE, IMAGE_EMB_FILE, MANIFEST_FILE
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
    ({"tau_init": 10**400}, {}, None),
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
], ids=["config-lr", "config-epochs-bool", "config-tau-huge-int", "manifest-class-id",
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
