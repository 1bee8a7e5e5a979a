"""Command-line interface: subcommand wiring and the exit-code contract."""

import argparse
import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from vqcontrast import RetrievalModel, RunConfig, save_params, save_tensor_file
from vqcontrast import data, diffnet, encoders, harness
from vqcontrast.cli import build_parser, main
from vqcontrast.data import EEG_FILE, IMAGE_EMB_FILE, LABELS_FILE, MANIFEST_FILE
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


STREAM_KEYS = {"epoch", "run_id", "top1", "top5", "train_loss"}


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
    lines = [json.loads(line) for line in metrics.read_text().splitlines()]
    assert [set(line) for line in lines] == [STREAM_KEYS] * TINY.epochs
    assert [line["epoch"] for line in lines] == list(range(TINY.epochs))
    assert all(line["top1"] is None and line["top5"] is None for line in lines)
    assert [p.name for p in tmp_path.glob("model.params*")] == ["model.params"]

    eval_out = tmp_path / "eval.jsonl"
    code = main([
        "eval", "--config", str(config_path), "--data", str(manifest),
        "--params", str(params), "--out", str(eval_out),
    ])
    assert code == 0
    assert "top1" in capsys.readouterr().out
    (record,) = [json.loads(line) for line in eval_out.read_text().splitlines()]
    assert set(record) == STREAM_KEYS
    assert record["epoch"] is None and record["top1"] is not None


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


def test_failed_gradcheck_exits_two(config_path, capsys, monkeypatch):
    """A backward wrong by a factor of two is reported on stdout as FAIL, and
    the command exits 2 with one stderr line naming the check."""
    def bad_elu(tape, x):
        y = np.where(x.data > 0, x.data, np.expm1(x.data))
        return tape.op((x,), y, lambda g: (2.0 * g,))

    monkeypatch.setattr(diffnet, "elu", bad_elu)
    assert main(["gradcheck", "--config", str(config_path)]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and "elu" in captured.err, captured.err
    assert "FAIL" in captured.out


def test_protocol_without_data_exits_one(tmp_path, config_path, capsys):
    """The protocol generates no dataset of its own: without --data it is a
    usage error and writes nothing, neither the report nor a dataset beside it."""
    assert main(["protocol", "--config", str(config_path),
                 "--out", str(tmp_path / "report.json")]) == 1
    err = capsys.readouterr().err
    assert err == ("vqcontrast protocol: error: the following arguments are required: "
                   "--data\n"), err
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "report.json.data").exists()


def test_explicit_data_flag_overrides_config(tmp_path, capsys):
    """With --data the protocol runs on that dataset and generates none."""
    base = tmp_path / "base.json"
    TINY.save(base)
    manifest = gen_data(tmp_path, base)

    config_path = tmp_path / "config.json"
    replace(TINY, epochs=1).save(config_path)
    report_path = tmp_path / "report.json"
    capsys.readouterr()
    assert main([
        "protocol", "--config", str(config_path),
        "--out", str(report_path), "--data", str(manifest),
    ]) == 0
    assert "±" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["n_runs"] == 1
    assert 0.0 <= report["top1"]["mean"] <= 1.0
    assert not (tmp_path / "report.json.data").exists()


# ---------------------------------------------------------------------------
# Exit codes


def test_usage_errors_exit_one(capsys):
    """A usage error prints one line, argparse's usage line left out."""
    for argv in [], ["no-such-command"], ["train"]:  # the last misses required flags
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("vqcontrast"), (argv, err)
        assert ": error: " in err and "usage:" not in err, (argv, err)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "gen-data" in capsys.readouterr().out


def test_readme_command_block_names_each_subcommands_flags():
    """The fenced block under "## Command line" in README.md names, for every
    subcommand, exactly the flags the parser defines for it, -h aside."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```", 2)[1]
    named = {}
    for usage in re.split(r"^vqcontrast\s+", block, flags=re.M)[1:]:
        named[usage.split()[0]] = set(re.findall(r"--[\w-]+", usage))
    (subcommands,) = [action.choices for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    defined = {
        command: {flag for action in sub._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for command, sub in subcommands.items()
    }
    assert named == defined


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


def _eval_failing_in_a_pool_thread(tmp_path, config_path, capsys, monkeypatch, fail):
    """Run ``eval`` with ``fail()`` in place of the EEG forward of a pool thread's
    block; return the exit code and stderr."""
    manifest = gen_data(tmp_path, config_path)
    params = tmp_path / "model.params"
    RetrievalModel(TINY, np.random.default_rng(0)).save(params)
    monkeypatch.setattr(harness, "_EVAL_BLOCK_ROWS", 2)
    monkeypatch.setattr(harness, "_EVAL_CPUS", 2)
    forward = encoders.EegConvEncoder.forward
    failed = threading.Event()

    def fails_in_the_pool(self, tape, x, train):
        # the calling thread waits, so that the pool thread takes a block
        if threading.current_thread() is threading.main_thread():
            assert failed.wait(timeout=60), "no pool thread took a block"
            return forward(self, tape, x, train)
        failed.set()
        return fail()

    monkeypatch.setattr(encoders.EegConvEncoder, "forward", fails_in_the_pool)
    capsys.readouterr()
    code = main(["eval", "--config", str(config_path), "--data", str(manifest),
                 "--params", str(params), "--out", str(tmp_path / "eval.jsonl")])
    return code, capsys.readouterr().err


def test_numeric_failure_in_an_eval_pool_thread_exits_two(tmp_path, config_path, capsys,
                                                          monkeypatch):
    def fail():
        raise NumericError("input contains non-finite entries")

    code, err = _eval_failing_in_a_pool_thread(tmp_path, config_path, capsys, monkeypatch, fail)
    assert code == 2
    assert err == "numeric failure: input contains non-finite entries\n", err


def test_overflow_in_an_eval_pool_thread_exits_two(tmp_path, config_path, capsys, monkeypatch):
    """A floating-point warning raised in a pool thread reaches main as a numeric failure."""
    code, err = _eval_failing_in_a_pool_thread(tmp_path, config_path, capsys, monkeypatch,
                                               lambda: np.float64(1e308) * 10)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("numeric failure: overflow"), err


def test_overflowing_train_exits_two_with_one_line(tmp_path):
    """An lr that overflows the weights exits 2 with one stderr line, not numpy's
    warnings and their source lines first."""
    config_path = tmp_path / "config.json"
    replace(TINY, lr=1e300).save(config_path)
    manifest = gen_data(tmp_path, config_path)
    proc = subprocess.run(
        [sys.executable, "-m", "vqcontrast.cli", "train", "--config", str(config_path),
         "--data", str(manifest), "--out", str(tmp_path / "metrics.jsonl")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("numeric failure:"), proc.stderr


# The flags each subcommand requires besides --config, as names under the test's directory.
_OTHER_FLAGS = {
    "gen-data": {"--out-dir": "data"},
    "train": {"--data": "manifest.json", "--out": "metrics.jsonl"},
    "eval": {"--data": "manifest.json", "--params": "model.params", "--out": "eval.jsonl"},
    "gradcheck": {},
    "protocol": {"--out": "report.json", "--data": "manifest.json"},
}


def _refused_config(tmp_path, capsys, command, config_path) -> str:
    """Run ``command`` on ``config_path``; it must exit 1, print one stderr line and
    leave behind no file (an --out or --out-dir path included) but the config."""
    before = sorted(tmp_path.iterdir())
    argv = [command, "--config", str(config_path)]
    for flag, name in _OTHER_FLAGS[command].items():
        argv += [flag, str(tmp_path / name)]
    assert main(argv) == 1
    assert sorted(tmp_path.iterdir()) == before
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    return err


@pytest.mark.parametrize("command", _OTHER_FLAGS)
def test_missing_config_file_exits_one(tmp_path, capsys, command):
    err = _refused_config(tmp_path, capsys, command, tmp_path / "nope.json")
    assert err.startswith("error:"), err


@pytest.mark.parametrize("command", _OTHER_FLAGS)
def test_unknown_config_key_exits_one(tmp_path, capsys, command):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**TINY.to_dict(), "misspelled": 1}))
    err = _refused_config(tmp_path, capsys, command, config_path)
    assert "'misspelled'" in err, err


def test_failed_gen_data_leaves_no_manifest_behind(tmp_path, config_path, capsys):
    """Generating over a dataset and failing part-way removes its manifest, so
    nothing reads the truncated files as a dataset."""
    manifest = gen_data(tmp_path, config_path)
    overflowing = tmp_path / "overflow.json"
    replace(TINY, noise_sigma=1e39).save(overflowing)
    assert main(["gen-data", "--config", str(overflowing),
                 "--out-dir", str(manifest.parent)]) == 2
    assert not manifest.exists()
    capsys.readouterr()
    assert main(["train", "--config", str(config_path), "--data", str(manifest),
                 "--out", str(tmp_path / "metrics.jsonl")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


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


@pytest.mark.parametrize("damage, refusal", [
    ("trailing-bytes", "21 trailing bytes after record"),
    ("missing-record", "bad magic"),
], ids=["trailing-bytes", "missing-record"])
def test_params_file_must_hold_the_models_records_and_no_more(tmp_path, config_path, capsys,
                                                              damage, refusal):
    """The file holds one record per parameter name and every byte is read: a
    record too many, or one too few, exits 1 with one line."""
    manifest = gen_data(tmp_path, config_path)
    state = RetrievalModel(TINY, np.random.default_rng(0)).named_state()
    if damage == "trailing-bytes":
        state["zz.extra"] = np.zeros(1)
    else:
        del state[max(state)]
    params = tmp_path / "model.params"
    save_params(params, state)
    code = main([
        "eval", "--config", str(config_path), "--data", str(manifest),
        "--params", str(params), "--out", str(tmp_path / "eval.jsonl"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and refusal in err, err
    if damage == "missing-record":
        assert f"byte offset {params.stat().st_size})" in err, err
    assert not (tmp_path / "eval.jsonl").exists()


def test_dataset_with_a_singleton_channel_axis_exits_one(tmp_path, config_path, capsys):
    """An EEG file in the old (N, 1, E, T) layout is refused, not reshaped."""
    manifest = gen_data(tmp_path, config_path)
    eeg_path = manifest.parent / EEG_FILE
    save_tensor_file(eeg_path, load_tensor_file(eeg_path)[:, None])
    code = main([
        "train", "--config", str(config_path), "--data", str(manifest),
        "--out", str(tmp_path / "metrics.jsonl"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "[N, E, T], got (16, 1, 3, 16)" in err, err
    assert not (tmp_path / "metrics.jsonl").exists()


def test_params_file_with_singleton_kernel_axes_exits_one(tmp_path, config_path, capsys):
    """A spatial kernel saved in the old (F, 1, E, 1) layout is a shape mismatch."""
    manifest = gen_data(tmp_path, config_path)
    state = RetrievalModel(TINY, np.random.default_rng(0)).named_state()
    state["eeg.spatial_kernel"] = state["eeg.spatial_kernel"][:, None, :, None]
    params = tmp_path / "model.params"
    save_params(params, state)
    code = main([
        "eval", "--config", str(config_path), "--data", str(manifest),
        "--params", str(params), "--out", str(tmp_path / "eval.jsonl"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert "mismatch for 'eeg.spatial_kernel': got shape (2, 1, 3, 1), expected (2, 3)" in err
    assert not (tmp_path / "eval.jsonl").exists()


@pytest.mark.parametrize("absolute", [True, False], ids=["absolute", "parent-dir"])
def test_manifest_naming_a_file_elsewhere_exits_one(tmp_path, config_path, absolute,
                                                    monkeypatch, capsys):
    """Every dataset file sits at a fixed name beside the manifest.  A manifest
    that names one, even a valid one in a sibling directory, exits 1 on the
    key, and that file is never read."""
    manifest = gen_data(tmp_path, config_path)
    (tmp_path / "here").mkdir()
    # a manifest beside no tensor file, naming the valid ones of the generated dataset
    doc = json.loads(manifest.read_text())
    for key, name in (("eeg_path", EEG_FILE), ("image_emb_path", IMAGE_EMB_FILE),
                      ("labels_path", LABELS_FILE)):
        doc[key] = str(manifest.parent / name) if absolute else f"../data/{name}"
    naming = tmp_path / "here" / MANIFEST_FILE
    naming.write_text(json.dumps(doc))
    reads = []
    monkeypatch.setattr(data, "load_tensor_file",
                        lambda path: reads.append(path) or load_tensor_file(path))
    code = main(["train", "--config", str(config_path), "--data", str(naming),
                 "--out", str(tmp_path / "metrics.jsonl")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and "'eeg_path'" in err, err
    assert reads == [] and not (tmp_path / "metrics.jsonl").exists()


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
    """Adam's betas and the initial temperature are constants, and the dataset
    comes from --data: none of them is a config key any longer."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**TINY.to_dict(), "beta1": 0.5, "beta2": 0.999,
                                       "tau_init": 2.0, "data_manifest": "data.json"}))
    proc = subprocess.run(
        [sys.executable, "-m", "vqcontrast.cli", "train", "--config", str(config_path),
         "--data", str(tmp_path / "manifest.json"), "--out", str(tmp_path / "out.jsonl")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert ("unknown config keys: ['beta1', 'beta2', 'data_manifest', 'tau_init']"
            in proc.stderr), proc.stderr


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


_MANIFEST = {"train_classes": [0, 1], "test_classes": [2, 3]}


_NOT_UTF8 = b"\xff\xfe{}"
_REPEATED_CONFIG = b'{"lr": 5.0, ' + json.dumps(TINY.to_dict()).encode()[1:]
_REPEATED_MANIFEST = b'{"train_classes": [0, 1], "test_classes": [2, 3], "test_classes": [3]}'
# a parameter index of the earlier two-file layout, given as the parameter file
_OLD_INDEX = (json.dumps({"tensors": sorted(RetrievalModel(TINY, np.random.default_rng(0))
                                           .named_state())}, indent=2) + "\n").encode()
# what the refusal of each raw-bytes input says
_RAW_REFUSALS = {
    _NOT_UTF8: "not valid UTF-8",
    _REPEATED_CONFIG: "config repeats the key 'lr'",
    _REPEATED_MANIFEST: "manifest repeats the key 'test_classes'",
    _OLD_INDEX: "bad magic, expected b'QTNS' (byte offset 0)",
}


def _json_bytes(doc, base) -> bytes:
    """``doc`` merged over ``base`` as JSON, or ``doc`` itself when it is raw bytes."""
    return doc if isinstance(doc, bytes) else json.dumps({**base, **doc}).encode()


@pytest.mark.parametrize("config,manifest,params", [
    ({"lr": "abc"}, {}, None),
    ({"epochs": True}, {}, None),
    ({"lr": 10**400}, {}, None),
    ({}, {"train_classes": ["x"]}, None),
    ({}, {"train_classes": 5}, None),
    ({}, {"eeg_path": 5}, None),
    ({}, {"eeg_path": "eeg\0.qtns"}, None),
    ({}, {"eeg_path": EEG_FILE, "image_emb_path": IMAGE_EMB_FILE, "labels_path": LABELS_FILE},
     None),
    ({}, {}, _OLD_INDEX),
    (_NOT_UTF8, {}, None),
    ({}, _NOT_UTF8, None),
    (_REPEATED_CONFIG, {}, None),
    ({}, _REPEATED_MANIFEST, None),
], ids=["config-lr", "config-epochs-bool", "config-lr-huge-int", "manifest-class-id",
        "manifest-classes", "manifest-path", "manifest-path-nul", "manifest-old-layout",
        "params-old-layout", "config-not-utf8", "manifest-not-utf8",
        "config-repeated-key", "manifest-repeated-key"])
def test_malformed_input_exits_one_without_traceback(tmp_path, config, manifest, params):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(_json_bytes(config, TINY.to_dict()))
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_bytes(_json_bytes(manifest, _MANIFEST))
    params_path = tmp_path / "model.params"
    command = ["train"]
    if params is not None:
        params_path.write_bytes(params)
        command = ["eval", "--params", str(params_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "vqcontrast.cli", *command, "--config", str(config_path),
         "--data", str(manifest_path), "--out", str(tmp_path / "out.jsonl")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    raw = [doc for doc in (config, manifest, params) if isinstance(doc, bytes)]
    if raw:
        assert _RAW_REFUSALS[raw[0]] in proc.stderr, proc.stderr
    else:
        for name in config:  # refused by the config check, not by a later stage
            assert f"{name} must" in proc.stderr, proc.stderr
        for name in {*manifest} - {*_MANIFEST}:  # a key the manifest does not hold
            assert repr(name) in proc.stderr, proc.stderr


@pytest.mark.parametrize("nested", ["config", "manifest"])
def test_deeply_nested_json_exits_one_without_traceback(tmp_path, nested):
    """100 000 nested ``[`` in any input file are refused as malformed input."""
    paths = {name: tmp_path / f"{name}.json" for name in ("config", "manifest")}
    paths["config"].write_bytes(_json_bytes({}, TINY.to_dict()))
    paths["manifest"].write_bytes(_json_bytes({}, _MANIFEST))
    paths[nested].write_bytes(b"[" * 100_000)
    proc = subprocess.run(
        [sys.executable, "-m", "vqcontrast.cli", "eval", "--config", str(paths["config"]),
         "--data", str(paths["manifest"]), "--params", str(tmp_path / "model.params"),
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
