"""The SHA-256 identity recipe: two configs run through ``gen-data``, ``train``
and ``eval`` write exactly the bytes recorded in ``identity.json``.

The configs are the acceptance DESK config with ``epochs=8, n_runs=1`` and
``RunConfig(epochs=2)``.  A change that moves a hash either changes the numbers
or a file format, and must say which.  The bytes depend on numpy and its BLAS,
so the test skips where either differs from the recording.  To record the
bytes the current code writes:

    PYTHONPATH=src python tests/test_identity.py --write
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from test_acceptance import DESK
from vqcontrast import RunConfig
from vqcontrast.cli import main

RECORD = Path(__file__).with_name("identity.json")
FILES = ("metrics.jsonl", "eval.jsonl", "params.json", "data/eeg.qtns")
RECIPES = {
    "desk-8-epochs": replace(DESK, epochs=8, n_runs=1),
    "default-2-epochs": RunConfig(epochs=2),
}


def numpy_and_blas() -> dict[str, str]:
    return {"numpy": np.__version__,
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]}


def recipe_commands(config: RunConfig, workdir: Path) -> list[list[str]]:
    """Save ``config`` in ``workdir``; return the recipe's three CLI argument lists."""
    workdir.mkdir(parents=True)
    config_path, manifest = str(workdir / "config.json"), str(workdir / "data" / "manifest.json")
    config.save(config_path)
    params = str(workdir / "params.json")
    return [
        ["gen-data", "--config", config_path, "--out-dir", str(workdir / "data")],
        ["train", "--config", config_path, "--data", manifest,
         "--out", str(workdir / "metrics.jsonl"), "--params", params],
        ["eval", "--config", config_path, "--data", manifest, "--params", params,
         "--out", str(workdir / "eval.jsonl")],
    ]


def digests(workdir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in FILES}


def run_recipe(config: RunConfig, workdir: Path) -> dict[str, str]:
    for argv in recipe_commands(config, workdir):
        assert main(argv) == 0, argv
    return digests(workdir)


def recorded() -> dict:
    record = json.loads(RECORD.read_text())
    here = numpy_and_blas()
    if {key: record[key] for key in here} != here:
        pytest.skip(f"identity.json holds the bytes of numpy {record['numpy']} with "
                    f"{record['blas']}; this is numpy {here['numpy']} with {here['blas']}")
    return record["recipes"]


@pytest.mark.parametrize("name", RECIPES)
def test_recipe_writes_the_recorded_bytes(tmp_path, name):
    expected = recorded()[name]
    assert run_recipe(RECIPES[name], tmp_path / name) == expected


def test_recipe_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    expected = recorded()["default-2-epochs"]
    commands = recipe_commands(RECIPES["default-2-epochs"], tmp_path / "threads")
    code = ("import json, sys\nfrom vqcontrast.cli import main\n"
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "2"})
    assert proc.returncode == 0, proc.stderr
    assert digests(tmp_path / "threads") == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as scratch:
        recipes = {name: run_recipe(config, Path(scratch) / name)
                   for name, config in RECIPES.items()}
    RECORD.write_text(json.dumps({**numpy_and_blas(), "recipes": recipes}, indent=2) + "\n")
