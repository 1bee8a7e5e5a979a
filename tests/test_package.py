"""Package surface: the exported names, and the fast demos that use the API."""

import ast
import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vqcontrast
from vqcontrast import DatasetManifest, RetrievalModel, RunConfig
from vqcontrast.vqc import QuantumLayerParams

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# What the README quick start, the CLI and the demos call.  Everything else
# is imported from its submodule; growing this list is a deliberate choice.
EXPORTED = [
    "CheckResult",
    "ConfigurationError",
    "DatasetManifest",
    "MetricsRecord",
    "NumericError",
    "RetrievalModel",
    "RunConfig",
    "clip_logits",
    "clip_loss",
    "evaluate_zero_shot",
    "generate_dataset",
    "load_params",
    "load_tensor_file",
    "run_all_checks",
    "run_protocol",
    "save_params",
    "save_tensor_file",
    "topk_accuracy",
    "train",
    "write_metrics",
]

# Every RunConfig knob, in declaration order; adding or removing one is a
# deliberate edit here too.
CONFIG_KEYS = [
    "n_qubits", "n_layers",
    "lr",
    "epochs", "batch_size", "seed", "n_runs",
    "electrodes", "time_samples", "spatial_maps", "temporal_maps", "temporal_kernel",
    "embed_dim", "image_dim",
    "n_train_classes", "n_test_classes", "samples_per_class", "noise_sigma", "latent_dim",
]

# Every tensor a parameter file holds for the default RunConfig, in
# ``named_state`` order, with its shape; changing the parameter format is a
# deliberate edit here too.  The EEG kernels carry no singleton axes.
PARAM_SHAPES = [
    ("eeg.spatial_kernel", (8, 17)),
    ("eeg.bn1_gamma", (8,)),
    ("eeg.bn1_beta", (8,)),
    ("eeg.temporal_kernel", (8, 8, 16)),
    ("eeg.bn2_gamma", (8,)),
    ("eeg.bn2_beta", (8,)),
    ("eeg.angle_w", (680, 10)),
    ("eeg.angle_b", (10,)),
    ("eeg.circuit_weights", (4, 10)),
    ("eeg.proj_w", (10, 64)),
    ("eeg.proj_b", (64,)),
    ("img.angle_w", (512, 10)),
    ("img.angle_b", (10,)),
    ("img.circuit_weights", (4, 10)),
    ("img.proj_w", (10, 64)),
    ("img.proj_b", (64,)),
    ("log_tau", ()),
    ("eeg.buffers.bn1_mean", (8,)),
    ("eeg.buffers.bn1_var", (8,)),
    ("eeg.buffers.bn2_mean", (8,)),
    ("eeg.buffers.bn2_var", (8,)),
]


def test_all_is_sorted_unique_and_resolves():
    names = vqcontrast.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(vqcontrast, name) is not None, name


def test_all_equals_the_agreed_surface():
    assert vqcontrast.__all__ == EXPORTED


def test_run_config_keys_are_the_agreed_knobs():
    assert list(vqcontrast.RunConfig().to_dict()) == CONFIG_KEYS


def test_parameter_format_is_the_agreed_one():
    state = RetrievalModel(RunConfig(), np.random.default_rng(0)).named_state()
    assert [(name, value.shape) for name, value in state.items()] == PARAM_SHAPES


def test_runs_import_no_oracle():
    """The package, the CLI and gradcheck load without the reference oracles."""
    code = (
        "import sys, vqcontrast, vqcontrast.cli, vqcontrast.gradcheck\n"
        "assert 'vqcontrast.oracles' not in sys.modules, 'a run imports the oracles'\n"
        "import vqcontrast.oracles\n"  # the module the assertion names exists
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_only_diffnet_records_on_the_tape():
    """Every other module's tape op goes through ``Tape.op``, so the backward
    rule has one home."""
    callers = []
    for path in sorted(Path(vqcontrast.__file__).parent.rglob("*.py")):
        if path.name == "diffnet.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "record"):
                callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


def test_src_modules_use_every_import():
    """A name a module imports is read in it, or listed in its ``__all__``."""
    unused = []
    for path in sorted(Path(vqcontrast.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_src_reads_every_private_module_name():
    """A private name (``_x``, not dunder) defined at a module's top level is
    read somewhere in the package: as a name, an attribute or an import."""
    defined, read = {}, set()
    for path in sorted(Path(vqcontrast.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    assert defined, "the scan found no private names"
    assert sorted(f"{where} {name}" for name, where in defined.items() if name not in read) == []


def test_errors_are_one_type_per_exit_code():
    """``errors.py`` defines the two types the CLI maps to exit 1 and 2, and
    every ``raise Name(...)`` in the package names one of them.  The CLI may
    raise ``SystemExit``."""
    package = Path(vqcontrast.__file__).parent
    errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    assert [node.name for node in errors.body if isinstance(node, ast.ClassDef)] == [
        "ConfigurationError", "NumericError"]
    raised = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                raised[f"{path.name}:{node.lineno}"] = node.exc.func.id
    assert [f"{where} {name}" for where, name in raised.items()
            if name not in ("ConfigurationError", "NumericError")
            and (where.split(":")[0], name) != ("cli.py", "SystemExit")] == []
    assert set(raised.values()) == {"ConfigurationError", "NumericError", "SystemExit"}


def test_every_dataclass_is_frozen():
    """A record is checked once in ``__post_init__``; a field that could change
    afterwards would need its checks run again wherever it is read."""
    mutable = []
    for path in sorted(Path(vqcontrast.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for deco in node.decorator_list if isinstance(node, ast.ClassDef) else ():
                text = ast.unparse(deco)  # e.g. "dataclass", "dataclasses.dataclass(frozen=True)"
                if text.split("(")[0].endswith("dataclass") and "frozen=True" not in text:
                    mutable.append(f"{path.name}:{node.name}")
    assert mutable == []


@pytest.mark.parametrize("record,field", [
    (DatasetManifest([0], [1]), "test_classes"),
    (DatasetManifest([0], [1]), "root"),
    (QuantumLayerParams(2, 1, [[0.1, 0.2]]), "weights"),
    (QuantumLayerParams(2, 1, [[0.1, 0.2]]), "n_qubits"),
], ids=["manifest-split", "manifest-root", "circuit-weights", "circuit-qubits"])
def test_checked_records_cannot_be_edited(record, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("script", [
    "simulate_circuits.py", "quantum_gradients.py", "contrastive_objective.py",
])
def test_fast_demo_runs(script):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
