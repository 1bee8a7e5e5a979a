"""Experiment orchestration: configs, training, evaluation, protocols.

A run is fully determined by a ``RunConfig`` and a dataset manifest.  The
config is the one place each setting is declared, defaulted and validated:
the encoders read their geometry from it and Adam its hyperparameters.  The
training loop optimizes both encoders and the log-temperature jointly;
classical gradients come from the tape, quantum ones from the
parameter-shift rule, and a single Adam instance updates everything.
Evaluation embeds rows in cache-sized blocks; in eval mode every op, batch
norm included, acts on each row alone, so blocking moves results only by
rounding (about 1e-15).

Metrics are emitted as JSON lines.  Wall time is tracked on the records
but deliberately left out of the serialized form so that identical
seed + config reproduce the stream byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .contrastive import (
    MAX_LOG_TEMPERATURE,
    ContrastiveBatch,
    clip_logits,
    clip_logits_op,
    clip_loss_op,
    topk_accuracy,
)
from .data import DatasetManifest, generate_dataset
from .diffnet import Adam, Tape, Tensor
from .encoders import EegConvEncoder, ImageEmbedHead
from .errors import ConfigurationError, NumericError, ZeroShotOverlapError
from .qtns import load_params, save_params
from .statevector import MAX_QUBITS

_DEFAULT_TAU_INIT = float(np.log(1.0 / 0.07))
_FLOAT_MAX = float(np.finfo(np.float64).max)  # np.isfinite cannot take an int this large
_EVAL_BLOCK_ROWS = 64  # 64 and 128 tie on a 2 MiB-L2 Xeon core; 32 and 256 are ~15% slower


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, JSON-serializable, unknown keys rejected."""

    # circuit
    n_qubits: int = 10
    n_layers: int = 4
    # optimizer
    lr: float = 0.0002
    beta1: float = 0.5
    beta2: float = 0.999
    weight_decay: float = 0.0
    # schedule
    epochs: int = 200
    batch_size: int = 64
    tau_init: float = _DEFAULT_TAU_INIT
    seed: int = 0
    n_runs: int = 5
    # encoder geometry
    electrodes: int = 17
    time_samples: int = 100
    spatial_maps: int = 8
    temporal_maps: int = 8
    temporal_kernel: int = 16
    embed_dim: int = 64
    image_dim: int = 512
    # synthetic dataset generation
    n_train_classes: int = 16
    n_test_classes: int = 8
    samples_per_class: int = 20
    noise_sigma: float = 0.3
    latent_dim: int = 2
    # optional default dataset location (CLI --data overrides)
    data_manifest: str | None = None

    def __post_init__(self):
        positive_ints = {
            "n_qubits": self.n_qubits, "n_layers": self.n_layers,
            "electrodes": self.electrodes, "time_samples": self.time_samples,
            "spatial_maps": self.spatial_maps, "temporal_maps": self.temporal_maps,
            "temporal_kernel": self.temporal_kernel, "embed_dim": self.embed_dim,
            "image_dim": self.image_dim, "n_train_classes": self.n_train_classes,
            "n_test_classes": self.n_test_classes,
            "samples_per_class": self.samples_per_class,
            "latent_dim": self.latent_dim, "n_runs": self.n_runs,
        }
        for name, v in positive_ints.items():
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ConfigurationError(f"{name} must be a positive integer, got {v!r}")
        if not isinstance(self.epochs, int) or isinstance(self.epochs, bool) or self.epochs < 0:
            raise ConfigurationError(f"epochs must be a non-negative integer, got {self.epochs!r}")
        if not isinstance(self.batch_size, int) or self.batch_size < 2:
            raise ConfigurationError(f"batch_size must be an integer >= 2, got {self.batch_size!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name, v in (("lr", self.lr), ("beta1", self.beta1), ("beta2", self.beta2),
                        ("weight_decay", self.weight_decay), ("tau_init", self.tau_init),
                        ("noise_sigma", self.noise_sigma)):
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not (
                abs(v) <= _FLOAT_MAX if isinstance(v, int) else np.isfinite(v)
            ):
                raise ConfigurationError(f"{name} must be a finite number, got {v!r}")
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigurationError("betas must lie in [0, 1)")
        if self.weight_decay < 0 or self.noise_sigma < 0:
            raise ConfigurationError("weight_decay and noise_sigma must be >= 0")
        if self.n_qubits > MAX_QUBITS:
            raise ConfigurationError(f"n_qubits must be <= {MAX_QUBITS}, got {self.n_qubits}")
        if self.temporal_kernel > self.time_samples:
            raise ConfigurationError(
                f"temporal_kernel {self.temporal_kernel} exceeds "
                f"time_samples {self.time_samples}"
            )
        if self.data_manifest is not None and not isinstance(self.data_manifest, str):
            raise ConfigurationError("data_manifest must be a path string or null")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigurationError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"config is not valid UTF-8 JSON: {exc}")
        return cls.from_dict(doc)


@dataclass(frozen=True)
class MetricsRecord:
    """One emitted measurement: a training epoch or an evaluation."""

    run_id: int
    epoch: int | None = None
    train_loss: float | None = None
    top1: float | None = None
    top5: float | None = None
    wall_time: float | None = None

    def __post_init__(self):
        if self.train_loss is not None and not np.isfinite(self.train_loss):
            raise NumericError(f"train_loss must be finite, got {self.train_loss}")
        for name, v in (("top1", self.top1), ("top5", self.top5)):
            if v is not None and not 0.0 <= v <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1], got {v}")

    def to_json_line(self) -> str:
        # wall_time stays in memory only; serialized streams must be
        # reproducible byte for byte for a given seed + config.
        doc = {
            "run_id": self.run_id, "epoch": self.epoch,
            "train_loss": self.train_loss, "top1": self.top1, "top5": self.top5,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_line(cls, line: str) -> "MetricsRecord":
        doc = json.loads(line)
        return cls(**doc)


def write_metrics(records, path) -> None:
    Path(path).write_text("".join(r.to_json_line() + "\n" for r in records))


def read_metrics(path) -> list[MetricsRecord]:
    lines = Path(path).read_text().splitlines()
    return [MetricsRecord.from_json_line(line) for line in lines if line.strip()]


class RetrievalModel:
    """Both encoders plus the learned log-temperature."""

    def __init__(self, config: RunConfig, rng: np.random.Generator):
        self.config = config
        self.eeg_encoder = EegConvEncoder(config, rng)
        self.image_head = ImageEmbedHead(config, rng)
        self.log_tau = Tensor(np.array(min(config.tau_init, MAX_LOG_TEMPERATURE)))

    def named_parameters(self) -> dict[str, Tensor]:
        out = {f"eeg.{k}": t for k, t in self.eeg_encoder.params.items()}
        out.update({f"img.{k}": t for k, t in self.image_head.params.items()})
        out["log_tau"] = self.log_tau
        return out

    def named_state(self) -> dict[str, np.ndarray]:
        state = {name: t.data for name, t in self.named_parameters().items()}
        for k, buf in self.eeg_encoder.buffers.items():
            state[f"eeg.buffers.{k}"] = buf
        return state

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        expected = self.named_state()
        missing = set(expected) - set(state)
        extra = set(state) - set(expected)
        if missing or extra:
            raise ConfigurationError(
                f"parameter set mismatch: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}"
            )
        for name, want in expected.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != want.shape:
                raise ConfigurationError(
                    f"parameter mismatch for {name!r}: got shape {value.shape}, "
                    f"expected {want.shape}"
                )
            if not np.all(np.isfinite(value)):
                raise ConfigurationError(f"parameter {name!r} contains non-finite values")
        for name, t in self.named_parameters().items():
            t.data = np.asarray(state[name], dtype=np.float64)
        for k in self.eeg_encoder.buffers:
            self.eeg_encoder.buffers[k] = np.asarray(state[f"eeg.buffers.{k}"], dtype=np.float64)

    def save(self, path) -> None:
        save_params(path, self.named_state())

    @classmethod
    def from_saved(cls, config: RunConfig, path) -> "RetrievalModel":
        model = cls(config, np.random.default_rng(config.seed))
        model.load_state(load_params(path))
        return model

    def embed_eeg(self, eeg: np.ndarray) -> np.ndarray:
        """Eval-mode EEG embeddings, run in row blocks (see the module doc)."""
        return _blocked(self.eeg_encoder.forward, eeg, train=False)

    def embed_images(self, embeddings: np.ndarray) -> np.ndarray:
        """Image-head embeddings, run in row blocks (see the module doc)."""
        return _blocked(self.image_head.forward, embeddings)


def _blocked(forward, rows: np.ndarray, **kwargs) -> np.ndarray:
    starts = range(0, max(len(rows), 1), _EVAL_BLOCK_ROWS)  # 0 rows: one empty block
    blocks = (rows[i : i + _EVAL_BLOCK_ROWS] for i in starts)
    return np.concatenate([forward(Tape(), Tensor(b), **kwargs).data for b in blocks])


def _load_and_check(config: RunConfig, manifest: DatasetManifest):
    eeg, emb, labels = manifest.load_arrays()
    if eeg.shape[2] != config.electrodes or eeg.shape[3] != config.time_samples:
        raise ConfigurationError(
            f"dataset EEG geometry {eeg.shape[2:]} does not match config "
            f"({config.electrodes}, {config.time_samples})"
        )
    if emb.shape[1] != config.image_dim:
        raise ConfigurationError(
            f"dataset image embedding width {emb.shape[1]} does not match "
            f"config image_dim {config.image_dim}"
        )
    return eeg, emb, labels


def train(
    config: RunConfig, manifest: DatasetManifest
) -> tuple[RetrievalModel, list[MetricsRecord]]:
    """Optimize both encoders and tau; one MetricsRecord per epoch."""
    eeg, emb, labels = _load_and_check(config, manifest)
    train_mask = np.isin(labels, manifest.train_classes)
    if not train_mask.any():
        raise ConfigurationError("no samples belong to the training classes")
    x_train = eeg[train_mask]
    y_train = labels[train_mask]

    rng = np.random.default_rng(config.seed)
    model = RetrievalModel(config, rng)
    optimizer = Adam(
        model.named_parameters(), lr=config.lr, beta1=config.beta1,
        beta2=config.beta2, weight_decay=config.weight_decay,
    )

    records: list[MetricsRecord] = []
    n = len(x_train)
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = rng.permutation(n)
        loss_sum = 0.0
        seen = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            if len(idx) < 2:
                continue  # batch norm needs at least two rows in train mode
            tape = Tape()
            eeg_f = model.eeg_encoder.forward(tape, Tensor(x_train[idx]), train=True)
            img_f = model.image_head.forward(tape, Tensor(emb[y_train[idx]]))
            ContrastiveBatch(eeg_f.data, img_f.data, float(model.log_tau.data))
            loss = clip_loss_op(
                tape, clip_logits_op(tape, eeg_f, img_f, model.log_tau)
            )
            value = float(loss.data)
            if not np.isfinite(value):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, step {start // config.batch_size} "
                    f"(seed {config.seed}); aborting"
                )
            tape.backward(loss)
            optimizer.step()
            # cleared here, not before backward, so the returned model holds no gradient
            optimizer.zero_grad()
            # keep e^tau bounded, as in standard contrastive training
            np.minimum(model.log_tau.data, MAX_LOG_TEMPERATURE, out=model.log_tau.data)
            loss_sum += value * len(idx)
            seen += len(idx)
        if seen == 0:
            raise ConfigurationError(
                "every batch was smaller than 2 samples; shrink batch_size"
            )
        records.append(MetricsRecord(
            run_id=config.seed, epoch=epoch, train_loss=loss_sum / seen,
            wall_time=time.perf_counter() - started,
        ))
    return model, records


def evaluate_zero_shot(model: RetrievalModel, manifest: DatasetManifest) -> MetricsRecord:
    """Score held-out EEG queries against held-out class image embeddings."""
    config = model.config
    eeg, emb, labels = _load_and_check(config, manifest)
    test_classes = sorted(manifest.test_classes)
    overlap = set(test_classes) & set(manifest.train_classes)
    if overlap:
        raise ZeroShotOverlapError(f"test classes {sorted(overlap)} were trained on")
    started = time.perf_counter()
    mask = np.isin(labels, test_classes)
    if not mask.any():
        raise ConfigurationError("no samples belong to the test classes")
    queries = eeg[mask]
    position = {c: i for i, c in enumerate(test_classes)}
    true_idx = np.array([position[c] for c in labels[mask]])

    query_f = model.embed_eeg(queries)
    gallery_f = model.embed_images(emb[test_classes])
    scores = clip_logits(query_f, gallery_f, float(model.log_tau.data))

    return MetricsRecord(
        run_id=config.seed,
        top1=topk_accuracy(scores, true_idx, 1),
        top5=topk_accuracy(scores, true_idx, min(5, len(test_classes))),
        wall_time=time.perf_counter() - started,
    )


def _summary(values: list[float], percent: bool) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = 0.0 if arr.size < 2 else float(arr.std(ddof=1))
    scale = 100.0 if percent else 1.0
    return {
        "per_run": values,
        "mean": mean,
        "std": std,
        "formatted": f"{mean * scale:.1f} ± {std * scale:.1f}" + (" %" if percent else ""),
    }


def run_protocol(config: RunConfig, manifest: DatasetManifest) -> dict:
    """Train + evaluate with seeds seed..seed+n_runs-1; report mean +/- std."""
    top1, top5, first_loss, final_loss, seeds = [], [], [], [], []
    for offset in range(config.n_runs):
        run_config = replace(config, seed=config.seed + offset)
        model, records = train(run_config, manifest)
        evaluation = evaluate_zero_shot(model, manifest)
        seeds.append(run_config.seed)
        top1.append(evaluation.top1)
        top5.append(evaluation.top5)
        if records:
            first_loss.append(records[0].train_loss)
            final_loss.append(records[-1].train_loss)
    report = {
        "n_runs": config.n_runs,
        "seeds": seeds,
        "top1": _summary(top1, percent=True),
        "top5": _summary(top5, percent=True),
    }
    if final_loss:
        report["first_epoch_train_loss"] = _summary(first_loss, percent=False)
        report["final_train_loss"] = _summary(final_loss, percent=False)
    return report

