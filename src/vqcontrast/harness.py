"""Experiment orchestration: configs, training, evaluation, protocols.

A run is fully determined by a ``RunConfig`` and a dataset manifest.  The
config is the one place each setting a run varies is declared, defaulted
and validated: the encoders read their geometry from it and Adam its
learning rate (its betas and the initial temperature are constants).  The
training loop optimizes both encoders and the log-temperature jointly;
classical gradients come from the tape, the circuit's from
``vqc.vqc_batched_vjp``, and a single Adam instance updates everything.  Each
batch is gathered by row index from the dataset's resident float32 arrays
and widened to float64 as it enters the tape; the training split is never
copied whole.  Evaluation gathers and embeds rows in cache-sized blocks on a
tape that records no backward closures, so each op's inputs are freed as
soon as the next op has used them.  In eval mode every op, batch norm
included, acts on each row alone, so blocking moves results only by
rounding (about 1e-15).  The blocks are embedded on every usable CPU: the
calling thread and up to (CPUs - 1) pool threads started for the call each
take the next block not yet taken until none is left, so a thread the host
slows down takes fewer, and the blocks are joined in row order.  Each block
runs the same forward whichever thread takes it, so the embeddings do not
depend on the CPU count, and an error raised in any block reaches the
caller as it was raised, once every thread has stopped.

Metrics are emitted as JSON lines, and the package never reads a stream
back.  Wall time is tracked on the records but deliberately left out of the
serialized form so that identical seed + config reproduce the stream byte
for byte.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .contrastive import (
    MAX_LOG_TEMPERATURE,
    TAU_INIT,
    ContrastiveBatch,
    clip_logits,
    clip_logits_op,
    clip_loss_op,
    topk_accuracy,
)
from .data import DatasetManifest, require_finite, require_ints
from .diffnet import Adam, Tape, Tensor
from .encoders import EegConvEncoder, ImageEmbedHead
from .errors import ConfigurationError, NumericError
from .qtns import load_params, read_json_object, save_params
from .vqc import MAX_QUBITS

# Threaded eval call, 1024 queries, 2-CPU Xeon, median per-pair ratios over 40 interleaved
# calls: 32 rows take 29-30% longer than 64, 48 rows 9%, 128 rows 19-31%
_EVAL_BLOCK_ROWS = 64
_EVAL_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)


@dataclass(frozen=True)
class RunConfig:
    """Every setting a run varies, JSON-serializable, unknown keys rejected;
    the dataset is not one, its manifest is passed beside the config."""

    # circuit
    n_qubits: int = 10
    n_layers: int = 4
    # optimizer
    lr: float = 0.0002
    # schedule
    epochs: int = 200
    batch_size: int = 64
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

    def __post_init__(self):
        require_ints(
            1, n_qubits=self.n_qubits, n_layers=self.n_layers,
            electrodes=self.electrodes, time_samples=self.time_samples,
            spatial_maps=self.spatial_maps, temporal_maps=self.temporal_maps,
            temporal_kernel=self.temporal_kernel, embed_dim=self.embed_dim,
            image_dim=self.image_dim, n_train_classes=self.n_train_classes,
            n_test_classes=self.n_test_classes, samples_per_class=self.samples_per_class,
            latent_dim=self.latent_dim, n_runs=self.n_runs,
        )
        require_ints(0, epochs=self.epochs, seed=self.seed)
        if not isinstance(self.batch_size, int) or self.batch_size < 2:
            raise ConfigurationError(f"batch_size must be an integer >= 2, got {self.batch_size!r}")
        require_finite(lr=self.lr, noise_sigma=self.noise_sigma)
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {self.lr}")
        if self.noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be >= 0")
        if self.n_qubits > MAX_QUBITS:
            raise ConfigurationError(f"n_qubits must be <= {MAX_QUBITS}, got {self.n_qubits}")
        if self.temporal_kernel > self.time_samples:
            raise ConfigurationError(
                f"temporal_kernel {self.temporal_kernel} exceeds "
                f"time_samples {self.time_samples}"
            )

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
        return cls.from_dict(read_json_object(path, "config"))


@dataclass(frozen=True)
class MetricsRecord:
    """One emitted measurement: a training epoch or an evaluation.

    Only ``train`` and ``evaluate_zero_shot`` build records, from values
    checked where they enter the program, so a record checks nothing again.
    """

    run_id: int
    epoch: int | None = None
    train_loss: float | None = None
    top1: float | None = None
    top5: float | None = None
    wall_time: float | None = None

    def to_json_line(self) -> str:
        # wall_time stays in memory only; serialized streams must be
        # reproducible byte for byte for a given seed + config.
        doc = {
            "run_id": self.run_id, "epoch": self.epoch,
            "train_loss": self.train_loss, "top1": self.top1, "top5": self.top5,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def write_metrics(records, path) -> None:
    Path(path).write_text("".join(r.to_json_line() + "\n" for r in records))


class RetrievalModel:
    """Both encoders plus the learned log-temperature."""

    def __init__(self, config: RunConfig, rng: np.random.Generator):
        self.config = config
        self.eeg_encoder = EegConvEncoder(config, rng)
        self.image_head = ImageEmbedHead(config, rng)
        self.log_tau = Tensor(np.array(TAU_INIT))

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
        # Copies: training this model must not move the caller's arrays.
        values = {name: np.array(state[name], dtype=np.float64) for name in expected}
        for name, value in values.items():
            if value.shape != expected[name].shape:
                raise ConfigurationError(
                    f"parameter mismatch for {name!r}: got shape {value.shape}, "
                    f"expected {expected[name].shape}"
                )
            if not np.all(np.isfinite(value)):
                raise ConfigurationError(f"parameter {name!r} contains non-finite values")
        for name, t in self.named_parameters().items():
            t.data = values[name]
        for k in self.eeg_encoder.buffers:
            self.eeg_encoder.buffers[k] = values[f"eeg.buffers.{k}"]

    def save(self, path) -> None:
        save_params(path, self.named_state())

    @classmethod
    def from_saved(cls, config: RunConfig, path) -> "RetrievalModel":
        model = cls(config, np.random.default_rng(config.seed))
        model.load_state(load_params(path, model.named_state()))
        return model

    def embed_eeg(self, eeg: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """Eval-mode embeddings of ``eeg``, or of ``eeg[rows]`` gathered block by
        block, run in row blocks on every usable CPU (see the module doc); the
        bytes do not depend on the CPU count."""
        return _blocked(self.eeg_encoder.forward, eeg, rows, train=False)

    def embed_images(self, embeddings: np.ndarray) -> np.ndarray:
        """Image-head embeddings, run in row blocks on every usable CPU (see the
        module doc); the bytes do not depend on the CPU count."""
        return _blocked(self.image_head.forward, embeddings)


class _ForwardOnlyTape(Tape):
    """An eval forward's tape: it records no backward closure, so none keeps
    an op's inputs alive."""

    def record(self, backward_fn) -> None:
        pass


def _blocked(forward, data: np.ndarray, rows: np.ndarray | None = None, **kwargs) -> np.ndarray:
    n = len(data if rows is None else rows)
    spans = [slice(i, i + _EVAL_BLOCK_ROWS) for i in range(0, max(n, 1), _EVAL_BLOCK_ROWS)]
    out = [None] * len(spans)  # 0 rows: one empty block
    todo, lock = iter(range(len(spans))), threading.Lock()

    def drain():  # embed the next block not yet taken until none is left
        while True:
            with lock:
                k = next(todo, None)
            if k is None:
                return
            block = data[spans[k]] if rows is None else data[rows[spans[k]]]
            out[k] = forward(_ForwardOnlyTape(), Tensor(block), **kwargs).data

    helpers = min(_EVAL_CPUS, len(spans)) - 1
    # A pool per call: no thread outlives the call, even when a block raises,
    # and no idle thread is left to a process forked later.
    with ThreadPoolExecutor(max(helpers, 1), thread_name_prefix="vqcontrast-eval") as pool:
        futures = [pool.submit(drain) for _ in range(helpers)]
        drain()
    for future in futures:
        future.result()
    return np.concatenate(out)


def _load_and_check(config: RunConfig, manifest: DatasetManifest):
    eeg, emb, labels = manifest.load_arrays()
    if eeg.shape[1:] != (config.electrodes, config.time_samples):
        raise ConfigurationError(
            f"dataset EEG geometry {eeg.shape[1:]} does not match config "
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
    train_rows = np.flatnonzero(np.isin(labels, manifest.train_classes))
    if train_rows.size < 2:  # so the first batch of every epoch holds two rows
        raise ConfigurationError("a training batch needs 2 samples; the training classes "
                                 f"hold {train_rows.size}")

    rng = np.random.default_rng(config.seed)
    model = RetrievalModel(config, rng)
    optimizer = Adam(model.named_parameters(), lr=config.lr)

    records: list[MetricsRecord] = []
    n = len(train_rows)
    for epoch in range(config.epochs):
        started = time.perf_counter()
        order = rng.permutation(n)
        loss_sum = 0.0
        seen = 0
        for start in range(0, n, config.batch_size):
            rows = train_rows[order[start : start + config.batch_size]]
            if len(rows) < 2:
                continue  # batch norm needs at least two rows in train mode
            tape = Tape()
            eeg_f = model.eeg_encoder.forward(tape, Tensor(eeg[rows]), train=True)
            img_f = model.image_head.forward(tape, Tensor(emb[labels[rows]]))
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
            # keep e^tau bounded, as in standard contrastive training
            np.minimum(model.log_tau.data, MAX_LOG_TEMPERATURE, out=model.log_tau.data)
            loss_sum += value * len(rows)
            seen += len(rows)
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
    started = time.perf_counter()
    mask = np.isin(labels, test_classes)
    if not mask.any():
        raise ConfigurationError("no samples belong to the test classes")
    true_idx = np.searchsorted(test_classes, labels[mask])

    query_f = model.embed_eeg(eeg, np.flatnonzero(mask))
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

