"""The three workloads: set-up, timed rounds and output checks.

- desk-train: ``harness.train`` at the acceptance desk geometry. The circuit
  has 16 amplitudes, so the step is shared between the circuit, per-gate
  Python overhead and the convolutions; 16 classes in batches of 32 make
  more than half of the image-head rows repeats.
- paper-train: ``harness.train`` at the default ``RunConfig`` geometry with
  one sample per class, so no image row in a batch repeats and the
  parameter-shift VJP is nearly the whole step.
- retrieval-eval: ``harness.evaluate_zero_shot`` at the default geometry,
  1024 held-out queries against 32 unseen classes. Forward only.

The workload seed picks the dataset, the model initialisation and the batch
order; the program sees only the generated files and the config.

desk-train is the exception. It trains on the acceptance suite's dataset, and
its first round is the acceptance protocol's first run (model seed 0, 100
epochs), which its learning check inspects; later rounds train 20 epochs
from the workload seed. A learning check on the workload seed's model would
fail for a reason that is not a fault of the code under test: on some seeds
100 desk epochs do not halve the loss (model seed 40 ends at 0.511 of the
first epoch's loss).
"""

from __future__ import annotations

import copy
import shutil
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from vqcontrast import harness
from vqcontrast.contrastive import clip_logits_op, clip_loss_op
from vqcontrast.data import MANIFEST_FILE, DatasetManifest, generate_dataset
from vqcontrast.diffnet import Tape, Tensor
from vqcontrast.harness import RetrievalModel, RunConfig
from vqcontrast.vqc import QuantumLayerParams, vqc_batched_forward, vqc_batched_vjp

from checks import (CheckFailure, check_directional, check_finite, check_forward,
                    check_learning, check_round_trip, check_topk, check_unit_rows,
                    check_vjp)
from tracer import SETUP_ROOT, Tracer, add_epoch_roots, instrumented, per_setup, per_unit

SETUP_REPEATS = 9
CIRCUIT_ROWS = 8
VJP_ROWS = 4
ACCEPTANCE_SEED = 0
LEARNING_EPOCHS = 100


def config_for(workload: str, seed: int) -> RunConfig:
    if workload == "desk-train":
        # The acceptance suite's desk geometry, 20 epochs per timed call.
        return RunConfig(
            n_qubits=4, n_layers=2, lr=0.002, epochs=20, batch_size=32,
            electrodes=8, time_samples=64, spatial_maps=8, temporal_maps=8,
            temporal_kernel=16, embed_dim=16, image_dim=32, n_train_classes=16,
            n_test_classes=8, samples_per_class=20, noise_sigma=0.3, latent_dim=2,
            seed=seed, n_runs=1,
        )
    if workload == "paper-train":
        # Two steps of 64 rows per call; every row is its own class.
        return RunConfig(epochs=1, n_train_classes=128, n_test_classes=8,
                         samples_per_class=1, seed=seed, n_runs=1)
    if workload == "retrieval-eval":
        return RunConfig(n_train_classes=8, n_test_classes=32, samples_per_class=32,
                         seed=seed, n_runs=1)
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Setup:
    manifest: DatasetManifest
    eeg: np.ndarray
    emb: np.ndarray
    labels: np.ndarray
    model: RetrievalModel
    seeded_state: dict | None


def set_up(config: RunConfig, data_seed: int, workdir: Path, tracer: Tracer,
           round_trip: bool) -> Setup:
    """Dataset generation, manifest load, model build, optional params round trip."""
    if workdir.exists():
        shutil.rmtree(workdir)
    with tracer.span(SETUP_ROOT):
        with tracer.span("data.generate"):
            generate_dataset(
                workdir, seed=data_seed, n_train_classes=config.n_train_classes,
                n_test_classes=config.n_test_classes,
                samples_per_class=config.samples_per_class, electrodes=config.electrodes,
                time_samples=config.time_samples, image_dim=config.image_dim,
                noise_sigma=config.noise_sigma, latent_dim=config.latent_dim,
            )
        manifest = DatasetManifest.load(workdir / MANIFEST_FILE)
        eeg, emb, labels = manifest.load_arrays()
        model = RetrievalModel(config, np.random.default_rng(config.seed))
        seeded_state = None
        if round_trip:
            seeded_state = {k: v.copy() for k, v in model.named_state().items()}
            model.save(workdir / "params.json")
            model = RetrievalModel.from_saved(config, workdir / "params.json")
    return Setup(manifest, eeg, emb, labels, model, seeded_state)


def batches(n: int, batch_size: int) -> list[int]:
    """Rows of each batch ``harness.train`` takes a step on."""
    sizes = [min(batch_size, n - start) for start in range(0, n, batch_size)]
    return [size for size in sizes if size >= 2]


def timed_rounds(one_round, seconds: float, tracer: Tracer, traced: bool) -> list:
    """Whole rounds ``one_round(k)`` until ``seconds`` have passed.

    A traced run interleaves plain and instrumented rounds in the order
    plain, traced, traced, plain, ..., so that the tracing overhead is taken
    from one process and neither side always runs first. Returns
    (instrumented, result) per round.
    """
    results = []
    started = perf_counter()
    while perf_counter() - started < seconds or len(results) < (2 if traced else 1):
        hooked = traced and len(results) % 4 in (1, 2)
        with instrumented(tracer) if hooked else nullcontext():
            results.append((hooked, one_round(len(results))))
    return results


# ---------------------------------------------------------------------------
# Checks that need the program's objects


def check_circuit(model: RetrievalModel, rng: np.random.Generator) -> None:
    """Forward and VJP of each head's circuit on sampled rows of angles."""
    for head in (model.eeg_encoder, model.image_head):
        weights = head.params["circuit_weights"].data
        n_layers, n_qubits = weights.shape
        params = QuantumLayerParams(n_qubits, n_layers, weights)
        X = rng.uniform(-np.pi, np.pi, size=(CIRCUIT_ROWS, n_qubits))
        check_forward(X, weights, vqc_batched_forward(X, params))
        X = X[:VJP_ROWS]
        upstream = rng.standard_normal(X.shape)
        d_inputs, d_weights = vqc_batched_vjp(X, params, upstream)
        check_vjp(X, weights, upstream, d_inputs, d_weights, rng)


def check_tape_gradient(model: RetrievalModel, eeg: np.ndarray, img: np.ndarray,
                        rng: np.random.Generator) -> None:
    """Full tape gradient of one batch's loss against a central difference.

    Runs on a copy: train-mode batch norm would move the live running stats.
    """
    twin = copy.deepcopy(model)
    params = twin.named_parameters()
    names = sorted(params)
    shapes = [params[name].data.shape for name in names]
    cuts = np.cumsum([params[name].data.size for name in names])[:-1]

    def loss(tape):
        e = twin.eeg_encoder.forward(tape, Tensor(eeg), train=True)
        v = twin.image_head.forward(tape, Tensor(img))
        return clip_loss_op(tape, clip_logits_op(tape, e, v, twin.log_tau))

    def loss_at(theta):
        for name, piece, shape in zip(names, np.split(theta, cuts), shapes):
            params[name].data = piece.reshape(shape).copy()
        return float(loss(Tape()).data)

    theta = np.concatenate([params[name].data.ravel() for name in names])
    for tensor in params.values():
        tensor.grad = None  # the last training step leaves its gradients behind
    tape = Tape()
    value = loss(tape)
    tape.backward(value)
    grad = np.concatenate([
        (np.zeros(shape) if params[name].grad is None else params[name].grad).ravel()
        for name, shape in zip(names, shapes)
    ])
    check_directional("tape gradient", loss_at, theta, grad, rng)


def check_zero_shot(setup: Setup, model: RetrievalModel, record) -> None:
    """``evaluate_zero_shot``'s top-k against the reference ranking."""
    test_classes = sorted(setup.manifest.test_classes)
    mask = np.isin(setup.labels, test_classes)
    true_idx = np.searchsorted(test_classes, setup.labels[mask])
    queries = model.embed_eeg(setup.eeg[mask])
    gallery = model.embed_images(setup.emb[test_classes])
    check_unit_rows("query embedding", queries)
    check_unit_rows("gallery embedding", gallery)
    scores = (queries @ gallery.T) * np.exp(float(model.log_tau.data))
    check_topk(scores, true_idx, record.top1, record.top5)


def check_learning_run(setup: Setup, model: RetrievalModel, records) -> None:
    """The acceptance run learns: loss halves and top-1 beats chance."""
    record = harness.evaluate_zero_shot(model, setup.manifest)
    check_zero_shot(setup, model, record)
    n_queries = int(np.isin(setup.labels, setup.manifest.test_classes).sum())
    check_learning(records[0].train_loss, records[-1].train_loss, record.top1,
                   n_queries, len(setup.manifest.test_classes))


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Outcome:
    attempted: int
    plain_op_s: list[float]
    traced_op_s: list[float]
    rows_per_op: float
    layers: dict[str, float]


def run_train(setup: Setup, config: RunConfig, first: RunConfig, seconds: float,
              tracer: Tracer, traced: bool, rng: np.random.Generator, learning: bool):
    """Timed ``harness.train`` calls; returns the outcome and its checks.

    Round 0 trains ``first``, every later round ``config``.
    """
    n_train = int(np.isin(setup.labels, setup.manifest.train_classes).sum())
    sizes = batches(n_train, config.batch_size)
    steps = len(sizes)

    def configs(k):
        return first if k == 0 else config

    rounds = timed_rounds(lambda k: harness.train(configs(k), setup.manifest), seconds,
                          tracer, traced)

    plain = [r.wall_time for hooked, (_, recs) in rounds if not hooked for r in recs]
    units = add_epoch_roots(tracer) if traced else []
    outcome = Outcome(
        attempted=steps * sum(len(recs) for _, (_, recs) in rounds),
        plain_op_s=[wall / steps for wall in plain],
        traced_op_s=[tracer.duration(u) / steps for u in units],
        rows_per_op=sum(sizes) / steps,
        layers=per_unit(tracer, units, steps * len(units)) if traced else {},
    )

    def checks():
        streams = {}
        for k, (_, (model, records)) in enumerate(rounds):
            losses = [r.train_loss for r in records]
            check_finite("train loss", losses)
            if streams.setdefault(configs(k), losses) != losses:
                raise CheckFailure("a repeated train call gave another loss stream")
        check_circuit(model, rng)
        train_rows = np.nonzero(np.isin(setup.labels, setup.manifest.train_classes))[0]
        pick = rng.choice(train_rows, size=config.batch_size, replace=False)
        eeg, img = setup.eeg[pick], setup.emb[setup.labels[pick]]
        check_tape_gradient(model, eeg, img, rng)
        check_unit_rows("EEG embedding", model.embed_eeg(eeg))
        check_unit_rows("image embedding", model.embed_images(img))
        if learning:
            check_learning_run(setup, *rounds[0][1])

    return outcome, checks


def run_eval(setup: Setup, config: RunConfig, seconds: float, tracer: Tracer,
             traced: bool, rng: np.random.Generator):
    """Timed ``evaluate_zero_shot`` calls; returns the outcome and its checks."""
    n_queries = int(np.isin(setup.labels, setup.manifest.test_classes).sum())

    def one_call(_):
        index = tracer.begin("harness.eval")
        try:
            return index, harness.evaluate_zero_shot(setup.model, setup.manifest)
        finally:
            tracer.finish(index)

    rounds = timed_rounds(one_call, seconds, tracer, traced)

    plain = [tracer.duration(i) for hooked, (i, _) in rounds if not hooked]
    units = [i for hooked, (i, _) in rounds if hooked]
    outcome = Outcome(
        attempted=len(rounds),
        plain_op_s=plain,
        traced_op_s=[tracer.duration(u) for u in units],
        rows_per_op=n_queries,
        layers=per_unit(tracer, units, len(units)) if traced else {},
    )

    def checks():
        check_round_trip(setup.seeded_state, setup.model.named_state())
        record = rounds[0][1][1]
        if any((r.top1, r.top5) != (record.top1, record.top5) for _, (_, r) in rounds):
            raise CheckFailure("a repeated evaluate_zero_shot call gave another top-k")
        check_zero_shot(setup, setup.model, record)
        check_circuit(setup.model, rng)

    return outcome, checks


def run_workload(workload: str, seed: int, seconds: float, traced: bool, workdir: Path):
    """Set up SETUP_REPEATS times, then time whole rounds and check outputs.

    Returns the set-up figures, the outcome, the reason a check failed (or
    None), the tracer and the config.
    """
    config = config_for(workload, seed)
    rng = np.random.default_rng(seed)
    tracer = Tracer()
    is_eval = workload == "retrieval-eval"
    first = config
    if workload == "desk-train":
        first = replace(config, seed=ACCEPTANCE_SEED, epochs=LEARNING_EPOCHS)
    for _ in range(SETUP_REPEATS):
        with instrumented(tracer) if traced else nullcontext():
            setup = set_up(config, first.seed, workdir, tracer, is_eval)
    setup_times = [tracer.duration(i) for i, name in enumerate(tracer.names)
                   if name == SETUP_ROOT]
    setup_figures = {"setup_s": statistics.median(setup_times)}
    if traced:
        setup_figures.update(per_setup(tracer))
    if is_eval:
        outcome, checks = run_eval(setup, config, seconds, tracer, traced, rng)
    else:
        outcome, checks = run_train(setup, config, first, seconds, tracer, traced, rng,
                                    learning=workload == "desk-train")
    try:
        checks()
        problem = None
    except CheckFailure as exc:
        problem = str(exc)
    return setup_figures, outcome, problem, tracer, config
