"""In-memory spans around calls into the program's layers.

The program has no trace of its own yet, so ``instrumented`` wraps the
public functions of ``vqc``, ``diffnet``, ``encoders``, ``contrastive``,
``data`` and ``qtns`` at the names through which the program calls them, and
restores them on exit. Each backward closure recorded on a ``Tape`` is timed
under the name of the op that recorded it.

A span is (name, start, end, parent). Self time is a span's duration minus
its children's. Counts (rows, tape closures) are events stamped with a time,
so they can be attributed to the step or eval call they fell in.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

DIFFNET_OPS = ("conv_spatial", "batch_norm", "elu", "conv_temporal", "linear",
               "angle_squash", "l2_normalize", "reshape")

# Span name of each op -> span name of the backward closure it records.
BACKWARD_OF = {f"diffnet.{op}.fwd": f"diffnet.{op}.bwd" for op in DIFFNET_OPS}
BACKWARD_OF.update({
    "encoders.quantum_layer": "encoders.quantum_layer.bwd",
    "contrastive.clip_logits.fwd": "contrastive.clip_logits.bwd",
    "contrastive.clip_loss.fwd": "contrastive.clip_loss.bwd",
})

UNIT_ROOTS = ("harness.epoch", "harness.eval")
SETUP_ROOT = "bench.setup"
SETUP_METRICS = ("data.generate_s", "data.load_arrays_s",
                 "qtns.save_params_s", "qtns.load_params_s")


class Tracer:
    """Spans and events kept in memory until the run writes them out."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.events: list[tuple[float, str, float]] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(float("nan"))
        self._open.append(index)
        self.starts.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.finish(index)

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def current(self) -> str | None:
        return self.names[self._open[-1]] if self._open else None

    def event(self, name: str, value: float) -> None:
        self.events.append((perf_counter(), name, value))

    def add_closed(self, name: str, start: float, end: float) -> int:
        """A root span whose bounds are known only afterwards (an epoch)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(-1)
        return len(self.names) - 1

    def write(self, path) -> None:
        with open(path, "w") as out:
            for i, name in enumerate(self.names):
                out.write(json.dumps({"name": name, "start": self.starts[i],
                                      "end": self.ends[i], "parent": self.parents[i]}) + "\n")


def _distinct_rows(x: np.ndarray) -> int:
    rows = np.ascontiguousarray(x)
    return len(np.unique(rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))))


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap the program's layers in spans for the duration of the block."""
    from vqcontrast import data, diffnet, encoders, harness

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def spanned(name, fn, count=None):
        def wrapper(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.finish(index)
        return wrapper

    def wrap(owner, attr, name, count=None):
        patch(owner, attr, spanned(name, getattr(owner, attr), count))

    record = diffnet.Tape.record

    def traced_record(tape, backward_fn):
        tracer.event("diffnet.tape_ops", 1)
        name = BACKWARD_OF.get(tracer.current(), f"unattributed.{tracer.current()}.bwd")
        record(tape, spanned(name, backward_fn))

    def count_image_rows(head, tape, x, *args, **kwargs):
        tracer.event("encoders.image.rows", x.shape[0])
        tracer.event("encoders.image.distinct_rows", _distinct_rows(x.data))

    metrics_record = harness.MetricsRecord

    def epoch_record(*args, **kwargs):
        record_ = metrics_record(*args, **kwargs)
        if record_.epoch is not None:
            tracer.event("harness.epoch_end", record_.wall_time)
        return record_

    try:
        patch(diffnet.Tape, "record", traced_record)
        for op in DIFFNET_OPS:
            wrap(diffnet, op, f"diffnet.{op}.fwd")
        wrap(diffnet.Adam, "step", "diffnet.adam")
        wrap(encoders, "vqc_batched_forward", "vqc.forward",
             lambda X, params: tracer.event("vqc.forward_rows", len(X)))
        wrap(encoders, "vqc_batched_vjp", "vqc.vjp",
             lambda X, params, upstream: tracer.event("vqc.vjp_rows", len(X)))
        wrap(encoders, "quantum_layer", "encoders.quantum_layer")
        wrap(encoders.EegConvEncoder, "forward", "encoders.eeg.fwd")
        wrap(encoders.ImageEmbedHead, "forward", "encoders.image.fwd", count_image_rows)
        wrap(harness, "clip_logits_op", "contrastive.clip_logits.fwd")
        wrap(harness, "clip_logits", "contrastive.clip_logits.fwd")
        wrap(harness, "clip_loss_op", "contrastive.clip_loss.fwd")
        wrap(harness, "ContrastiveBatch", "contrastive.batch_check")
        wrap(harness, "topk_accuracy", "contrastive.topk")
        wrap(data.DatasetManifest, "load_arrays", "data.load_arrays")
        wrap(harness, "save_params", "qtns.save_params")
        wrap(harness, "load_params", "qtns.load_params")
        patch(harness, "MetricsRecord", epoch_record)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def metric_of(span_name: str) -> str:
    """Per-layer metric that a span's self time is reported under."""
    if span_name in UNIT_ROOTS:
        return "harness.step_self_s"
    if span_name.startswith("encoders.quantum_layer"):
        return "encoders.quantum_layer.self_s"
    if span_name == "data.load_arrays":
        return "data.load_arrays_per_op_s"
    return span_name + "_s"


def add_epoch_roots(tracer: Tracer) -> list[int]:
    """Turn each epoch-end event into a root span holding that epoch's spans.

    ``harness.train`` times an epoch itself; the span ends when the epoch's
    record is made and starts its wall time earlier. Top-level spans whose
    midpoint falls inside become its children.
    """
    roots = [tracer.add_closed("harness.epoch", t - wall, t)
             for t, name, wall in tracer.events if name == "harness.epoch_end"]
    starts = np.array([tracer.starts[r] for r in roots])
    ends = np.array([tracer.ends[r] for r in roots])
    for i, parent in enumerate(tracer.parents):
        if parent != -1 or tracer.names[i] in UNIT_ROOTS:
            continue
        middle = 0.5 * (tracer.starts[i] + tracer.ends[i])
        k = np.searchsorted(starts, middle, side="right") - 1
        if k >= 0 and middle <= ends[k]:
            tracer.parents[i] = roots[k]
    return roots


def self_times(tracer: Tracer) -> np.ndarray:
    durations = np.array(tracer.ends) - np.array(tracer.starts)
    own = durations.copy()
    parents = np.array(tracer.parents)
    has_parent = parents >= 0
    np.subtract.at(own, parents[has_parent], durations[has_parent])
    return own


def root_of(tracer: Tracer) -> list[int]:
    roots = []
    for i, parent in enumerate(tracer.parents):
        # Recorded spans open after their parent; epoch roots are added last.
        if parent == -1:
            roots.append(i)
        elif parent > i:
            roots.append(parent)
        else:
            roots.append(roots[parent])
    return roots


def per_unit(tracer: Tracer, units: list[int], n_ops: int) -> dict[str, float]:
    """Self time per layer and event counts inside ``units``, per operation."""
    own = self_times(tracer)
    unit_set = set(units)
    totals: dict[str, float] = {}
    for i, root in enumerate(root_of(tracer)):
        if root in unit_set:
            name = metric_of(tracer.names[i])
            totals[name] = totals.get(name, 0.0) + float(own[i])
    windows = sorted((tracer.starts[u], tracer.ends[u]) for u in units)
    starts = np.array([w[0] for w in windows])
    ends = np.array([w[1] for w in windows])
    for t, name, value in tracer.events:
        k = np.searchsorted(starts, t, side="right") - 1
        if k >= 0 and t <= ends[k]:
            totals[name] = totals.get(name, 0.0) + value
    return {name: value / n_ops for name, value in totals.items()}


def per_setup(tracer: Tracer) -> dict[str, float]:
    """Median over set-ups of each set-up layer's self time."""
    own = self_times(tracer)
    roots = root_of(tracer)
    setups = [i for i, name in enumerate(tracer.names) if name == SETUP_ROOT]
    sums = {setup: dict.fromkeys(SETUP_METRICS, 0.0) for setup in setups}
    for i, root in enumerate(roots):
        name = tracer.names[i] + "_s"
        if root in sums and name in SETUP_METRICS:
            sums[root][name] += float(own[i])
    return {name: float(np.median([sums[s][name] for s in setups])) for name in SETUP_METRICS}
