"""Hybrid quantum-classical contrastive learning for EEG/image retrieval.

A fused statevector kernel runs a variational quantum circuit with exact
gradients (``vqc.vqc_batched_vjp``); a small tape-based autodiff engine trains
the classical convolutional front ends; a symmetric contrastive objective
aligns the two modalities for zero-shot retrieval over held-out classes.

The package exports what a run needs: configs, data, training, evaluation,
metrics, parameter files, errors and the gradient audit.  Circuits, tape
ops and encoders are imported from their submodules (``vqc``, ``diffnet``,
``encoders``, ``contrastive``).  The reference oracles that audit the circuit
live in ``oracles``, which nothing in a run imports.
"""

from .contrastive import clip_logits, clip_loss, topk_accuracy
from .data import DatasetManifest, generate_dataset
from .errors import (
    ConfigurationError,
    NumericError,
    ShapeError,
    TensorFormatError,
)
from .gradcheck import CheckResult, run_all_checks
from .harness import (
    MetricsRecord,
    RetrievalModel,
    RunConfig,
    evaluate_zero_shot,
    run_protocol,
    train,
    write_metrics,
)
from .qtns import load_params, load_tensor_file, save_params, save_tensor_file

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConfigurationError",
    "DatasetManifest",
    "MetricsRecord",
    "NumericError",
    "RetrievalModel",
    "RunConfig",
    "ShapeError",
    "TensorFormatError",
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
