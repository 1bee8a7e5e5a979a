"""Hybrid quantum-classical contrastive learning for EEG/image retrieval.

A strided statevector simulator drives a variational quantum circuit with
exact parameter-shift gradients; a small tape-based autodiff engine trains
the classical convolutional front ends; a symmetric contrastive objective
aligns the two modalities for zero-shot retrieval over held-out classes.
"""

from .contrastive import (
    MAX_LOG_TEMPERATURE,
    ContrastiveBatch,
    clip_logits,
    clip_loss,
    topk_accuracy,
)
from .data import DatasetManifest, generate_dataset
from .diffnet import Adam, AdamState, Tape, Tensor, adam_step
from .encoders import (
    EegConvEncoder,
    EegEncoderConfig,
    ImageEmbedHead,
    ImageHeadConfig,
    quantum_layer,
)
from .errors import (
    ConfigurationError,
    NumericError,
    ShapeError,
    TensorFormatError,
    ZeroShotOverlapError,
)
from .gradcheck import CheckResult, central_difference, check_gradients, run_all_checks
from .harness import (
    MetricsRecord,
    RetrievalModel,
    RunConfig,
    evaluate_zero_shot,
    read_metrics,
    run_protocol,
    train,
    write_metrics,
)
from .qtns import load_params, load_tensor_file, save_params, save_tensor_file
from .statevector import (
    GateOp,
    StateVector,
    cnot,
    dense_unitary_oracle,
    gate_matrix,
    new_zero_state,
    ry,
    ry_matrix,
)
from .vqc import (
    QuantumLayerParams,
    VqcGradient,
    vqc_batched_forward,
    vqc_batched_vjp,
    vqc_forward,
    vqc_parameter_shift_grad,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "AdamState",
    "CheckResult",
    "ConfigurationError",
    "ContrastiveBatch",
    "DatasetManifest",
    "EegConvEncoder",
    "EegEncoderConfig",
    "GateOp",
    "ImageEmbedHead",
    "ImageHeadConfig",
    "MAX_LOG_TEMPERATURE",
    "MetricsRecord",
    "NumericError",
    "QuantumLayerParams",
    "RetrievalModel",
    "RunConfig",
    "ShapeError",
    "StateVector",
    "Tape",
    "Tensor",
    "TensorFormatError",
    "VqcGradient",
    "ZeroShotOverlapError",
    "adam_step",
    "central_difference",
    "check_gradients",
    "clip_logits",
    "clip_loss",
    "cnot",
    "dense_unitary_oracle",
    "evaluate_zero_shot",
    "gate_matrix",
    "generate_dataset",
    "load_params",
    "load_tensor_file",
    "new_zero_state",
    "quantum_layer",
    "read_metrics",
    "ry",
    "ry_matrix",
    "run_all_checks",
    "run_protocol",
    "save_params",
    "save_tensor_file",
    "topk_accuracy",
    "train",
    "vqc_batched_forward",
    "vqc_batched_vjp",
    "vqc_forward",
    "vqc_parameter_shift_grad",
    "write_metrics",
]
