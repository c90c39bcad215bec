"""Neural network compression on a numpy autodiff engine.

Quantization-aware training, binarization, magnitude and stochastic-gate
sparsity, and structured filter pruning, composed through one controller
class per algorithm over an explicit model graph.
"""

from .api import (
    ConfigError,
    create_compressed_model,
    export_graph,
    export_model,
    scheduler_epoch_step,
    scheduler_step,
    total_compression_loss,
    validate_config,
)
from .data import iter_batches, make_dataset, train_val_split
from .graph import ExecContext, GraphError, Hook, HookPosition, INPUT_ID, ModelGraph, NodeSpec
from .models import build_model
from .serialize import (
    SerializationError,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from .tensor import ShapeError, Tensor, grad, no_grad
from .train import SGD, NumericError, evaluate, train_model

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ExecContext",
    "GraphError",
    "Hook",
    "HookPosition",
    "INPUT_ID",
    "ModelGraph",
    "NodeSpec",
    "NumericError",
    "SGD",
    "SerializationError",
    "ShapeError",
    "Tensor",
    "build_model",
    "create_compressed_model",
    "evaluate",
    "export_graph",
    "export_model",
    "grad",
    "iter_batches",
    "load_checkpoint",
    "load_model",
    "make_dataset",
    "no_grad",
    "save_checkpoint",
    "save_model",
    "scheduler_epoch_step",
    "scheduler_step",
    "total_compression_loss",
    "train_model",
    "train_val_split",
    "validate_config",
]
