"""Configuration-driven composition of compression algorithms.

A config names an ordered list of algorithm sections; ``ALGORITHMS`` maps
each section's algorithm to the controller class that its spec builds on
the model graph.  The training loop talks only to the controllers: the
trainables their hooks declare (``extra_params``), summed penalty loss,
per-batch and per-epoch schedule advancement, and statistics.  Export
needs no controller: ``export_graph`` works from the hooks alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .base import CompressionController, ConfigError, Spec, load_spec, require, setting
from .binarization import FAMILY as BINARIZATION, BinarizationController
from .graph import ModelGraph
from .pruning import (
    FAMILY as PRUNING, PruningController, installed_filter_masks, propagate_pruning_masks, strip_pruned_filters,
)
from .quantization import FakeQuantizer, QuantizationController
from .serialize import SerializationError, save_model
from .sparsity import MagnitudeSparsityController, RBSparsityController
from .tensor import Tensor
from .util import COUNT, one_of

ALGORITHMS: Dict[str, type] = {
    c.name: c for c in (QuantizationController, BinarizationController, MagnitudeSparsityController,
                        RBSparsityController, PruningController)
}
SPARSITY = (MagnitudeSparsityController.name, RBSparsityController.name)
ALGORITHM = one_of(sorted(ALGORITHMS))  # the kind of a section's ``algorithm``


@dataclass
class ConfigSpec(Spec):
    """Top level of a config; each ``compression`` entry is one algorithm section."""

    seed: int = setting(COUNT, 0)
    input_shape: Optional[Tuple[int, ...]] = None
    compression: List[dict] = field(default_factory=list)


def _parse_config(config) -> Tuple[ConfigSpec, List[Tuple[type, Spec]]]:
    """The top-level spec and, per section, its controller class and its spec."""
    if isinstance(config, dict) and isinstance(config.get("compression"), dict):
        config = {**config, "compression": [config["compression"]]}
    spec = load_spec(ConfigSpec, config)
    algorithms = []
    seen = set()
    for i, section in enumerate(spec.compression):
        path = f"compression[{i}]"
        algo = section.get("algorithm")
        require(ALGORITHM, algo, f"{path}.algorithm")
        if algo in seen:
            raise ConfigError(f"duplicate {algo!r} section at {path}")
        seen.add(algo)
        cls = ALGORITHMS[algo]
        options = {k: v for k, v in section.items() if k != "algorithm"}
        algorithms.append((cls, load_spec(cls.spec_class, options, path)))
    for other in ("quantization", PRUNING):
        if {BINARIZATION, other} <= seen:
            raise ConfigError(f"binarization and {other} cannot be combined")
    return spec, algorithms


def validate_config(config: dict) -> dict:
    """Check the config against the section specs; returns a normalized copy.

    Normalization: ``compression`` always a list.  Unknown keys and values
    of the wrong type are rejected with their full path; each algorithm
    family may appear once; binarization cannot be combined with
    quantization, nor with filter pruning, whose pruned channels a
    binarizer does not keep at zero.
    """
    spec, _ = _parse_config(config)
    return {**config, "compression": [dict(s) for s in spec.compression]}


def _normalize_batches(init_data) -> List[Tuple[np.ndarray, Optional[np.ndarray]]]:
    batches = []
    for item in init_data or []:
        if isinstance(item, tuple):
            x, y = item
            batches.append((np.asarray(x, dtype=np.float64), np.asarray(y)))
        else:
            batches.append((np.asarray(item, dtype=np.float64), None))
    return batches


def create_compressed_model(
    graph: ModelGraph, config: dict, init_data: Optional[Iterable] = None
) -> Tuple[List[CompressionController], ModelGraph]:
    """Wrap a copy of the graph with every configured algorithm.

    ``init_data`` is a stream of input batches (optionally (x, labels)
    tuples).  Once every algorithm's hooks are in, each controller gets
    them for its own data-driven set-up (``initialize``): quantization
    sets its ranges and, when configured, runs the second-order
    mixed-precision bit search, which needs labels.
    """
    spec, algorithms = _parse_config(config)
    g = graph.copy()
    if spec.input_shape is not None and spec.input_shape != tuple(g.input_shape):
        raise ConfigError(
            f"config input_shape {spec.input_shape} != model input shape {tuple(g.input_shape)}"
        )
    batches = _normalize_batches(init_data)
    for x, _ in batches:
        if x.shape[1:] != tuple(g.input_shape):
            raise ConfigError(
                f"init batch shape {x.shape[1:]} does not match model input {tuple(g.input_shape)}"
            )

    controllers: List[CompressionController] = [cls(g, s) for cls, s in algorithms]
    for ctrl in controllers:
        ctrl.initialize(batches, spec.seed)
    return controllers, g


def total_compression_loss(controllers: Sequence[CompressionController]) -> Tensor:
    total = Tensor(0.0)
    for ctrl in controllers:
        total = T.add(total, ctrl.loss())
    return total


def scheduler_step(controllers: Sequence[CompressionController]):
    for ctrl in controllers:
        ctrl.scheduler.step()


def scheduler_epoch_step(controllers: Sequence[CompressionController], metric=None):
    for ctrl in controllers:
        ctrl.scheduler.epoch_step(metric=metric)


def export_model(
    controllers: Sequence[CompressionController], graph: ModelGraph, path
) -> ModelGraph:
    """Same as ``export_graph(graph, path)``; the controllers are not needed."""
    return export_graph(graph, path)


def export_graph(graph: ModelGraph, path) -> ModelGraph:
    """Write the deployable model: masks baked, filters stripped, quantizers kept.

    Works from the hook families present, so a graph restored from a
    checkpoint exports the same bytes as the live graph: sparsity masks and
    gates are baked into weights, pruning masks are stripped physically,
    quantizer and binarizer hooks ride along in the file.  Returns the
    exported graph; the file round-trips through load_model.
    """
    g = graph.copy()
    for h in g.hooks:
        if isinstance(h.transform, FakeQuantizer) and not h.transform.initialized:
            raise SerializationError(f"quantizer on {h.node_id!r} is uninitialized; cannot export")
    if {BINARIZATION, PRUNING} <= {h.family for h in g.hooks}:  # a binarized pruned channel is not zero
        raise ValueError("cannot export: binarization and filter_pruning hooks cannot be combined")

    for h in g.hooks:
        if h.family in SPARSITY:
            p = g.nodes[h.node_id].params[h.param_name]
            p.data = p.data * h.transform.eval_mask()
    g.hooks = [h for h in g.hooks if h.family not in SPARSITY]
    if any(h.family == PRUNING for h in g.hooks):
        g = strip_pruned_filters(g, propagate_pruning_masks(g, installed_filter_masks(g)))
    save_model(g, path)
    return g
