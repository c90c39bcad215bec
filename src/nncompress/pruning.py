"""Structured pruning of convolution output filters.

Whole filters are zeroed during training through weight/bias mask hooks,
then physically removed at export.  Removal is only legal where every
downstream consumer can absorb the smaller channel count, so channel masks
are propagated through the graph first and convolutions whose masks reach
an unwilling consumer (or the network output) fall back to dense.
"""

from __future__ import annotations

import fnmatch
import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .base import CompressionBuilder, CompressionController, SpecError, check_rule
from .graph import WEIGHTED_KINDS, Hook, HookPosition, INPUT_ID, ModelGraph
from .sparsity import ParamMask

FAMILY = "filter_pruning"
CRITERIA = ("l1", "l2", "geometric_median")
PASSTHROUGH_KINDS = ("BatchNorm", "ReLU", "MaxPool2D")


def filter_importance(weight: np.ndarray, criterion: str) -> np.ndarray:
    """Per-filter importance scores; lower scores are pruned first."""
    w = np.asarray(weight, dtype=np.float64)
    n = w.shape[0]
    flat = w.reshape(n, -1)
    if criterion == "l1":
        return np.abs(flat).sum(axis=1)
    if criterion == "l2":
        return np.sqrt((flat * flat).sum(axis=1))
    if criterion == "geometric_median":
        if n < 2:
            raise ValueError("geometric_median needs at least 2 filters")
        dists = np.sqrt(((flat[:, None, :] - flat[None, :, :]) ** 2).sum(axis=2))
        return dists.sum(axis=1)
    raise ValueError(f"unknown importance criterion {criterion!r}")


def filter_mask(scores: np.ndarray, rate: float) -> np.ndarray:
    """Keep-mask zeroing the floor(rate * n) lowest scores, ties to lower index."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"pruning rate must be in [0, 1), got {rate}")
    n = len(scores)
    # nudge past float error so e.g. 0.3 * 10 floors to 3, not 2
    k = int(math.floor(rate * n + 1e-9))
    keep = np.ones(n, dtype=bool)
    if k:
        order = np.argsort(scores, kind="stable")
        keep[order[:k]] = False
    return keep


def pruning_rate_at_epoch(
    mode: str, epoch: int, target: float, warmup_epochs: int = 0, epochs: int = 5
) -> Tuple[float, bool]:
    """Scheduled rate and whether the pruned subset is frozen from here on.

    ``baseline`` jumps to the target right after warmup and freezes;
    ``exponential`` ramps from zero over ``epochs`` and freezes only
    once the target is reached.  The subset is re-selected at every rate
    change until frozen.
    """
    if not 0.0 <= target < 1.0:
        raise ValueError(f"target pruning rate must be in [0, 1), got {target}")
    if mode == "baseline":
        if epoch < warmup_epochs:
            return 0.0, False
        return target, True
    if mode == "exponential":
        if epoch < warmup_epochs:
            return 0.0, False
        t = epoch - warmup_epochs
        if epochs <= 0 or t >= epochs:
            return target, True
        return target - target * math.exp(-5.0 * t / epochs), False
    raise ValueError(f"unknown pruning scheduler mode {mode!r}")


# -- mask propagation ------------------------------------------------------


@dataclass
class PruningMaskMap:
    """Channel keep-masks along every edge after propagation."""

    output_masks: Dict[str, np.ndarray]
    input_masks: Dict[str, List[np.ndarray]]
    verdicts: Dict[str, bool] = field(default_factory=dict)


def propagate_pruning_masks(graph: ModelGraph, conv_masks: Dict[str, np.ndarray]) -> PruningMaskMap:
    """Push per-conv output masks through the graph.

    Rules: a conv consumes its input mask (weights lose input channels) and
    emits its own mask; normalization, activation, and pooling pass masks
    through; Flatten expands a channel mask to feature positions; a fully
    connected layer absorbs any mask by column-pruning.  An Add joint
    accepts only identical masks on both inputs; on a mismatch, pruning is
    cancelled for every conv feeding the joint.  A mask reaching the graph
    output is likewise cancelled.  Verdict per conv: whether its mask
    survived.
    """
    for cid, mask in conv_masks.items():
        node = graph.nodes.get(cid)
        if node is None or node.kind != "Conv2D":
            raise ValueError(f"mask given for {cid!r}, which is not a Conv2D node")
        if len(mask) != node.attrs["out_channels"]:
            raise ValueError(
                f"mask length {len(mask)} != out_channels {node.attrs['out_channels']} on {cid!r}"
            )
    shapes = graph.infer_shapes()
    cancelled: set = set()
    while True:
        out_masks: Dict[str, np.ndarray] = {
            INPUT_ID: np.ones(shapes[INPUT_ID][0], dtype=bool)
        }
        origins: Dict[str, frozenset] = {INPUT_ID: frozenset()}
        in_masks: Dict[str, List[np.ndarray]] = {}
        conflict_origins = None
        for nid, node in graph.nodes.items():
            ins = [out_masks[ref] for ref in node.inputs]
            in_masks[nid] = ins
            in_orig = [origins[ref] for ref in node.inputs]
            if node.kind == "Conv2D":
                if nid in conv_masks and nid not in cancelled:
                    out_masks[nid] = np.asarray(conv_masks[nid], dtype=bool)
                    origins[nid] = frozenset([nid])
                else:
                    out_masks[nid] = np.ones(node.attrs["out_channels"], dtype=bool)
                    origins[nid] = frozenset()
            elif node.kind == "FullyConnected":
                out_masks[nid] = np.ones(node.attrs["out_features"], dtype=bool)
                origins[nid] = frozenset()
            elif node.kind in PASSTHROUGH_KINDS:
                out_masks[nid] = ins[0]
                origins[nid] = in_orig[0]
            elif node.kind == "Flatten":
                src_shape = shapes[node.inputs[0]]
                if len(src_shape) == 3:
                    out_masks[nid] = np.repeat(ins[0], src_shape[1] * src_shape[2])
                else:
                    out_masks[nid] = ins[0]
                origins[nid] = in_orig[0]
            elif node.kind == "Add":
                if np.array_equal(ins[0], ins[1]):
                    out_masks[nid] = ins[0]
                    origins[nid] = in_orig[0] | in_orig[1]
                else:
                    conflict_origins = in_orig[0] | in_orig[1]
                    break
            else:
                raise ValueError(f"no mask propagation rule for kind {node.kind!r}")
        if conflict_origins is None:
            out_id = graph.output_id()
            if not out_masks[out_id].all():
                conflict_origins = origins[out_id]
        if conflict_origins is None:
            verdicts = {cid: cid not in cancelled for cid in conv_masks}
            return PruningMaskMap(out_masks, in_masks, verdicts)
        cancelled |= conflict_origins


def apply_filter_masks(graph: ModelGraph, mask_map: PruningMaskMap) -> Dict[str, Dict[str, ParamMask]]:
    """Install weight/bias mask hooks realizing a propagated mask map.

    Convolutions get their output masks on weight and bias; batch-norm
    layers get their incoming channel mask on gamma and beta so a masked
    channel stays exactly zero through normalization.
    """
    hooks: Dict[str, Dict[str, ParamMask]] = {}
    for nid, node in graph.nodes.items():
        if (node.kind == "Conv2D" and nid in mask_map.verdicts) or node.kind == "BatchNorm":
            hooks[nid] = {}
            for pname in ("weight", "bias") if node.kind == "Conv2D" else ("gamma", "beta"):
                hooks[nid][pname] = ParamMask(np.ones(0))  # filled in by write_filter_masks
                graph.insert_hook(Hook(nid, HookPosition.PRE_PARAM, FAMILY, hooks[nid][pname], param_name=pname))
    write_filter_masks(graph, hooks, mask_map)
    return hooks


def write_filter_masks(graph: ModelGraph, hooks: Dict[str, Dict[str, ParamMask]], mask_map: PruningMaskMap):
    """Set installed filter-mask hooks to the channel masks of a propagated mask map."""
    for nid, parts in hooks.items():
        if graph.nodes[nid].kind == "Conv2D":
            mask = mask_map.output_masks[nid].astype(np.float64)
            parts["weight"].set_mask(mask.reshape(-1, 1, 1, 1))
            parts["bias"].set_mask(mask)
        else:
            mask = mask_map.input_masks[nid][0].astype(np.float64)
            parts["gamma"].set_mask(mask)
            parts["beta"].set_mask(mask)


def installed_filter_masks(graph: ModelGraph) -> Dict[str, np.ndarray]:
    """Per-convolution keep-masks read back from the installed filter-mask hooks."""
    return {
        h.node_id: h.transform.mask.data.reshape(h.transform.mask.shape[0], -1)[:, 0] != 0
        for h in graph.hooks
        if h.family == FAMILY and h.param_name == "weight"
    }


def strip_pruned_filters(graph: ModelGraph, mask_map: PruningMaskMap) -> ModelGraph:
    """Physically remove masked channels; mutates and returns the graph.

    The realized mask hooks are dropped, weight tensors sliced along the
    masked axes, channel attrs updated, and every other hook on a sliced
    convolution or fully connected layer told which channels survive
    (``select_channels``).  Stripping must not change the graph's output,
    so a mask that would reach the output is rejected.
    """
    out_id = graph.output_id()
    final = mask_map.output_masks.get(out_id)
    if final is not None and not np.asarray(final).all():
        raise ValueError(f"cannot strip: output node {out_id!r} would lose channels")
    for nid, node in graph.nodes.items():
        ins = mask_map.input_masks.get(nid)
        if ins is None:
            continue
        if node.kind == "Add" and not np.array_equal(ins[0], ins[1]):
            raise ValueError(f"cannot strip: Add node {nid!r} has mismatched input masks")

    graph.hooks = [h for h in graph.hooks if h.family != FAMILY]
    for nid, node in graph.nodes.items():
        if node.kind == "BatchNorm":
            keep = np.asarray(mask_map.input_masks[nid][0], dtype=bool)
            for p in node.params.values():
                p.data = p.data[keep]
            node.attrs["num_features"] = int(keep.sum())
        if node.kind not in WEIGHTED_KINDS:
            continue
        keep_out = np.asarray(mask_map.output_masks[nid], dtype=bool)
        keep_in = np.asarray(mask_map.input_masks[nid][0], dtype=bool)
        w = node.params["weight"]
        if node.kind == "Conv2D":
            if w.shape[0] != len(keep_out) or w.shape[1] != len(keep_in):
                raise ValueError(f"mask shapes do not match conv {nid!r} weight {w.shape}")
            w.data = w.data[keep_out][:, keep_in]
            node.params["bias"].data = node.params["bias"].data[keep_out]
            node.attrs["out_channels"] = int(keep_out.sum())
            node.attrs["in_channels"] = int(keep_in.sum())
        else:
            if w.shape[1] != len(keep_in):
                raise ValueError(f"mask length does not match fc {nid!r} columns")
            w.data = w.data[:, keep_in]
            node.attrs["in_features"] = int(keep_in.sum())
        for h in graph.hooks:
            if h.node_id == nid:
                h.transform.select_channels(keep_out, keep_in)

    graph._validate()  # checks the sliced graph's shapes and parameters end to end
    return graph


# -- controller ------------------------------------------------------------


@dataclass
class PruningSchedulerSpec:
    mode: str = "baseline"
    warmup_epochs: int = 0
    epochs: int = 5

    def __post_init__(self):
        check_rule("mode", pruning_rate_at_epoch, self.mode, 0, 0.0)


@dataclass
class FilterPruningSpec:
    pruning_rate: float
    criterion: str = "l2"
    scheduler: PruningSchedulerSpec = field(default_factory=PruningSchedulerSpec)
    exclude: List[str] = field(default_factory=list)

    def __post_init__(self):
        check_rule("pruning_rate", pruning_rate_at_epoch, "baseline", 0, self.pruning_rate)
        if self.criterion not in CRITERIA:
            raise SpecError("criterion", f"must be one of {list(CRITERIA)}, got {self.criterion!r}")


class PruningController(CompressionController):
    name = FAMILY

    def __init__(self, graph: ModelGraph, hooks, mask_map: PruningMaskMap, spec: FilterPruningSpec):
        super().__init__(graph)
        self.prunable = list(mask_map.verdicts)
        self.hooks = hooks
        self.conv_masks = {nid: mask_map.output_masks[nid] for nid in self.prunable}
        self.mask_map = mask_map
        self.spec = spec

    def _schedule(self, epoch: int) -> Tuple[float, bool]:
        """(rate, frozen) at ``epoch``; (0.0, False) before the first epoch."""
        if epoch < 0:
            return 0.0, False
        s = self.spec.scheduler
        return pruning_rate_at_epoch(s.mode, epoch, self.spec.pruning_rate, s.warmup_epochs, s.epochs)

    # derived from the scheduler's epoch, so a restored scheduler state restores both
    rate = property(lambda self: self._schedule(self.scheduler.epoch)[0])
    frozen = property(lambda self: self._schedule(self.scheduler.epoch)[1])

    def on_epoch(self, epoch, metrics):
        before, frozen = self._schedule(epoch - 1)
        rate = self._schedule(epoch)[0]
        if not frozen and rate != before:  # re-select the pruned subset from the current weights
            self.conv_masks = self.plan_masks(rate)
            self.mask_map = propagate_pruning_masks(self.graph, self.conv_masks)
            write_filter_masks(self.graph, self.hooks, self.mask_map)

    def plan_masks(self, rate: float) -> Dict[str, np.ndarray]:
        masks = {}
        for nid in self.prunable:
            w = self.graph.nodes[nid].params["weight"].data
            try:
                scores = filter_importance(w, self.spec.criterion)
            except ValueError as err:
                warnings.warn(f"skipping {nid!r}: {err}")
                masks[nid] = np.ones(w.shape[0], dtype=bool)
                continue
            masks[nid] = filter_mask(scores, rate)
        return masks

    def statistics(self) -> dict:
        per_layer = {}
        for nid in self.prunable:
            keep = self.mask_map.output_masks[nid]
            per_layer[nid] = {"pruned": int((~keep).sum()), "total": int(len(keep))}
        return {
            "rate": self.rate,
            "frozen": self.frozen,
            "criterion": self.spec.criterion,
            "per_layer": per_layer,
            "prunable": {nid: self.mask_map.verdicts.get(nid, False) for nid in self.prunable},
        }


class PruningBuilder(CompressionBuilder):
    name = FAMILY
    spec_class = FilterPruningSpec

    def apply_to(self, graph: ModelGraph) -> PruningController:
        exclude = self.spec.exclude
        for pattern in exclude:
            if not any(fnmatch.fnmatch(nid, pattern) for nid in graph.nodes):
                warnings.warn(f"exclude pattern {pattern!r} matches no node")
        prunable = [
            nid
            for nid, node in graph.nodes.items()
            if node.kind == "Conv2D" and not any(fnmatch.fnmatch(nid, p) for p in exclude)
        ]
        masks = {nid: np.ones(graph.nodes[nid].attrs["out_channels"], dtype=bool) for nid in prunable}
        mask_map = propagate_pruning_masks(graph, masks)
        return PruningController(graph, apply_filter_masks(graph, mask_map), mask_map, self.spec)
