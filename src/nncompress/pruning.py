"""Structured pruning of convolution output filters.

Whole filters are zeroed during training through weight/bias mask hooks,
then physically removed at export.  Removal is only legal where every
downstream consumer can absorb the smaller channel count, so channel masks
are propagated through the graph first and convolutions whose masks reach
an unwilling consumer (or the network output) fall back to dense.  How
masks pass each node, and which parameter axes they slice, is the node
kind's channel rule and parameter table, declared in ``graph._KINDS``.  A
hook's tensors line up with the leading axes of the value the hook wraps, so
the same table slices them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .base import CompressionController, Spec, match_layers, setting
from .graph import _KINDS, Hook, HookPosition, INPUT_ID, ModelGraph
from .sparsity import ParamMask
from .util import COUNT, FRACTION, check, one_of

FAMILY = "filter_pruning"
CRITERION = one_of(("l1", "l2", "geometric_median"))
SCHEDULER_MODE = one_of(("baseline", "exponential"))


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
    check(SCHEDULER_MODE, mode, "pruning scheduler mode")
    if epoch < warmup_epochs:
        return 0.0, False
    t = epoch - warmup_epochs
    if mode == "baseline" or epochs <= 0 or t >= epochs:
        return target, True
    return target - target * math.exp(-5.0 * t / epochs), False


# -- mask propagation ------------------------------------------------------


@dataclass
class PruningMaskMap:
    """Channel keep-masks along every edge after propagation."""

    output_masks: Dict[str, np.ndarray]
    input_masks: Dict[str, List[np.ndarray]]
    verdicts: Dict[str, bool] = field(default_factory=dict)


def propagate_pruning_masks(graph: ModelGraph, conv_masks: Dict[str, np.ndarray]) -> PruningMaskMap:
    """Push per-conv output masks through the graph, by each node kind's
    channel rule (``graph._KINDS``).

    A node whose weights set its channels consumes its input mask (its
    weights lose input channels) and emits its own: a given conv mask, or
    all ones.  Normalization, activation and pooling pass masks through;
    Flatten repeats each channel's entry over its positions.  An Add joint
    accepts only identical masks on both inputs; on a mismatch, pruning is
    cancelled for every masked conv among the joint's producers
    (``graph.producers()``).  A mask reaching the graph output is likewise
    cancelled, for the output's producers.  Verdict per conv: whether its
    mask survived.
    """
    for cid, mask in conv_masks.items():
        node = graph.nodes.get(cid)
        if node is None or node.kind != "Conv2D":
            raise ValueError(f"mask given for {cid!r}, which is not a Conv2D node")
        if len(mask) != node.attrs["out_channels"]:
            raise ValueError(
                f"mask length {len(mask)} != out_channels {node.attrs['out_channels']} on {cid!r}"
            )
    shapes, producers = graph.infer_shapes(), graph.producers()
    cancelled: set = set()
    while True:
        out_masks: Dict[str, np.ndarray] = {INPUT_ID: np.ones(shapes[INPUT_ID][0], dtype=bool)}
        in_masks: Dict[str, List[np.ndarray]] = {}
        conflict = None
        for nid, node in graph.nodes.items():
            ins = in_masks[nid] = [out_masks[ref] for ref in node.inputs]
            channels = _KINDS[node.kind].channels
            if channels.rule == "weights":
                own = nid in conv_masks and nid not in cancelled
                out_masks[nid] = np.asarray(conv_masks[nid] if own else np.ones(node.attrs[channels.out]), dtype=bool)
            elif channels.rule == "join" and not all(np.array_equal(ins[0], m) for m in ins[1:]):
                conflict = nid
                break
            elif channels.rule == "repeat":
                out_masks[nid] = np.repeat(ins[0], math.prod(shapes[node.inputs[0]][1:]))
            else:
                out_masks[nid] = ins[0]
        if conflict is None:
            out_id = graph.output_id()
            if not out_masks[out_id].all():
                conflict = out_id
        if conflict is None:
            verdicts = {cid: cid not in cancelled for cid in conv_masks}
            return PruningMaskMap(out_masks, in_masks, verdicts)
        cancelled |= producers[conflict] & conv_masks.keys()


def apply_filter_masks(graph: ModelGraph, mask_map: PruningMaskMap) -> Dict[str, Dict[str, ParamMask]]:
    """Install weight/bias mask hooks realizing a propagated mask map.

    Each pruned convolution, and each node that passes channels through,
    gets its output mask on the parameters its channel rule names as
    masked: a convolution's weight and bias, a BatchNorm's gamma and beta,
    so a masked channel stays exactly zero through normalization.
    """
    hooks: Dict[str, Dict[str, ParamMask]] = {}
    for nid, node in graph.nodes.items():
        channels = _KINDS[node.kind].channels
        if nid in mask_map.verdicts or channels.rule == "pass":
            for pname in channels.masked:
                mask = hooks.setdefault(nid, {})[pname] = ParamMask(np.ones(0))  # filled in by write_filter_masks
                graph.insert_hook(Hook(nid, HookPosition.PRE_PARAM, FAMILY, mask, param_name=pname))
    write_filter_masks(graph, hooks, mask_map)
    return hooks


def write_filter_masks(graph: ModelGraph, hooks: Dict[str, Dict[str, ParamMask]], mask_map: PruningMaskMap):
    """Set installed filter-mask hooks to the channel masks of a propagated mask map."""
    for nid, parts in hooks.items():
        for pname, part in parts.items():
            part.set_mask(_filter_mask_array(graph, mask_map, nid, pname))


def _filter_mask_array(graph: ModelGraph, mask_map: PruningMaskMap, nid: str, pname: str) -> np.ndarray:
    """The 0/1 mask that the map sets on a node's parameter: one entry per output channel."""
    ndim = graph.nodes[nid].params[pname].ndim
    return mask_map.output_masks[nid].astype(np.float64).reshape((-1,) + (1,) * (ndim - 1))


def installed_filter_masks(graph: ModelGraph) -> Dict[str, np.ndarray]:
    """Per-convolution keep-masks read back from the installed filter-mask hooks."""
    return {
        h.node_id: h.transform.mask.data.reshape(h.transform.mask.shape[0], -1)[:, 0] != 0
        for h in graph.hooks
        if h.family == FAMILY and h.param_name == "weight" and isinstance(h.transform, ParamMask)
    }


def strip_pruned_filters(graph: ModelGraph, mask_map: PruningMaskMap) -> ModelGraph:
    """Physically remove masked channels; mutates and returns the graph.

    The mask hooks are dropped, so each must be what ``write_filter_masks``
    sets from the map.  Each axis that a node kind's channel attrs size is
    sliced by the output or input mask, in the node's parameters and in its
    hooks' tensors alike, and those attrs updated.  Stripping must not
    change the graph's output, so a mask that would reach the output is
    rejected.
    """
    out_id = graph.output_id()
    final = mask_map.output_masks.get(out_id)
    if final is not None and not np.asarray(final).all():
        raise ValueError(f"cannot strip: output node {out_id!r} would lose channels")
    for nid, node in graph.nodes.items():
        ins = mask_map.input_masks.get(nid)
        if ins is None:
            continue
        if _KINDS[node.kind].channels.rule == "join" and not all(np.array_equal(ins[0], m) for m in ins[1:]):
            raise ValueError(f"cannot strip: {node.kind} node {nid!r} has mismatched input masks")

    hooks: Dict[str, List[Hook]] = {}
    for h in graph.hooks:
        if h.family != FAMILY:
            hooks.setdefault(h.node_id, []).append(h)
        elif not (h.position is HookPosition.PRE_PARAM and isinstance(h.transform, ParamMask) and np.array_equal(
                h.transform.mask.data, _filter_mask_array(graph, mask_map, h.node_id, h.param_name))):
            raise ValueError(f"cannot strip: the {FAMILY} mask on {h.node_id!r} {h.param_name} is not "
                             f"the channel mask that propagation gives it")
    graph.hooks = [h for h in graph.hooks if h.family != FAMILY]
    for nid, node in graph.nodes.items():
        kind = _KINDS[node.kind]
        if not kind.axes:
            continue
        keep_out = np.asarray(mask_map.output_masks[nid], dtype=bool)
        keep_in = np.asarray(mask_map.input_masks[nid][0], dtype=bool)
        keep = {attr: m for attr, m in ((kind.channels.out, keep_out), (kind.channels.inp, keep_in)) if attr}
        lead = {HookPosition.PRE_INPUT: (kind.channels.inp,), HookPosition.POST_OUTPUT: (kind.channels.out,)}
        tensors = [(name, node.params[name], axes) for name, axes in kind.axes.items()]
        tensors += [(f"{h.position.value} hook's {t}", getattr(h.transform, t), kind.axes.get(h.param_name) or
                     lead[h.position]) for h in hooks.get(nid, ()) for t in h.transform.codec_params]
        for name, p, axes in tensors:
            for axis, (attr, size) in enumerate(zip(axes, p.data.shape)):  # a hook's tensor may have fewer axes
                if attr in keep:
                    if size != len(keep[attr]):
                        raise ValueError(f"mask length {len(keep[attr])} does not match {node.kind} {nid!r} "
                                         f"{name} {p.shape} along {attr}")
                    p.data = p.data.compress(keep[attr], axis)
        node.attrs.update((attr, int(m.sum())) for attr, m in keep.items())

    graph._validate()  # checks the sliced graph's shapes and parameters end to end
    return graph


# -- controller ------------------------------------------------------------


@dataclass
class PruningSchedulerSpec(Spec):
    mode: str = setting(SCHEDULER_MODE, "baseline")
    warmup_epochs: int = setting(COUNT, 0)
    epochs: int = setting(COUNT, 5)


@dataclass
class FilterPruningSpec(Spec):
    pruning_rate: float = setting(FRACTION)
    criterion: str = setting(CRITERION, "l2")
    scheduler: PruningSchedulerSpec = field(default_factory=PruningSchedulerSpec)
    exclude: List[str] = field(default_factory=list)


class PruningController(CompressionController):
    name = FAMILY
    spec_class = FilterPruningSpec

    def __init__(self, graph: ModelGraph, spec: FilterPruningSpec):
        excluded = match_layers(list(graph.nodes), spec.exclude, "exclude", "node")
        candidates = [nid for nid, node in graph.nodes.items() if node.kind == "Conv2D" and nid not in excluded]
        masks = {nid: np.ones(graph.nodes[nid].attrs["out_channels"], dtype=bool) for nid in candidates}
        self.mask_map = propagate_pruning_masks(graph, masks)
        self.hooks = apply_filter_masks(graph, self.mask_map)
        super().__init__(graph, spec)
        self.prunable = list(self.mask_map.verdicts)
        self.conv_masks = {nid: self.mask_map.output_masks[nid] for nid in self.prunable}

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
