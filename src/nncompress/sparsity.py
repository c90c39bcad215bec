"""Unstructured weight sparsity.

Two methods share the hook mechanics and one level schedule (polynomial,
exponential, multistep, or adaptive-to-validation-loss) but differ in how
zeros are chosen:

* magnitude: weights with the smallest per-layer-normalized magnitude are
  masked at the scheduled level
* regularization-based: every weight gets a trainable score driving a
  stochastic binary gate; a squared penalty steers the mean gate
  probability toward the scheduled density, and evaluation thresholds the
  scores deterministically
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import serialize, tensor as T
from .base import (
    CompressionBuilder, CompressionController, CompressionScheduler, Spec, SpecError, hook_weights, setting,
)
from .graph import ModelGraph
from .tensor import Tensor
from .util import FINITE, FINITE_POSITIVE, FRACTION, one_of


# -- schedules -------------------------------------------------------------


@dataclass
class SparsityScheduleSpec(Spec):
    mode: str = setting(one_of(("polynomial", "exponential", "multistep", "adaptive")), "polynomial")
    init: float = setting(FRACTION, 0.0)
    target: float = setting(FRACTION, 0.5)
    epochs: int = 10
    power: float = setting(FINITE_POSITIVE, 1.0)
    steps: Optional[List[Tuple[int, float]]] = None  # multistep only
    patience: float = 1e-3  # adaptive only
    step: float = setting(FRACTION, 0.05)  # adaptive only

    def __post_init__(self):
        super().__post_init__()
        if self.init > self.target:
            raise SpecError("init", f"need init <= target, got init={self.init}, target={self.target}")
        if self.mode in ("polynomial", "exponential"):
            if self.epochs == 0 and self.init != self.target:
                raise SpecError("epochs", "a zero-epoch ramp cannot move init to a different target")
            if self.epochs < 0:
                raise SpecError("epochs", "epoch span must be nonnegative")
        if self.mode == "multistep":
            steps = self.steps or []
            if not steps:
                raise SpecError("steps", "multistep schedule needs at least one step")
            epochs = [e for e, _ in steps]
            levels = [self.init] + [l for _, l in steps]
            # written as comparisons, so that a NaN level fails them
            if epochs != sorted(epochs) or not all(a <= b for a, b in zip(levels, levels[1:])):
                raise SpecError("steps", "multistep steps must have nondecreasing epochs and levels, from init on")
            if levels[-1] != self.target:
                raise SpecError("steps", "final multistep level must equal the target")


def sparsity_level_at_epoch(
    spec: SparsityScheduleSpec, epoch: int, metrics: Optional[Sequence[float]] = None
) -> float:
    """Scheduled sparsity level for an epoch.

    ``metrics`` is the history of the monitored validation losses from the
    epochs already finished; only the adaptive mode reads it.
    """
    e, target, init = epoch, spec.target, spec.init
    if spec.mode in ("polynomial", "exponential"):
        if spec.epochs == 0 or e >= spec.epochs:
            return target
        if spec.mode == "polynomial":
            level = init + (target - init) * (e / spec.epochs) ** spec.power
        else:
            level = target - (target - init) * math.exp(-5.0 * e / spec.epochs)
        return min(max(level, init), target)  # rounding can land an ulp outside
    if spec.mode == "multistep":
        level = init
        for step_epoch, step_level in spec.steps:
            if e >= step_epoch:
                level = step_level
        return level
    # adaptive: bump the level every time the monitored loss stalls
    level = init
    prev = None
    for m in metrics or []:
        if prev is not None and (prev - m) < spec.patience:
            level = min(level + spec.step, target)
        prev = m
    return level


# the benchmark's span tracer wraps epoch_step on the class under this name;
# every controller's epoch now runs through it
MagnitudeSparsityScheduler = CompressionScheduler


# -- magnitude method ------------------------------------------------------


def magnitude_masks(weights: Dict[str, np.ndarray], level: float):
    """Global bottom-k masks over per-layer-normalized weight magnitudes.

    Importance of a weight is |w| divided by its layer's Frobenius norm;
    the round(level * N) least important weights across all layers are
    zeroed, ties resolved toward earlier layers and indices.  Returns the
    cut threshold and a {layer: 0/1 mask} map.
    """
    if not 0.0 <= level < 1.0:
        raise ValueError(f"sparsity level must be in [0, 1), got {level}")
    order_ids = list(weights)
    imps = []
    for nid in order_ids:
        w = np.asarray(weights[nid], dtype=np.float64)
        norm = np.linalg.norm(w)
        imps.append(np.abs(w).ravel() / norm if norm > 0 else np.zeros(w.size))
    flat = np.concatenate(imps) if imps else np.zeros(0)
    n = flat.size
    k = int(round(level * n))
    keep = np.ones(n, dtype=np.float64)
    if k > 0:
        order = np.argsort(flat, kind="stable")
        keep[order[:k]] = 0.0
        threshold = float(flat[order[k - 1]])
    else:
        threshold = 0.0
    masks = {}
    offset = 0
    for nid in order_ids:
        size = weights[nid].size
        masks[nid] = keep[offset : offset + size].reshape(weights[nid].shape).copy()
        offset += size
    return threshold, masks


@serialize.register_hook_codec
class ParamMask:
    """Multiplies a parameter by a fixed 0/1 mask; masked entries get no gradient."""

    codec_kind = "param_mask"
    codec_attrs = {}
    codec_params = ("mask",)

    def __init__(self, mask: np.ndarray):
        self.mask = Tensor(np.asarray(mask, dtype=np.float64))

    def set_mask(self, mask: np.ndarray):
        self.mask = Tensor(np.asarray(mask, dtype=np.float64))

    def __call__(self, p: Tensor, ctx=None) -> Tensor:
        return T.mul(p, self.mask)

    def describe(self) -> str:
        mask = self.mask.data
        if mask.ndim == 4 and mask[0].size == 1:  # one entry per conv filter
            return f"filter mask: {int((mask == 0).sum())}/{mask.shape[0]} filters pruned"
        return f"mask: {int((mask == 0).sum())}/{mask.size} zeros"

    def select_channels(self, keep_out: np.ndarray, keep_in: np.ndarray):
        """Drop the entries of removed filters (rows) and input channels (columns)."""
        self.set_mask(self.mask.data[keep_out][:, keep_in])

    def eval_mask(self) -> np.ndarray:
        return self.mask.data

    def fits(self, shape) -> bool:  # the parameter's own shape, or one entry per filter
        return self.mask.shape in (tuple(shape), (*shape[:1], *(1,) * (len(shape) - 1)))


class MagnitudeSparsityController(CompressionController):
    name = "magnitude_sparsity"

    def __init__(self, graph: ModelGraph, hooks: Dict[str, ParamMask], schedule: SparsityScheduleSpec):
        super().__init__(graph)
        self.hooks = hooks
        self.level = 0.0
        self.threshold = 0.0
        self.schedule = schedule

    def on_epoch(self, epoch, metrics):
        self.set_level(sparsity_level_at_epoch(self.schedule, epoch, metrics))

    def set_level(self, level: float):
        weights = {nid: self.graph.nodes[nid].params["weight"].data for nid in self.hooks}
        self.threshold, masks = magnitude_masks(weights, level)
        for nid, mask in masks.items():
            self.hooks[nid].set_mask(mask)
        self.level = level

    def statistics(self) -> dict:
        total = sum(m.mask.size for m in self.hooks.values())
        zeros = sum(int((m.mask.data == 0).sum()) for m in self.hooks.values())
        return {
            "scheduled_level": self.level,
            "threshold": self.threshold,
            "achieved_sparsity": zeros / total if total else 0.0,
            "per_layer": {
                nid: float((m.mask.data == 0).mean()) for nid, m in self.hooks.items()
            },
        }


@dataclass
class MagnitudeSparsitySpec(Spec):
    schedule: SparsityScheduleSpec = field(default_factory=SparsityScheduleSpec)


class MagnitudeSparsityBuilder(CompressionBuilder):
    name = "magnitude_sparsity"
    spec_class = MagnitudeSparsitySpec

    def apply_to(self, graph: ModelGraph) -> MagnitudeSparsityController:
        hooks = hook_weights(graph, self.name, lambda shape: ParamMask(np.ones(shape)))
        return MagnitudeSparsityController(graph, hooks, self.spec.schedule)


# -- regularization-based method -------------------------------------------


def sample_gates(scores: Tensor, rng: np.random.Generator) -> Tensor:
    """Stochastic binary gates: sigmoid(score + logit(u)) thresholded at 0.5.

    Equivalent to Bernoulli(sigmoid(score)) draws, but the sigmoid keeps a
    differentiable path: the indicator is straight-through, so each score's
    gradient carries the local sigmoid slope.
    """
    u = np.clip(rng.uniform(size=scores.shape), 1e-12, 1.0 - 1e-12)
    shift = Tensor(np.log(u) - np.log1p(-u))
    q = T.sigmoid(T.add(scores, shift))
    return T.ste_apply(q, lambda d: (d > 0.5).astype(np.float64), name="gate_ste")


def rb_regularizer_loss(score_tensors: Sequence[Tensor], level: float) -> Tensor:
    """Squared gap between mean gate probability and the target density 1 - level."""
    total = None
    n = 0
    for s in score_tensors:
        n += s.size
        part = T.tsum(T.sigmoid(s))
        total = part if total is None else T.add(total, part)
    if total is None:
        raise ValueError("no score tensors given")
    gap = T.sub(T.mul(total, 1.0 / n), 1.0 - level)
    return T.mul(gap, gap)


def rb_eval_mask(scores: Tensor) -> np.ndarray:
    """Deterministic test-time mask: keep a weight iff its score is positive."""
    return (scores.data > 0).astype(np.float64)


@serialize.register_hook_codec
class RBGate:
    """Weight hook: stochastic gates in training, thresholded scores in eval."""

    codec_kind = "rb_gate"
    codec_attrs = {}
    codec_params = ("scores",)

    def __init__(self, scores: np.ndarray):
        self.scores = Tensor(np.asarray(scores, dtype=np.float64), requires_grad=True)

    def __call__(self, p: Tensor, ctx=None) -> Tensor:
        if ctx is not None and ctx.mode == "train":
            if ctx.rng is None:
                raise RuntimeError("sampling stochastic gates needs an rng on the run context")
            return T.mul(p, sample_gates(self.scores, ctx.rng))
        return T.mul(p, Tensor(rb_eval_mask(self.scores)))

    def describe(self) -> str:
        off = int((self.scores.data <= 0).sum())
        return f"stochastic gates: {off}/{self.scores.size} off at eval"

    def select_channels(self, keep_out: np.ndarray, keep_in: np.ndarray):
        """Drop the scores of removed filters (rows) and input channels (columns)."""
        self.scores.data = self.scores.data[keep_out][:, keep_in]

    def eval_mask(self) -> np.ndarray:
        return rb_eval_mask(self.scores)

    def fits(self, shape) -> bool:
        return self.scores.shape == tuple(shape)


class RBSparsityController(CompressionController):
    name = "rb_sparsity"

    def __init__(self, graph: ModelGraph, gates: Dict[str, RBGate], spec: RBSparsitySpec):
        super().__init__(graph)
        self.gates = gates
        self.level = spec.schedule.target
        self.spec = spec
        self.lr_multiplier = spec.score_lr_multiplier

    def on_epoch(self, epoch, metrics):
        self.level = sparsity_level_at_epoch(self.spec.schedule, epoch, metrics)

    def loss(self) -> Tensor:
        return rb_regularizer_loss([g.scores for g in self.gates.values()], self.level)

    def statistics(self) -> dict:
        total = sum(g.scores.size for g in self.gates.values())
        off = sum(int((g.scores.data <= 0).sum()) for g in self.gates.values())
        probs = np.concatenate([1.0 / (1.0 + np.exp(-g.scores.data.ravel())) for g in self.gates.values()])
        return {
            "target_level": self.level,
            "eval_sparsity": off / total if total else 0.0,
            "mean_gate_probability": float(probs.mean()),
        }


@dataclass
class RBSparsitySpec(Spec):
    schedule: SparsityScheduleSpec = field(default_factory=SparsityScheduleSpec)
    score_init: float = setting(FINITE, 3.0)
    score_lr_multiplier: float = setting(FINITE_POSITIVE, 1.0)


class RBSparsityBuilder(CompressionBuilder):
    name = "rb_sparsity"
    spec_class = RBSparsitySpec

    def __init__(self, config: dict, path: str = ""):
        super().__init__(config, path)
        schedule = config.get("schedule", {})
        if "init" not in schedule and "mode" not in schedule:
            # default: hold the target level from the start
            target = self.spec.schedule.target
            self.spec.schedule = SparsityScheduleSpec(init=target, target=target, epochs=0)

    def apply_to(self, graph: ModelGraph) -> RBSparsityController:
        gates = hook_weights(graph, self.name, lambda shape: RBGate(np.full(shape, self.spec.score_init)))
        return RBSparsityController(graph, gates, self.spec)
