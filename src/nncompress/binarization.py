"""Binary weights and activations for convolutional layers.

Weights collapse to ``scale * sign(W)`` where the scale is the mean absolute
value of the float weights, taken over the whole tensor or per input
channel.  Activations pass through ``s * H(x - s*t)`` with a trainable
amplitude ``s`` and per-channel thresholds ``t``.  Both use straight-through
gradients, and both switch on gradually over a four-stage schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import serialize, tensor as T
from .base import CompressionController, Spec, match_layers, setting
from .graph import Hook, HookPosition, INPUT_ID, ModelGraph
from .tensor import ShapeError, Tensor
from .util import BOOL, COUNT, LIST, check, one_of

FAMILY = "binarization"
WEIGHT_SCHEME = one_of(("xnor", "dorefa"))
STAGE_EPOCHS = (lambda v: LIST[0](v) and len(v) == 4 and all(map(COUNT[0], v)), "four non-negative integers")


def _sign(data: np.ndarray) -> np.ndarray:
    # sign(0) := +1 so the output never leaves the two-point set {-a, +a}
    return np.where(data >= 0, 1.0, -1.0)


def binarize_weights(w: Tensor, scheme: str) -> Tensor:
    """Collapse a conv weight to signs scaled by mean absolute magnitude.

    DoReFa uses one scalar scale for the whole tensor; XNOR computes one
    scale per input channel.  Scales are recomputed from the current float
    weights on every call and do not receive gradients; the sign itself is
    straight-through.
    """
    w = T.as_tensor(w)
    if w.ndim != 4:
        raise ShapeError(f"binarize_weights: expected 4-D conv weight, got {w.shape}")
    check(WEIGHT_SCHEME, scheme, "scheme")
    if scheme == "dorefa":
        alpha = np.mean(np.abs(w.data))
    else:
        alpha = np.abs(w.data).mean(axis=(0, 2, 3), keepdims=True)
    sgn = T.ste_apply(w, _sign, name="sign_ste")
    return T.mul(sgn, Tensor(alpha))


def binarize_activations(x: Tensor, s: Tensor, t: Tensor) -> Tensor:
    """Two-level activation: ``s * H(x - s * t_c)`` with H(0) = 0.

    The step function is straight-through, which yields the standard
    surrogate gradients: ``s`` sees ``H(z) - s*t_c`` per element, each
    threshold sees ``-s^2`` per element of its channel, and the input sees
    a uniform factor of ``s``.
    """
    x, s, t = T.as_tensor(x), T.as_tensor(s), T.as_tensor(t)
    if x.ndim != 4:
        raise ShapeError(f"binarize_activations: expected 4-D activation, got {x.shape}")
    if t.ndim != 1 or t.shape[0] != x.shape[1]:
        raise ShapeError(
            f"binarize_activations: {t.shape} thresholds for {x.shape[1]} channels"
        )
    # one full-size s for both products, so its gradient is summed once over x
    s_b = T.broadcast_to(s, x.shape)
    z = T.sub(x, T.mul(s_b, T.reshape(t, (t.shape[0], 1, 1))))
    h = T.ste_apply(z, lambda d: (d > 0).astype(np.float64), name="heaviside_ste")
    return T.mul(s_b, h)


# -- training schedule -----------------------------------------------------


@dataclass
class BinarizationStage:
    stage: int
    activations_on: bool
    weights_on: bool
    lr_scale: float
    weight_decay_on: bool


def binarization_stage_at(epoch: int, stage_durations: Sequence[int]) -> BinarizationStage:
    """Stage flags for an epoch under the four-stage ramp.

    Stage 1 trains the float model, stage 2 binarizes activations only,
    stage 3 adds weights, and stage 4 keeps both while decaying the
    learning rate quadratically to zero and switching weight decay off.
    """
    durations = [int(d) for d in stage_durations]
    check(STAGE_EPOCHS, durations, "stage durations")
    d1, d2, d3, d4 = durations
    if epoch < d1:
        return BinarizationStage(1, False, False, 1.0, True)
    if epoch < d1 + d2:
        return BinarizationStage(2, True, False, 1.0, True)
    if epoch < d1 + d2 + d3:
        return BinarizationStage(3, True, True, 1.0, True)
    progress = (epoch - (d1 + d2 + d3)) / d4 if d4 > 0 else 1.0
    progress = min(progress, 1.0)
    return BinarizationStage(4, True, True, (1.0 - progress) ** 2, False)


# -- hook transforms -------------------------------------------------------


@serialize.register_hook_codec
class WeightBinarizer:
    codec_kind = "binarize_weights"
    codec_attrs = {"scheme": WEIGHT_SCHEME, "enabled": BOOL}
    codec_params = ()

    def __init__(self, scheme: str):
        check(self.codec_attrs["scheme"], scheme, "scheme")
        self.scheme = scheme
        self.enabled = False

    def __call__(self, w: Tensor, ctx=None) -> Tensor:
        if not self.enabled:
            return w
        return binarize_weights(w, self.scheme)

    def describe(self) -> str:
        return f"binarize[{self.scheme}] {'on' if self.enabled else 'off'}"

    def fits(self, shape) -> bool:
        return len(shape) == 4  # a convolution weight


@serialize.register_hook_codec
class ActivationBinarizer:
    codec_kind = "binarize_activations"
    codec_attrs = {"enabled": BOOL}
    codec_params = ("scale", "thresholds")

    def __init__(self, channels: int):
        self.scale = Tensor(np.asarray(1.0), requires_grad=True)
        self.thresholds = Tensor(np.zeros(int(channels)), requires_grad=True)
        self.enabled = False

    def __call__(self, x: Tensor, ctx=None) -> Tensor:
        if not self.enabled:
            return x
        return binarize_activations(x, self.scale, self.thresholds)

    def describe(self) -> str:
        return f"ActivationBinarizer {'on' if self.enabled else 'off'}"

    def fits(self, shape) -> bool:  # a (C, H, W) activation: a 0-d scale and one threshold per channel
        return len(shape) == 3 and self.scale.shape == () and self.thresholds.shape == tuple(shape[:1])


# -- layer selection -------------------------------------------------------


def default_denylist(graph: ModelGraph) -> List[str]:
    """Convolutions kept at full precision by default.

    Binarizing the layer that reads raw network input or the one whose
    output feeds the classifier head costs disproportionate accuracy, so
    both ends of the network are excluded unless asked for explicitly.
    Both are one read of ``graph.producers()``: a convolution whose inputs
    come from ``INPUT_ID``, and one that a ``FullyConnected`` node's input
    comes from.
    """
    producers = graph.producers()
    head = {p for n in graph.nodes.values() if n.kind == "FullyConnected" for ref in n.inputs for p in producers[ref]}
    return [
        n.id for n in graph.nodes.values()
        if n.kind == "Conv2D" and (n.id in head or any(INPUT_ID in producers[ref] for ref in n.inputs))
    ]


def select_binarized_layers(
    graph: ModelGraph,
    allowlist: Optional[Sequence[str]] = None,
    denylist: Optional[Sequence[str]] = None,
) -> List[str]:
    convs = [n.id for n in graph.nodes.values() if n.kind == "Conv2D"]
    chosen = convs if allowlist is None else match_layers(convs, allowlist, "binarization allowlist", "convolution")
    if denylist is None:
        deny = default_denylist(graph)
    else:
        deny = match_layers(convs, denylist, "binarization denylist", "convolution")
    return [c for c in chosen if c not in deny]


def apply_binarization(
    graph: ModelGraph, spec: BinarizationSpec
) -> Dict[str, Tuple[WeightBinarizer, ActivationBinarizer]]:
    """Hook selected convolutions with weight and input binarizers."""
    handles = {}
    for nid in select_binarized_layers(graph, spec.allowlist, spec.denylist):
        wb = WeightBinarizer(spec.weight_scheme)
        ab = ActivationBinarizer(channels=graph.nodes[nid].attrs["in_channels"])  # its input's channels, by _conv_shape
        graph.insert_hook(Hook(nid, HookPosition.PRE_PARAM, FAMILY, wb, param_name="weight"))
        graph.insert_hook(Hook(nid, HookPosition.PRE_INPUT, FAMILY, ab, input_index=0))
        handles[nid] = (wb, ab)
    return handles


# -- algorithm wiring ------------------------------------------------------


@dataclass
class BinarizationSpec(Spec):
    weight_scheme: str = setting(WEIGHT_SCHEME, "xnor")
    stage_epochs: Tuple[int, ...] = setting(STAGE_EPOCHS, (2, 2, 2, 4))
    allowlist: Optional[List[str]] = None  # None: every convolution
    denylist: Optional[List[str]] = None  # None: default_denylist


class BinarizationController(CompressionController):
    name = FAMILY
    spec_class = BinarizationSpec

    def __init__(self, graph: ModelGraph, spec: BinarizationSpec):
        self.handles = apply_binarization(graph, spec)
        super().__init__(graph, spec)
        self.stage = binarization_stage_at(0, [1, 0, 0, 0])  # pre-training: everything off

    def on_epoch(self, epoch, metrics):
        self.stage = stage = binarization_stage_at(epoch, self.spec.stage_epochs)
        for wb, ab in self.handles.values():
            wb.enabled = stage.weights_on
            ab.enabled = stage.activations_on

    @property
    def lr_scale(self) -> float:
        return self.stage.lr_scale

    @property
    def weight_decay_on(self) -> bool:
        return self.stage.weight_decay_on

    def statistics(self) -> dict:
        return {
            "stage": self.stage.stage,
            "activations_on": self.stage.activations_on,
            "weights_on": self.stage.weights_on,
            "lr_scale": self.stage.lr_scale,
            "weight_decay_on": self.stage.weight_decay_on,
            "layers": {
                nid: {"scheme": wb.scheme, "scale": float(ab.scale.data)}
                for nid, (wb, ab) in self.handles.items()
            },
        }
