"""Explicit layer DAGs with hook-based transformation points.

Models are declared as a sequence of nodes whose inputs must already exist,
which keeps every graph acyclic by construction.  Compression algorithms act
on a graph exclusively by inserting hooks at three kinds of points:

* ``PRE_PARAM``   wraps a named parameter right before the op consumes it
* ``PRE_INPUT``   wraps one incoming activation of a node
* ``POST_OUTPUT`` wraps the node's output activation

Hooks of different families stack and compose in registration order.
"""

from __future__ import annotations

import copy as _copy
import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

INPUT_ID = "input"

WEIGHTED_KINDS = ("Conv2D", "FullyConnected")


class GraphError(ValueError):
    """Malformed graph structure or invalid mutation."""


class HookPosition(Enum):
    PRE_PARAM = "pre_param"
    PRE_INPUT = "pre_input"
    POST_OUTPUT = "post_output"


@dataclass
class ExecContext:
    """Per-run state handed to every hook transform."""

    mode: str = "eval"  # "train" | "eval"
    rng: Optional[np.random.Generator] = None


@dataclass
class Hook:
    node_id: str
    position: HookPosition
    family: str
    transform: Callable[[Tensor, ExecContext], Tensor]
    param_name: Optional[str] = None  # PRE_PARAM only
    input_index: int = 0  # PRE_INPUT only

    def point(self) -> tuple:
        return (self.node_id, self.position, self.param_name, self.input_index)


@dataclass
class NodeSpec:
    id: str
    kind: str
    inputs: List[str] = field(default_factory=list)
    attrs: Dict = field(default_factory=dict)
    params: Dict[str, Tensor] = field(default_factory=dict)


def _prod(shape) -> int:
    out = 1
    for s in shape:
        out *= int(s)
    return out


# -- node kinds: what each kind owns and does, in one table ------------------


def _attr(node: NodeSpec, name: str, default: Optional[int] = None) -> int:
    """An integer attr; ``default`` stands in for an optional one that is absent."""
    value = node.attrs.get(name, default)
    if type(value) is int:  # the common case first: every add_node infers every node's shape
        return value
    if name not in node.attrs and default is None:
        raise GraphError(f"{node.kind} {node.id!r}: missing attr {name!r}")
    if not isinstance(value, int) or isinstance(value, bool):
        raise GraphError(f"{node.kind} {node.id!r}: attr {name!r} must be an integer, got {value!r}")
    return value


def _rank(node: NodeSpec, shape: Tuple[int, ...], rank: int) -> Tuple[int, ...]:
    if len(shape) != rank:
        raise GraphError(f"{node.kind} {node.id!r}: expected rank-{rank} input, got {shape}")
    return shape


def _channels(node: NodeSpec, shape: Tuple[int, ...], attr: str, what: str = "input channels") -> Tuple[int, ...]:
    """``shape``, once its leading dimension matches the attr ``attr``."""
    want = _attr(node, attr)
    if shape[0] != want:
        raise GraphError(f"{node.kind} {node.id!r}: {what} {shape[0]} != {attr} {want}")
    return shape


def _check_window(node: NodeSpec, kernel: int, stride: int, padding: int = 0):
    for name, value, low in (("kernel", kernel, 1), ("stride", stride, 1), ("padding", padding, 0)):
        if value < low:
            raise GraphError(f"{node.kind} {node.id!r}: {name} must be >= {low}, got {value}")


def _conv_shape(node: NodeSpec, ins) -> Tuple[int, ...]:
    c, h, w = _channels(node, _rank(node, ins[0], 3), "in_channels")
    k, s, p = _attr(node, "kernel"), _attr(node, "stride", 1), _attr(node, "padding", 0)
    _check_window(node, k, s, p)
    oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    if oh < 1 or ow < 1:
        raise GraphError(f"Conv2D {node.id!r}: kernel {k} does not fit input {h}x{w}")
    return (_attr(node, "out_channels"), oh, ow)


def _fc_shape(node: NodeSpec, ins) -> Tuple[int, ...]:
    _channels(node, _rank(node, ins[0], 1), "in_features", "input features")
    return (_attr(node, "out_features"),)


def _bn_shape(node: NodeSpec, ins) -> Tuple[int, ...]:
    """BatchNorm's shape, once the optional attrs its executor reads are in range."""
    for name, ok, want in (("eps", lambda v: 0 < v < math.inf, "a finite number > 0"),
                           ("momentum", lambda v: 0 <= v <= 1, "a number in [0, 1]")):
        value = node.attrs.get(name)
        if name in node.attrs and (isinstance(value, bool) or not isinstance(value, (int, float)) or not ok(value)):
            raise GraphError(f"BatchNorm {node.id!r}: attr {name!r} must be {want}, got {value!r}")
    return _channels(node, ins[0], "num_features")


def _add_shape(node: NodeSpec, ins) -> Tuple[int, ...]:
    if ins[0] != ins[1]:
        raise GraphError(f"Add {node.id!r}: input shapes {ins[0]} and {ins[1]} differ")
    return ins[0]


def _pool_shape(node: NodeSpec, ins) -> Tuple[int, ...]:
    c, h, w = _rank(node, ins[0], 3)
    k = _attr(node, "kernel")
    s = _attr(node, "stride", k)
    _check_window(node, k, s)
    if h < k or w < k:
        raise GraphError(f"MaxPool2D {node.id!r}: window {k} does not fit input {h}x{w}")
    return (c, (h - k) // s + 1, (w - k) // s + 1)


def _run_conv(node: NodeSpec, ins, p: Dict[str, Tensor], ctx) -> Tensor:
    a = node.attrs
    return T.conv2d(ins[0], p["weight"], p["bias"], stride=a.get("stride", 1), padding=a.get("padding", 0))


def _run_batchnorm(node: NodeSpec, ins, p: Dict[str, Tensor], ctx) -> Tensor:
    eps = node.attrs.get("eps", 1e-5)
    rm, rv = node.params["running_mean"], node.params["running_var"]
    if ctx.mode != "train":
        return T.batch_norm(ins[0], p["gamma"], p["beta"], eps, rm.data, rv.data)[0]
    out, mean, var = T.batch_norm(ins[0], p["gamma"], p["beta"], eps)
    # running buffers track batch statistics outside the tape
    momentum = node.attrs.get("momentum", 0.1)
    rm.data = (1 - momentum) * rm.data + momentum * mean.reshape(rm.shape)
    rv.data = (1 - momentum) * rv.data + momentum * var.reshape(rv.shape)
    return out


def _run_pool(node: NodeSpec, ins, p: Dict[str, Tensor], ctx) -> Tensor:
    k = node.attrs["kernel"]
    return T.maxpool2d(ins[0], k, node.attrs.get("stride", k))


def _weight_bias(*dims: str) -> Callable:
    """A weighted kind's parameter table: ``weight`` shaped by the attrs
    ``dims`` name, and one ``bias`` entry per output channel or feature."""
    weight = operator.itemgetter(*dims)
    return lambda a: {"weight": weight(a), "bias": (a[dims[0]],)}


class _Kind(NamedTuple):
    arity: int
    shape: Callable  # (node, input shapes) -> output shape, batch dimension excluded
    params: Callable  # attrs -> {parameter name: shape}; reads only attrs that the shape rule checks
    run: Callable  # (node, input tensors, hooked parameters, ExecContext) -> output tensor


_KINDS: Dict[str, _Kind] = {
    "Conv2D": _Kind(1, _conv_shape, _weight_bias("out_channels", "in_channels", "kernel", "kernel"), _run_conv),
    "FullyConnected": _Kind(
        1, _fc_shape, _weight_bias("out_features", "in_features"),
        lambda node, ins, p, ctx: T.linear(ins[0], p["weight"], p["bias"]),
    ),
    "BatchNorm": _Kind(
        1, _bn_shape,
        lambda a: dict.fromkeys(("gamma", "beta", "running_mean", "running_var"), (a["num_features"],)),
        _run_batchnorm,
    ),
    "ReLU": _Kind(1, lambda node, ins: ins[0], lambda a: {}, lambda node, ins, p, ctx: T.relu(ins[0])),
    "Add": _Kind(2, _add_shape, lambda a: {}, lambda node, ins, p, ctx: T.add(ins[0], ins[1])),
    "MaxPool2D": _Kind(1, _pool_shape, lambda a: {}, _run_pool),
    "Flatten": _Kind(
        1, lambda node, ins: (_prod(ins[0]),), lambda a: {},
        lambda node, ins, p, ctx: T.reshape(ins[0], (ins[0].shape[0], _prod(ins[0].shape[1:]))),
    ),
}
NODE_KINDS = tuple(_KINDS)


class ModelGraph:
    """Directed acyclic graph of layer nodes with named parameter tensors."""

    def __init__(self, input_shape: Tuple[int, ...]):
        self.input_shape = tuple(int(s) for s in input_shape)
        self.nodes: Dict[str, NodeSpec] = {}
        self.hooks = []

    @property
    def hooks(self) -> Tuple[Hook, ...]:
        """Hooks in registration order; add one with ``insert_hook`` or
        assign a new sequence."""
        return self._hooks

    @hooks.setter
    def hooks(self, hooks):
        hooks, at = tuple(hooks), {}
        for h in hooks:
            self._file(at, h)
        self._hooks, self._at = hooks, at

    @staticmethod
    def _file(at: Dict[tuple, List[Hook]], hook: Hook):
        """File a hook in a point index (point -> hooks in registration order),
        which insert_hook, hooks_at and run read; one family per point."""
        same = at.setdefault(hook.point(), [])
        for h in same:  # a plain loop: any() costs more, and this runs for every hook of every load
            if h.family == hook.family:
                raise GraphError(f"duplicate {hook.family!r} hook at {hook.node_id}/{hook.position.value}")
        same.append(hook)

    # -- construction -----------------------------------------------------

    def add_node(self, spec: NodeSpec) -> NodeSpec:
        self._link(spec)
        try:
            self._validate([spec])  # checks shapes eagerly, and this node's parameters
        except GraphError:
            del self.nodes[spec.id]  # a rejected node leaves the graph as it was
            raise
        return spec

    def _link(self, spec: NodeSpec):
        """Append a node after the structural checks (id, kind, inputs, arity);
        shapes and parameters are left to ``_validate``."""
        if spec.id == INPUT_ID or spec.id in self.nodes:
            raise GraphError(f"duplicate or reserved node id {spec.id!r}")
        if spec.kind not in NODE_KINDS:
            raise GraphError(f"unknown node kind {spec.kind!r}")
        for ref in spec.inputs:
            if ref != INPUT_ID and ref not in self.nodes:
                raise GraphError(f"node {spec.id!r} references undefined input {ref!r}")
        arity, n = _KINDS[spec.kind].arity, len(spec.inputs)
        if n != arity:
            raise GraphError(f"{spec.kind} node {spec.id!r} needs exactly {arity} input{'s' * (arity > 1)}, got {n}")
        self.nodes[spec.id] = spec

    def consumers(self, node_id: str) -> List[NodeSpec]:
        return [n for n in self.nodes.values() if node_id in n.inputs]

    def output_id(self) -> str:
        terminals = [nid for nid in self.nodes if not self.consumers(nid)]
        if len(terminals) != 1:
            raise GraphError(f"graph must have exactly one output node, found {terminals}")
        return terminals[0]

    def copy(self) -> "ModelGraph":
        """An independent graph: new node specs, parameters and hooks.

        Parameters and hook transforms are deep-copied through one memo, so a
        tensor that two hooks (or a hook and a node) reach stays shared inside
        the copy; functions are shared with the original, as ``copy.deepcopy``
        shares them.
        """
        memo: dict = {}
        g = ModelGraph(self.input_shape)
        for nid, node in self.nodes.items():
            params = {name: _copy.deepcopy(p, memo) for name, p in node.params.items()}
            g.nodes[nid] = NodeSpec(nid, node.kind, list(node.inputs), dict(node.attrs), params)
        g.hooks = [
            Hook(h.node_id, h.position, h.family, _copy.deepcopy(h.transform, memo), h.param_name, h.input_index)
            for h in self.hooks
        ]
        return g

    def parameters(self, trainable_only: bool = True) -> List[Tuple[str, str, Tensor]]:
        """(node_id, param_name, tensor) triples in topological order."""
        out = []
        for nid, node in self.nodes.items():
            for name, t in node.params.items():
                if not trainable_only or t.requires_grad:
                    out.append((nid, name, t))
        return out

    def num_params(self) -> int:
        return sum(t.size for _, _, t in self.parameters(trainable_only=False))

    # -- hooks ------------------------------------------------------------

    def insert_hook(self, hook: Hook):
        node = self.nodes.get(hook.node_id)
        if node is None and hook.node_id != INPUT_ID:
            raise GraphError(f"hook references unknown node {hook.node_id!r}")
        if node is None and hook.position is not HookPosition.POST_OUTPUT:
            raise GraphError(f"{hook.family!r} hook at {INPUT_ID}/{hook.position.value}: the input has only an output")
        if hook.position is HookPosition.PRE_PARAM and hook.param_name not in node.params:
            raise GraphError(f"node {hook.node_id!r} has no parameter {hook.param_name!r}")
        if hook.position is HookPosition.PRE_INPUT and not 0 <= hook.input_index < len(node.inputs):
            raise GraphError(f"node {hook.node_id!r} has no input index {hook.input_index}")
        self._file(self._at, hook)
        self._hooks += (hook,)

    def hooks_at(self, node_id, position, param_name=None, input_index=0) -> List[Hook]:
        return list(self._at.get((node_id, position, param_name, input_index), ()))

    # -- shape inference ---------------------------------------------------

    def infer_shapes(self) -> Dict[str, Tuple[int, ...]]:
        """Per-node output shapes, batch dimension excluded."""
        shapes: Dict[str, Tuple[int, ...]] = {INPUT_ID: self.input_shape}
        for nid, node in self.nodes.items():
            ins = [shapes[ref] for ref in node.inputs]
            shapes[nid] = self._infer_node(node, ins)
        return shapes

    def _infer_node(self, node: NodeSpec, ins: List[Tuple[int, ...]]) -> Tuple[int, ...]:
        return _KINDS[node.kind].shape(node, ins)

    def _validate(self, nodes=None) -> Dict[str, Tuple[int, ...]]:
        """One shape pass, then the parameter check of ``nodes`` (by default
        every node): names and shapes against the kind's table."""
        shapes = self.infer_shapes()
        for node in self.nodes.values() if nodes is None else nodes:
            want = _KINDS[node.kind].params(node.attrs)
            got = {name: p.shape for name, p in node.params.items()}
            if got != want:
                raise GraphError(f"{node.kind} {node.id!r}: parameters must be {want}, got {got}")
        return shapes

    # -- execution ---------------------------------------------------------

    def run(self, x: Tensor, mode: str = "eval", rng: Optional[np.random.Generator] = None) -> Tensor:
        """Execute the graph on a batched input [N, *input_shape]."""
        if mode not in ("train", "eval"):
            raise GraphError(f"unknown mode {mode!r}")
        x = T.as_tensor(x)
        if tuple(x.shape[1:]) != self.input_shape:
            raise ShapeError(
                f"graph input: expected [N, {', '.join(map(str, self.input_shape))}], got {x.shape}"
            )
        at = self._at
        for node_id, *_ in at:
            if node_id != INPUT_ID and node_id not in self.nodes:
                raise GraphError(f"dangling hook on removed node {node_id!r}")
        ctx = ExecContext(mode=mode, rng=rng)

        def hooked(value: Tensor, node_id, position, param_name=None, input_index=0) -> Tensor:
            for h in at.get((node_id, position, param_name, input_index), ()):
                value = h.transform(value, ctx)
            return value

        # an activation is dropped after its last consumer, so a pass without a
        # tape holds a few activations at a time, not every one in the graph
        last_use = {ref: nid for nid, node in self.nodes.items() for ref in node.inputs}
        values: Dict[str, Tensor] = {INPUT_ID: hooked(x, INPUT_ID, HookPosition.POST_OUTPUT)}
        for nid, node in self.nodes.items():
            ins = [
                hooked(values[ref], nid, HookPosition.PRE_INPUT, input_index=i) for i, ref in enumerate(node.inputs)
            ]
            for ref in node.inputs:
                if last_use[ref] == nid:
                    values.pop(ref, None)
            params = {
                name: hooked(p, nid, HookPosition.PRE_PARAM, param_name=name) for name, p in node.params.items()
            }
            out = _KINDS[node.kind].run(node, ins, params, ctx)
            values[nid] = hooked(out, nid, HookPosition.POST_OUTPUT)
        return values[self.output_id()]

    # -- derived metrics ---------------------------------------------------

    def flops_per_node(self) -> Dict[str, int]:
        """Multiply-accumulate counts of the weighted layers: every weight
        entry is used once per output position."""
        shapes = self.infer_shapes()
        return {
            nid: node.params["weight"].size * _prod(shapes[nid][1:])
            for nid, node in self.nodes.items() if "weight" in node.params
        }
