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
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

INPUT_ID = "input"

NODE_KINDS = ("Conv2D", "FullyConnected", "BatchNorm", "ReLU", "Add", "MaxPool2D", "Flatten")
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
        self.infer_shapes()  # validates shape compatibility eagerly
        return spec

    def _link(self, spec: NodeSpec):
        """Append a node after the structural checks (id, kind, inputs, arity);
        shapes are left to ``infer_shapes``."""
        if spec.id == INPUT_ID or spec.id in self.nodes:
            raise GraphError(f"duplicate or reserved node id {spec.id!r}")
        if spec.kind not in NODE_KINDS:
            raise GraphError(f"unknown node kind {spec.kind!r}")
        for ref in spec.inputs:
            if ref != INPUT_ID and ref not in self.nodes:
                raise GraphError(f"node {spec.id!r} references undefined input {ref!r}")
        self._check_arity(spec)
        self.nodes[spec.id] = spec

    def _check_arity(self, spec: NodeSpec):
        n = len(spec.inputs)
        if spec.kind == "Add":
            if n != 2:
                raise GraphError(f"Add node {spec.id!r} needs exactly 2 inputs, got {n}")
        elif n != 1:
            raise GraphError(f"{spec.kind} node {spec.id!r} needs exactly 1 input, got {n}")

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
        if hook.node_id != INPUT_ID and hook.node_id not in self.nodes:
            raise GraphError(f"hook references unknown node {hook.node_id!r}")
        if hook.position is HookPosition.PRE_PARAM:
            node = self.nodes[hook.node_id]
            if hook.param_name not in node.params:
                raise GraphError(f"node {hook.node_id!r} has no parameter {hook.param_name!r}")
        if hook.position is HookPosition.PRE_INPUT:
            node = self.nodes[hook.node_id]
            if not 0 <= hook.input_index < len(node.inputs):
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
        kind = node.kind

        def attr(name: str, default: Optional[int] = None) -> int:
            """An integer attr; ``default`` stands in for an optional one that is absent."""
            if name not in node.attrs and default is None:
                raise GraphError(f"{kind} {node.id!r}: missing attr {name!r}")
            value = node.attrs.get(name, default)
            if not isinstance(value, int) or isinstance(value, bool):
                raise GraphError(f"{kind} {node.id!r}: attr {name!r} must be an integer, got {value!r}")
            return value

        if kind == "Conv2D":
            c, h, w = self._expect_rank(node, ins[0], 3)
            cin = attr("in_channels")
            if c != cin:
                raise GraphError(f"Conv2D {node.id!r}: input channels {c} != in_channels {cin}")
            k, s, p = attr("kernel"), attr("stride", 1), attr("padding", 0)
            self._check_window(node, kernel=k, stride=s, padding=p)
            oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
            if oh < 1 or ow < 1:
                raise GraphError(f"Conv2D {node.id!r}: kernel {k} does not fit input {h}x{w}")
            return (attr("out_channels"), oh, ow)
        if kind == "FullyConnected":
            (f,) = self._expect_rank(node, ins[0], 1)
            fin = attr("in_features")
            if f != fin:
                raise GraphError(f"FullyConnected {node.id!r}: input features {f} != in_features {fin}")
            return (attr("out_features"),)
        if kind == "BatchNorm":
            shape = ins[0]
            c = shape[0]
            features = attr("num_features")
            if c != features:
                raise GraphError(f"BatchNorm {node.id!r}: input channels {c} != num_features {features}")
            return shape
        if kind == "ReLU":
            return ins[0]
        if kind == "Add":
            if ins[0] != ins[1]:
                raise GraphError(f"Add {node.id!r}: input shapes {ins[0]} and {ins[1]} differ")
            return ins[0]
        if kind == "MaxPool2D":
            c, h, w = self._expect_rank(node, ins[0], 3)
            k = attr("kernel")
            s = attr("stride", k)
            self._check_window(node, kernel=k, stride=s)
            if h < k or w < k:
                raise GraphError(f"MaxPool2D {node.id!r}: window {k} does not fit input {h}x{w}")
            return (c, (h - k) // s + 1, (w - k) // s + 1)
        if kind == "Flatten":
            return (_prod(ins[0]),)
        raise GraphError(f"unknown node kind {kind!r}")

    @staticmethod
    def _check_window(node: NodeSpec, **attrs: int):
        for name, value in attrs.items():
            low = 0 if name == "padding" else 1
            if value < low:
                raise GraphError(f"{node.kind} {node.id!r}: {name} must be >= {low}, got {value}")

    @staticmethod
    def _expect_rank(node: NodeSpec, shape: Tuple[int, ...], rank: int) -> Tuple[int, ...]:
        if len(shape) != rank:
            raise GraphError(f"{node.kind} {node.id!r}: expected rank-{rank} input, got {shape}")
        return shape

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
            out = self._exec_node(node, ins, params, ctx)
            values[nid] = hooked(out, nid, HookPosition.POST_OUTPUT)
        return values[self.output_id()]

    def _exec_node(self, node: NodeSpec, ins: List[Tensor], params: Dict[str, Tensor], ctx: ExecContext) -> Tensor:
        kind, a = node.kind, node.attrs
        if kind == "Conv2D":
            return T.conv2d(
                ins[0], params["weight"], params.get("bias"),
                stride=a.get("stride", 1), padding=a.get("padding", 0),
            )
        if kind == "FullyConnected":
            return T.linear(ins[0], params["weight"], params.get("bias"))
        if kind == "BatchNorm":
            return self._batchnorm(node, ins[0], params, ctx)
        if kind == "ReLU":
            return T.relu(ins[0])
        if kind == "Add":
            return T.add(ins[0], ins[1])
        if kind == "MaxPool2D":
            return T.maxpool2d(ins[0], a["kernel"], a.get("stride", a["kernel"]))
        if kind == "Flatten":
            n = ins[0].shape[0]
            return T.reshape(ins[0], (n, _prod(ins[0].shape[1:])))
        raise GraphError(f"unknown node kind {kind!r}")

    def _batchnorm(self, node: NodeSpec, x: Tensor, params: Dict[str, Tensor], ctx: ExecContext) -> Tensor:
        a = node.attrs
        eps = a.get("eps", 1e-5)
        rm, rv = node.params["running_mean"], node.params["running_var"]
        if ctx.mode != "train":
            return T.batch_norm(x, params["gamma"], params["beta"], eps, rm.data, rv.data)[0]
        out, mean, var = T.batch_norm(x, params["gamma"], params["beta"], eps)
        # running buffers track batch statistics outside the tape
        momentum = a.get("momentum", 0.1)
        rm.data = (1 - momentum) * rm.data + momentum * mean.reshape(rm.shape)
        rv.data = (1 - momentum) * rv.data + momentum * var.reshape(rv.shape)
        return out

    # -- derived metrics ---------------------------------------------------

    def flops_per_node(self) -> Dict[str, int]:
        """Multiply-accumulate counts for the parameterized layers."""
        shapes = self.infer_shapes()
        out = {}
        for nid, node in self.nodes.items():
            if node.kind == "Conv2D":
                a = node.attrs
                _, oh, ow = shapes[nid]
                out[nid] = a["kernel"] * a["kernel"] * a["in_channels"] * a["out_channels"] * oh * ow
            elif node.kind == "FullyConnected":
                out[nid] = node.attrs["in_features"] * node.attrs["out_features"]
        return out
