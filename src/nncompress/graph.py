"""Explicit layer DAGs with hook-based transformation points.

Models are declared as a sequence of nodes whose inputs must already exist,
which keeps every graph acyclic by construction.  Compression algorithms act
on a graph exclusively by inserting hooks at three kinds of points:

* ``PRE_PARAM``   wraps a named parameter right before the op consumes it
* ``PRE_INPUT``   wraps one incoming activation of a node
* ``POST_OUTPUT`` wraps the node's output activation

Hooks of different families stack and compose in registration order.

Each node kind is declared once, in ``_KINDS``: arity, shape rule,
parameter table (the attr that sizes each axis), executor, channel rule
(which filter pruning reads) and an optional eval-time fold.  The chains of
kinds that run as one kernel are declared next to it, in ``FUSED_CHAINS``;
``ModelGraph.chains`` finds them, and the folds' chains, in a graph.
``ModelGraph.producers`` answers weighted reachability: which weighted
nodes, or the input, each value comes from through unweighted nodes.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor
from .util import COUNT, FINITE_POSITIVE, INTEGER, NUMBER, POSITIVE

INPUT_ID = "input"


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


BN_MOMENTUM = (lambda v: NUMBER[0](v) and 0 <= v <= 1, "a number in [0, 1]")
BN_EPS = 1e-5  # a BatchNorm's eps when its attrs name none


def _attr(node: NodeSpec, name: str, default=None, kind=INTEGER):
    """An attr that passes ``kind``; ``default`` stands in for an optional one that is absent."""
    value = node.attrs.get(name, default)
    # the common case first: every add_node infers every node's shape
    if type(value) is int and (kind is INTEGER or kind[0](value)):
        return value
    if name not in node.attrs and default is None:
        raise GraphError(f"{node.kind} {node.id!r}: missing attr {name!r}")
    if not kind[0](value):
        raise GraphError(f"{node.kind} {node.id!r}: attr {name!r} must be {kind[1]}, got {value!r}")
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


def _conv_shape(node: NodeSpec, ins) -> Tuple[int, ...]:
    c, h, w = _channels(node, _rank(node, ins[0], 3), "in_channels")
    k = _attr(node, "kernel", kind=POSITIVE)
    s, p = _attr(node, "stride", 1, POSITIVE), _attr(node, "padding", 0, COUNT)
    oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    if oh < 1 or ow < 1:
        raise GraphError(f"Conv2D {node.id!r}: kernel {k} does not fit input {h}x{w}")
    return (_attr(node, "out_channels"), oh, ow)


def _fc_shape(node: NodeSpec, ins) -> Tuple[int, ...]:
    _channels(node, _rank(node, ins[0], 1), "in_features", "input features")
    return (_attr(node, "out_features"),)


def _bn_shape(node: NodeSpec, ins) -> Tuple[int, ...]:
    """BatchNorm's shape, once the optional attrs its executor reads are in range."""
    for name, kind in (("eps", FINITE_POSITIVE), ("momentum", BN_MOMENTUM)):
        if name in node.attrs:
            _attr(node, name, kind=kind)
    return _channels(node, ins[0], "num_features")


def _add_shape(node: NodeSpec, ins) -> Tuple[int, ...]:
    if ins[0] != ins[1]:
        raise GraphError(f"Add {node.id!r}: input shapes {ins[0]} and {ins[1]} differ")
    return ins[0]


def _pool_shape(node: NodeSpec, ins) -> Tuple[int, ...]:
    c, h, w = _rank(node, ins[0], 3)
    k = _attr(node, "kernel", kind=POSITIVE)
    s = _attr(node, "stride", k, POSITIVE)
    if h < k or w < k:
        raise GraphError(f"MaxPool2D {node.id!r}: window {k} does not fit input {h}x{w}")
    return (c, (h - k) // s + 1, (w - k) // s + 1)


def _run_conv(node: NodeSpec, ins, p: Dict[str, Tensor], ctx) -> Tensor:
    a = node.attrs
    return T.conv2d(ins[0], p["weight"], p["bias"], stride=a.get("stride", 1), padding=a.get("padding", 0))


def _run_batchnorm(node: NodeSpec, ins, p: Dict[str, Tensor], ctx) -> Tensor:
    eps = node.attrs.get("eps", BN_EPS)
    rm, rv = node.params["running_mean"], node.params["running_var"]
    if ctx.mode != "train":
        return T.batch_norm(ins[0], p["gamma"], p["beta"], eps, rm.data, rv.data)[0]
    out, mean, var = T.batch_norm(ins[0], p["gamma"], p["beta"], eps)
    # running buffers track batch statistics outside the tape
    momentum = node.attrs.get("momentum", 0.1)
    rm.data = (1 - momentum) * rm.data + momentum * mean.reshape(rm.shape)
    rv.data = (1 - momentum) * rv.data + momentum * var.reshape(rv.shape)
    return out


def _fold_batchnorm(node: NodeSpec, p: Dict[str, Tensor], conv: Dict[str, Tensor]) -> Dict[str, Tensor]:
    """The convolution parameters whose output is this BatchNorm's eval-mode
    output: W' = W·s and b' = (b - μ)·s + β, with s = γ/√(σ² + ε) and μ, σ²
    the running buffers, as ``_run_batchnorm`` reads them."""
    rm, rv = node.params["running_mean"].data, node.params["running_var"].data
    s = p["gamma"].data / np.sqrt(rv + node.attrs.get("eps", BN_EPS))
    weight = conv["weight"].data * s.reshape(-1, 1, 1, 1)
    return {"weight": Tensor(weight), "bias": Tensor((conv["bias"].data - rm) * s + p["beta"].data)}


def _run_pool(node: NodeSpec, ins, p: Dict[str, Tensor], ctx) -> Tensor:
    k = node.attrs["kernel"]
    return T.maxpool2d(ins[0], k, node.attrs.get("stride", k))


class _Fold(NamedTuple):
    """How a node folds into the node that produces its one input, in an
    eval pass that records nothing."""

    producer: str  # the kind of that node
    rewrite: Callable  # (node, its hooked parameters, the producer's hooked parameters) -> the producer's parameters


class _Channels(NamedTuple):
    """How a node's output channels follow from its inputs' channels, which
    filter pruning reads to propagate channel masks and slice parameters."""

    # "weights": set by its own weights; "pass": its input's; "repeat": its input's, each once per
    # position that Flatten folds into the feature axis; "join": its inputs', which must agree
    rule: str
    out: Optional[str] = None  # the attr that counts its output channels; the axes it sizes follow the output mask
    inp: Optional[str] = None  # the attr that counts its input channels; the axes it sizes follow the input mask
    masked: Tuple[str, ...] = ()  # the parameters that a mask on its output channels zeroes during training


class _Kind(NamedTuple):
    arity: int
    shape: Callable  # (node, input shapes) -> output shape, batch dimension excluded
    axes: Dict[str, Tuple[str, ...]]  # parameter name -> the attr sizing each axis; attrs the shape rule checks
    run: Callable  # (node, input tensors, hooked parameters, ExecContext) -> output tensor
    channels: _Channels
    fold: Optional[_Fold] = None

    def params(self, attrs) -> Dict[str, Tuple[int, ...]]:
        """Parameter name -> shape, for a node with these attrs."""
        return {name: tuple([attrs[a] for a in axes]) for name, axes in self.axes.items()}


_KINDS: Dict[str, _Kind] = {
    "Conv2D": _Kind(
        1, _conv_shape, {"weight": ("out_channels", "in_channels", "kernel", "kernel"), "bias": ("out_channels",)},
        _run_conv, _Channels("weights", "out_channels", "in_channels", ("weight", "bias")),
    ),
    "FullyConnected": _Kind(
        1, _fc_shape, {"weight": ("out_features", "in_features"), "bias": ("out_features",)},
        lambda node, ins, p, ctx: T.linear(ins[0], p["weight"], p["bias"]),
        _Channels("weights", "out_features", "in_features", ("weight", "bias")),
    ),
    "BatchNorm": _Kind(
        1, _bn_shape, dict.fromkeys(("gamma", "beta", "running_mean", "running_var"), ("num_features",)),
        _run_batchnorm, _Channels("pass", "num_features", masked=("gamma", "beta")), _Fold("Conv2D", _fold_batchnorm),
    ),
    "ReLU": _Kind(1, lambda node, ins: ins[0], {}, lambda node, ins, p, ctx: T.relu(ins[0]), _Channels("pass")),
    "Add": _Kind(2, _add_shape, {}, lambda node, ins, p, ctx: T.add(ins[0], ins[1]), _Channels("join")),
    "MaxPool2D": _Kind(1, _pool_shape, {}, _run_pool, _Channels("pass")),
    "Flatten": _Kind(
        1, lambda node, ins: (_prod(ins[0]),), {},
        lambda node, ins, p, ctx: T.reshape(ins[0], (ins[0].shape[0], _prod(ins[0].shape[1:]))),
        _Channels("repeat"),
    ),
}
NODE_KINDS = tuple(_KINDS)
WEIGHTED_KINDS = tuple(name for name, kind in _KINDS.items() if kind.channels.rule == "weights")

# chains of node kinds that an inference backend runs as one kernel, longest
# first: quantizer placement puts an activation quantizer only after the last
FUSED_CHAINS = (("Conv2D", "BatchNorm", "ReLU"), ("Conv2D", "ReLU"))


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

    def _file(self, at: Dict[tuple, List[Hook]], hook: Hook):
        """Check a hook's point against this graph, then file the hook in a point
        index (point -> hooks in registration order), which hooks_at and run read;
        one family per point.  insert_hook and the hooks setter both file here."""
        node = self.nodes.get(hook.node_id)
        if node is None and hook.node_id != INPUT_ID:
            raise GraphError(f"hook references unknown node {hook.node_id!r}")
        if node is None and hook.position is not HookPosition.POST_OUTPUT:
            raise GraphError(f"{hook.family!r} hook at {INPUT_ID}/{hook.position.value}: the input has only an output")
        # run finds a hook by its whole point, so a field that its position does not read would leave it unrun
        if (hook.position is not HookPosition.PRE_PARAM and hook.param_name is not None) or (
                hook.position is not HookPosition.PRE_INPUT and hook.input_index != 0):
            raise GraphError(f"{hook.family!r} hook at {hook.node_id}/{hook.position.value}: only a pre_param hook "
                             "names a parameter and only a pre_input hook an input index, "
                             f"got {hook.param_name!r} and {hook.input_index}")
        if hook.position is HookPosition.PRE_PARAM and hook.param_name not in node.params:
            raise GraphError(f"node {hook.node_id!r} has no parameter {hook.param_name!r}")
        if hook.position is HookPosition.PRE_INPUT and not 0 <= hook.input_index < len(node.inputs):
            raise GraphError(f"node {hook.node_id!r} has no input index {hook.input_index}")
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
        """The nodes that read ``node_id``, once per edge: an ``Add`` of a node with itself twice."""
        return [n for n in self.nodes.values() for ref in n.inputs if ref == node_id]

    def output_id(self) -> str:
        used = {ref for n in self.nodes.values() for ref in n.inputs}
        terminals = [nid for nid in self.nodes if nid not in used]
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
        """Execute the graph on a batched input [N, *input_shape].

        An eval pass that records nothing (inside ``no_grad``) folds each
        node that ``_folds`` names into its producer; every other pass runs
        every node as its own op."""
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

        def hooked_params(node: NodeSpec) -> Dict[str, Tensor]:
            return {
                name: hooked(p, node.id, HookPosition.PRE_PARAM, param_name=name) for name, p in node.params.items()
            }

        # an activation is dropped after its last consumer, so a pass without a
        # tape holds a few activations at a time, not every one in the graph
        last_use = {ref: nid for nid, node in self.nodes.items() for ref in node.inputs}
        folds = self._folds() if mode == "eval" and not T.is_grad_enabled() else {}
        folded = {node.id for node in folds.values()}
        values: Dict[str, Tensor] = {INPUT_ID: hooked(x, INPUT_ID, HookPosition.POST_OUTPUT)}
        for nid, node in self.nodes.items():
            ins = [
                hooked(values[ref], nid, HookPosition.PRE_INPUT, input_index=i) for i, ref in enumerate(node.inputs)
            ]
            for ref in node.inputs:
                if last_use[ref] == nid:
                    values.pop(ref, None)
            if nid in folded:  # its producer's output is already this node's
                out = ins[0]
            else:
                params = hooked_params(node)
                if nid in folds:
                    folder = folds[nid]
                    params = _KINDS[folder.kind].fold.rewrite(folder, hooked_params(folder), params)
                out = _KINDS[node.kind].run(node, ins, params, ctx)
            values[nid] = hooked(out, nid, HookPosition.POST_OUTPUT)
        return values[self.output_id()]

    def chains(self, patterns) -> Dict[str, List[NodeSpec]]:
        """Start id -> the nodes of the first of ``patterns`` (tuples of node
        kinds) that matches from that node on, along edges that are each the
        only consumer edge of the node they leave."""
        found = {}
        for nid, node in self.nodes.items():
            for kinds in patterns:
                chain = [node]
                while len(chain) < len(kinds) and chain[-1].kind == kinds[len(chain) - 1]:
                    nxt = self.consumers(chain[-1].id)
                    if len(nxt) != 1:
                        break
                    chain += nxt
                if len(chain) == len(kinds) and chain[-1].kind == kinds[-1]:
                    found.setdefault(nid, chain)
        return found

    def producers(self) -> Dict[str, frozenset]:
        """Node id, and ``INPUT_ID`` -> the weighted nodes, or the input,
        whose outputs reach that node's output through unweighted nodes only.
        The input and a node whose weights set its channels are their own."""
        found = {INPUT_ID: frozenset([INPUT_ID])}
        for nid, node in self.nodes.items():
            if _KINDS[node.kind].channels.rule == "weights":
                found[nid] = frozenset([nid])
            else:
                found[nid] = frozenset().union(*(found[ref] for ref in node.inputs))
        return found

    def _folds(self) -> Dict[str, NodeSpec]:
        """Producer id -> the node that folds into it: the end of a chain
        from a declared fold's producer kind to the folding kind, with no
        hook on the edge between the two.  Its ``POST_OUTPUT`` hooks still run."""
        patterns = [(kind.fold.producer, name) for name, kind in _KINDS.items() if kind.fold]
        return {
            src: node for src, (_, node) in self.chains(patterns).items()
            if (src, HookPosition.POST_OUTPUT, None, 0) not in self._at
            and (node.id, HookPosition.PRE_INPUT, None, 0) not in self._at
        }

    # -- derived metrics ---------------------------------------------------

    def flops_per_node(self) -> Dict[str, int]:
        """Multiply-accumulate counts of the weighted layers: every weight
        entry is used once per output position."""
        shapes = self.infer_shapes()
        return {
            nid: node.params["weight"].size * _prod(shapes[nid][1:])
            for nid, node in self.nodes.items() if "weight" in node.params
        }
