"""Shared building blocks for compression algorithms.

Each algorithm is one controller class, built from a model graph and its
config section's spec.  It rewires the graph (inserting hooks, never editing
layer math), then owns the algorithm's training-time state: an additive
loss term, what each epoch of its schedule means, any data-driven set-up,
and statistics.  What it trains is what its hooks declare in
``codec_params`` and that requires a gradient; one base method,
``extra_params``, reads it.  Each config section is described by a
dataclass spec in the algorithm's module, its controller's ``spec_class``;
``load_spec`` fills it from a mapping.  A field declared with ``setting``
names its value kind: a generic one from ``util``, or the setting's own
from its algorithm's module (``quantization.BITS``), which the hook
constructors and the model-file reader check the same setting against.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
import warnings
from fnmatch import fnmatch
from typing import Callable, Dict, List, Sequence, Tuple, Union

from .graph import WEIGHTED_KINDS, Hook, HookPosition, ModelGraph
from .tensor import Tensor
from .util import BOOL, INTEGER, LIST, NUMBER, OBJECT, STRING


class ConfigError(ValueError):
    pass


class SpecError(ValueError):
    """A spec value of the right type but out of range; ``key`` names the field."""

    def __init__(self, key: str, reason):
        super().__init__(f"{key}: {reason}")
        self.key, self.reason = key, reason


# the kind each annotated type of a spec field must pass
_TYPE_KINDS = {bool: BOOL, int: INTEGER, float: NUMBER, str: STRING, dict: OBJECT}


def setting(kind, default=dataclasses.MISSING):
    """A spec field whose values must pass ``kind``; a ``Spec`` checks it when built."""
    return dataclasses.field(default=default, metadata={"kind": kind})


class Spec:
    """Base of the specs with ``setting`` fields.  A subclass's own
    ``__post_init__`` calls this one, then checks its cross-field rules."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            kind, value = f.metadata.get("kind"), getattr(self, f.name)
            if kind and value is not None and not kind[0](value):
                raise SpecError(f.name, f"must be {kind[1]}, got {value!r}")


@functools.lru_cache(maxsize=None)
def _spec_fields(cls) -> Dict[str, Tuple[object, bool]]:
    """Field name -> (annotated type, required), resolved once per spec class."""
    hints = typing.get_type_hints(cls)
    missing = dataclasses.MISSING
    return {
        f.name: (hints[f.name], f.default is missing and f.default_factory is missing)
        for f in dataclasses.fields(cls)
    }


def _dotted(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def require(kind, value, path: str):
    """Raise a ``ConfigError`` naming the config key ``path`` when ``value`` fails ``kind``."""
    if not kind[0](value):
        raise ConfigError(f"{f'config key {path!r}' if path else 'config'} must be {kind[1]}, got {value!r}")


def _convert(tp, value, path: str):
    """Check ``value`` against an annotated type; returns it in that type's form."""
    if tp in _TYPE_KINDS:
        require(_TYPE_KINDS[tp], value, path)
        return float(value) if tp is float else value
    if dataclasses.is_dataclass(tp):
        return load_spec(tp, value, path)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Union:  # Optional[X]
        return None if value is None else _convert(args[0], value, path)
    # a string is iterable, but never a list of patterns or numbers
    require(LIST, value, path)
    if origin is tuple and args[-1] is not Ellipsis:
        if len(value) != len(args):
            raise ConfigError(f"config key {path!r} must have {len(args)} entries, got {value!r}")
        return tuple(_convert(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    items = [_convert(args[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
    return items if origin is list else tuple(items)


def load_spec(cls, section, path: str = ""):
    """Build a spec dataclass from a config mapping.

    Absent keys take the field defaults; unknown keys, missing required
    keys, values of the wrong type and values the spec's ``__post_init__``
    rejects as out of range raise ``ConfigError`` naming their dotted path.
    """
    require(OBJECT, section, path)
    fields = _spec_fields(cls)
    for key in section:
        if key not in fields:
            raise ConfigError(f"unknown config key {_dotted(path, key)!r}")
    values = {}
    for key, (tp, required) in fields.items():
        if key in section:
            values[key] = _convert(tp, section[key], _dotted(path, key))
        elif required:
            raise ConfigError(f"missing config key {_dotted(path, key)!r}")
    try:
        return cls(**values)
    except SpecError as err:
        raise ConfigError(f"config key {_dotted(path, err.key)!r} is out of range: {err.reason}") from None


def match_layers(ids: Sequence[str], patterns: Sequence[str], what: str, noun: str) -> List[str]:
    """The ids, in order, that match any of the glob ``patterns``.  Each
    pattern that matches none of them warns once, naming its ``what`` list
    and the ``noun`` the ids stand for."""
    for p in patterns:
        if not any(fnmatch(i, p) for i in ids):
            warnings.warn(f"{what} pattern {p!r} matches no {noun}")
    return [i for i in ids if any(fnmatch(i, p) for p in patterns)]


def hook_weights(graph: ModelGraph, family: str, make: Callable) -> Dict[str, Callable]:
    """Hook ``make(weight shape)`` onto the weight of every convolution and
    fully connected layer; returns the transforms by node id."""
    hooks = {}
    for node in graph.nodes.values():
        if node.kind in WEIGHTED_KINDS:
            hooks[node.id] = make(node.params["weight"].shape)
            graph.insert_hook(Hook(node.id, HookPosition.PRE_PARAM, family, hooks[node.id], param_name="weight"))
    return hooks


class CompressionScheduler:
    """Tracks training progress for one controller, which says what an epoch means.

    ``epoch_step`` runs at the start of every epoch (so the first call lands
    on epoch 0), ``step`` after every optimizer step.  ``metric`` carries the
    monitored validation loss from the finished epoch; the history of those
    losses goes to the controller's ``on_epoch`` along with the epoch.
    """

    def __init__(self, controller: CompressionController):
        self.controller = controller
        self.epoch = -1
        self.steps = 0
        self.metric_history: List[float] = []

    def epoch_step(self, metric=None):
        if metric is not None:
            self.metric_history.append(float(metric))
        self.epoch += 1
        self.controller.on_epoch(self.epoch, self.metric_history)

    def step(self):
        self.steps += 1

    def state_dict(self) -> dict:
        return {"epoch": self.epoch, "steps": self.steps, "metric_history": list(self.metric_history)}

    def load_state_dict(self, state: dict):
        self.epoch = state["epoch"]
        self.steps = state["steps"]
        self.metric_history = list(state.get("metric_history", []))


class CompressionController:
    """A subclass's ``__init__`` installs its family's hooks from ``spec``, an
    instance of its ``spec_class``, then calls this one."""

    name = "base"
    spec_class: type
    lr_scale = 1.0  # learning-rate factor, read by train_model every epoch
    weight_decay_on = True  # whether train_model applies weight decay this epoch
    lr_multiplier = 1.0  # learning-rate factor of every tensor extra_params returns

    def __init__(self, graph: ModelGraph, spec: Spec):
        self.graph = graph
        self.spec = spec
        self.scheduler = CompressionScheduler(self)
        # (name, transform, attr) of each tensor the family's hooks declare, read as the subclass installed
        # them: while train_model runs, the benchmark's tracer swaps in proxies that forward only __call__
        self._declared = [
            (f"{self.name}:{h.node_id}:{h.position.value}:{h.param_name}:{h.input_index}:{name}", h.transform, name)
            for h in graph.hooks if h.family == self.name for name in h.transform.codec_params
        ]

    def initialize(self, batches: List[tuple], seed: int):
        """Data-driven set-up from (x, labels or None) batches, once every hook is in."""

    def on_epoch(self, epoch: int, metrics: List[float]):
        """Move to ``epoch``; ``metrics`` holds the monitored losses seen so far."""

    def loss(self) -> Tensor:
        """Additive penalty evaluated once per training step.  Defaults to zero."""
        return Tensor(0.0)

    def statistics(self) -> dict:
        return {}

    def extra_params(self) -> List[Tuple[str, Tensor, float]]:
        """Each tensor that this family's hooks declare in ``codec_params`` and that requires a
        gradient, as (name, tensor, ``lr_multiplier``).  A name joins the family, the hook's point
        and the tensor's name: unique, as a point holds one hook per family, and read off the graph."""
        tensors = [(key, getattr(tr, name)) for key, tr, name in self._declared]
        return [(key, t, self.lr_multiplier) for key, t in tensors if t.requires_grad]

