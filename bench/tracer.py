"""Span tracing of the nncompress modules, installed from outside the package.

Every public function of a traced module is replaced, under every module
attribute that refers to it, by a wrapper that records a span: name,
start, end and the span that was open when it was called.  Selected
methods are wrapped on their classes.  Hook transforms are wrapped per
graph, for the duration of one call, because export code tells hook kinds
apart by their type.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = (
    "tensor", "graph", "quantization", "sparsity", "pruning", "binarization",
    "mixed_precision", "serialize", "api", "train", "data",
)

# public methods wrapped on their classes, by layer
METHODS = {
    "graph": {"ModelGraph": None},  # None: every public method
    "sparsity": {"MagnitudeSparsityScheduler": ("epoch_step",), "MagnitudeSparsityController": ("set_level",)},
    "train": {"SGD": ("step", "zero_grad")},
}

# trivial or generator-returning functions whose spans would only measure the wrapper
SKIP = {"tensor.as_tensor", "tensor.no_grad", "data.iter_batches", "serialize.register_hook_codec"}

HOOK_NAMES = {
    ("quantization", "FakeQuantizer"): "quantization.hook",
    ("magnitude_sparsity", "ParamMask"): "sparsity.hook.mask",
    ("rb_sparsity", "RBGate"): "sparsity.hook.gate",
    ("filter_pruning", "ParamMask"): "pruning.hook.mask",
    ("binarization", "WeightBinarizer"): "binarization.hook.weight",
    ("binarization", "ActivationBinarizer"): "binarization.hook.act",
}


def _hook_name(hook) -> str:
    tr = hook.transform
    base = HOOK_NAMES.get((hook.family, type(tr).__name__), f"{hook.family}.hook")
    if base == "quantization.hook":
        return base + (".weight" if tr.grid == "weight" else ".act")
    return base


def _arg(args, kwargs, name, index, default):
    return kwargs.get(name, args[index] if len(args) > index else default)


class _TracedTransform:
    __slots__ = ("tracer", "name", "inner")

    def __init__(self, tracer, name, inner):
        self.tracer, self.name, self.inner = tracer, name, inner

    def __call__(self, value, ctx=None):
        idx = self.tracer.open(self.name)
        try:
            return self.inner(value, ctx)
        finally:
            self.tracer.close(idx)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list = []
        self.name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.tape = []  # (nodes, bytes) per backward call
        self.gc_events = []  # (seconds, objects collected, enclosing span)
        self._gc_start = None
        self._patches = []

    # -- spans -----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, name, fn, namer=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = tracer.open(namer(args, kwargs) if namer else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return wrapper

    # -- installation ----------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [self.package] + [m for k, m in sorted(sys.modules.items()) if k.startswith(prefix)]

    def install(self):
        mods = self._modules()
        tensor = sys.modules[self.package.__name__ + ".tensor"]
        # run(self, x, mode="eval", rng=None) and grad(loss, wrt, create_graph=False)
        # get one span name per mode
        special = {
            "graph.ModelGraph.run": dict(namer=lambda a, k: "graph.run[%s]" % _arg(a, k, "mode", 2, "eval")),
            "graph.ModelGraph.copy": dict(namer=lambda a, k: "graph.copy"),
            "tensor.grad": dict(
                namer=lambda a, k: "tensor.grad[create_graph]" if _arg(a, k, "create_graph", 2, False) else "tensor.grad"
            ),
            "tensor.backward": dict(before=lambda a, k: self._count_tape(tensor, a[0])),
        }
        for layer in LAYERS:
            mod = sys.modules[f"{self.package.__name__}.{layer}"]
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or name in SKIP
                ):
                    continue
                self._replace(mods, fn, self._wrap(name, fn, **special.get(name, {})))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                if methods is None:
                    methods = [m for m, v in vars(cls).items() if inspect.isfunction(v) and not m.startswith("_")]
                for meth in methods:
                    fn = vars(cls)[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    self._patches.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(name, fn, **special.get(name, {})))
        # the training loss lives in util and is called by train and api
        ce = sys.modules[self.package.__name__ + ".util"].cross_entropy
        self._replace(mods, ce, self._wrap("util.cross_entropy", ce))
        gc.callbacks.append(self._on_gc)

    def _replace(self, mods, fn, wrapped):
        """Point every module attribute that refers to ``fn`` at ``wrapped``."""
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    @contextmanager
    def hooks_traced(self, graph):
        """Wrap a graph's hook transforms for one call, then put the originals back."""
        originals = [h.transform for h in graph.hooks]
        for h in graph.hooks:
            h.transform = _TracedTransform(self, _hook_name(h), h.transform)
        try:
            yield graph
        finally:
            for h, tr in zip(graph.hooks, originals):
                h.transform = tr

    def _count_tape(self, tensor_module, loss):
        nodes = tensor_module._toposort(loss)
        self.tape.append((len(nodes), sum(n.data.nbytes for n in nodes)))

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.gc_events.append(
                (time.perf_counter() - self._gc_start, info.get("collected", 0), self.stack[-1])
            )
            self._gc_start = None

    # -- analysis --------------------------------------------------------

    def table(self):
        """Per span: name id, parent, duration, self time (seconds), as numpy arrays."""
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, parent, dur, dur - child

    def summary(self) -> dict:
        """Calls, total and self milliseconds per span name."""
        name, _, dur, self_time = self.table()
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=dur, minlength=len(self.names))
        own = np.bincount(name, weights=self_time, minlength=len(self.names))
        return {
            nm: {"calls": int(calls[i]), "total_ms": 1e3 * float(total[i]), "self_ms": 1e3 * float(own[i])}
            for i, nm in enumerate(self.names)
        }

    def write(self, path_prefix, summary: dict):
        name, parent, dur, self_time = self.table()
        np.savez_compressed(
            path_prefix + ".npz", name=name, parent=parent,
            start=np.frombuffer(self.start, dtype=np.float64), end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(self.names),
        )
        with open(path_prefix + ".json", "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
