"""Built-in model presets sized for minutes-scale CPU training."""

from __future__ import annotations

import numpy as np

from .graph import _KINDS, INPUT_ID, ModelGraph, NodeSpec
from .tensor import Tensor
from .util import make_rng

PRESETS = ("mlp-small", "cnn-small", "cnn-residual")

_SAME_3X3 = {"kernel": 3, "stride": 1, "padding": 1}  # a convolution that keeps height and width


def _build(input_shape, seed: int, layers) -> ModelGraph:
    """A graph of ``(id, kind, inputs, attrs)`` layers, each parameter in the
    shape its kind's table gives: weights He-normal, drawn in node order from
    one generator seeded with ``seed``; ``gamma`` and ``running_var`` ones;
    biases, ``beta`` and ``running_mean`` zeros."""
    rng, g = make_rng(seed), ModelGraph(input_shape)
    for nid, kind, inputs, attrs in layers:
        params = {}
        for name, shape in _KINDS[kind].params(attrs).items():
            if name == "weight":
                data = rng.normal(size=shape)
                data *= np.sqrt(2.0 * shape[0] / data.size)  # He-normal: the same float as 2.0 / fan-in
            else:
                data = np.ones(shape) if name in ("gamma", "running_var") else np.zeros(shape)
            params[name] = Tensor(data, requires_grad=not name.startswith("running_"))
        g.add_node(NodeSpec(nid, kind, inputs, attrs, params))
    return g


def mlp_small(seed: int = 0) -> ModelGraph:
    return _build((8,), seed, [
        ("fc1", "FullyConnected", [INPUT_ID], {"in_features": 8, "out_features": 16}),
        ("relu1", "ReLU", ["fc1"], {}),
        ("fc2", "FullyConnected", ["relu1"], {"in_features": 16, "out_features": 2}),
    ])


def cnn_small(seed: int = 0) -> ModelGraph:
    return _build((1, 8, 8), seed, [
        ("conv1", "Conv2D", [INPUT_ID], {"in_channels": 1, "out_channels": 4, **_SAME_3X3}),
        ("bn1", "BatchNorm", ["conv1"], {"num_features": 4}),
        ("relu1", "ReLU", ["bn1"], {}),
        ("pool1", "MaxPool2D", ["relu1"], {"kernel": 2, "stride": 2}),
        ("conv2", "Conv2D", ["pool1"], {"in_channels": 4, "out_channels": 8, **_SAME_3X3}),
        ("relu2", "ReLU", ["conv2"], {}),
        ("pool2", "MaxPool2D", ["relu2"], {"kernel": 2, "stride": 2}),
        ("flat", "Flatten", ["pool2"], {}),
        ("fc", "FullyConnected", ["flat"], {"in_features": 8 * 2 * 2, "out_features": 2}),
    ])


def cnn_residual(seed: int = 0) -> ModelGraph:
    return _build((1, 8, 8), seed, [
        ("stem", "Conv2D", [INPUT_ID], {"in_channels": 1, "out_channels": 8, **_SAME_3X3}),
        ("bn_stem", "BatchNorm", ["stem"], {"num_features": 8}),
        ("relu_stem", "ReLU", ["bn_stem"], {}),
        ("conv_a", "Conv2D", ["relu_stem"], {"in_channels": 8, "out_channels": 8, **_SAME_3X3}),
        ("bn_a", "BatchNorm", ["conv_a"], {"num_features": 8}),
        ("relu_a", "ReLU", ["bn_a"], {}),
        ("conv_b", "Conv2D", ["relu_a"], {"in_channels": 8, "out_channels": 8, **_SAME_3X3}),
        ("bn_b", "BatchNorm", ["conv_b"], {"num_features": 8}),
        ("add", "Add", ["relu_stem", "bn_b"], {}),
        ("relu_out", "ReLU", ["add"], {}),
        ("pool", "MaxPool2D", ["relu_out"], {"kernel": 2, "stride": 2}),
        ("flat", "Flatten", ["pool"], {}),
        ("fc", "FullyConnected", ["flat"], {"in_features": 8 * 4 * 4, "out_features": 2}),
    ])


def build_model(name: str, seed: int = 0) -> ModelGraph:
    if name not in PRESETS:
        raise ValueError(f"unknown model preset {name!r}; choose from {PRESETS}")
    return {"mlp-small": mlp_small, "cnn-small": cnn_small, "cnn-residual": cnn_residual}[name](seed)
