"""Computations the benchmark checks the program against.

Everything here is written from the file format and the algorithms'
definitions, not from the program's code: a reader for `.nncm` files, a
plain-numpy forward pass, the fake-quantization and binarization formulas,
cross entropy, and a brute-force bit-width search.  Only numpy is used.
"""

from __future__ import annotations

import itertools
import json
import struct

import numpy as np

RANGE_FLOOR = 1e-8
BN_EPS = 1e-5
BASELINE_BITS = 8


# -- the .nncm container ---------------------------------------------------


class NNCMFile:
    """Parsed `.nncm` file: manifest, node table and hook table as numpy arrays."""

    def __init__(self, data: bytes):
        if data[:4] != b"NNCM":
            raise ValueError("not an .nncm file")
        (mlen,) = struct.unpack("<I", data[4:8])
        self.manifest_bytes = mlen
        self.manifest = json.loads(data[8 : 8 + mlen].decode("utf-8"))
        self.blob = data[8 + mlen :]
        self.blob_bytes = len(self.blob)
        self.nodes = [
            dict(entry, params=self._arrays(entry["params"])) for entry in self.manifest["nodes"]
        ]
        self.hooks = [
            dict(entry, params=self._arrays(entry["params"])) for entry in self.manifest["hooks"]
        ]

    def _arrays(self, table):
        out = {}
        for entry in table:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            arr = np.frombuffer(self.blob, dtype="<f8", count=count, offset=entry["offset"])
            out[entry["name"]] = arr.reshape(shape).astype(np.float64)
        return out

    @classmethod
    def read(cls, path) -> "NNCMFile":
        with open(path, "rb") as fh:
            return cls(fh.read())

    def num_params(self) -> int:
        return sum(a.size for node in self.nodes for a in node["params"].values())

    def hooks_at(self, node_id, position, param_name=None, input_index=0):
        return [
            h
            for h in self.hooks
            if h["node_id"] == node_id
            and h["position"] == position
            and h["param_name"] == param_name
            and h["input_index"] == input_index
        ]


# -- hook formulas ---------------------------------------------------------


def grid_bounds(bits: int, grid: str):
    half = 2 ** (bits - 1)
    if grid == "weight":
        return -(half - 1), half - 1
    if grid == "signed_act":
        return -half, half - 1
    if grid == "unsigned_act":
        return 0, 2**bits - 1
    raise ValueError(grid)


def per_channel(arr, like):
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 0:
        return arr
    return arr.reshape((arr.shape[0],) + (1,) * (like.ndim - 1))


def symmetric_fake_quant(x, scale, bits: int, grid: str):
    """Levels step = scale / q_max; round half to even after clipping to the grid."""
    q_min, q_max = grid_bounds(bits, grid)
    step = per_channel(np.maximum(scale, RANGE_FLOOR), x) / q_max
    return np.round(np.clip(x / step, q_min, q_max)) * step


def asymmetric_range(rmin, rmax, bits: int):
    """Range [lo, hi] and integer zero point with zero exactly on a level.

    When the zero point rounds strictly inside the grid, either the upper
    bound is raised or the lower bound lowered so that the grid through the
    fixed bound hits zero; the wider of the two ranges is kept.  Both go
    through the ratio t = (z - levels) / z: a quantizer fed another
    quantizer's levels can see inputs exactly halfway between two levels,
    where one ulp of difference in the range decides the rounding.
    """
    levels = 2.0**bits - 1
    lo = np.minimum(np.asarray(rmin, dtype=np.float64), 0.0)
    hi = np.maximum(np.asarray(rmax, dtype=np.float64), 0.0)
    hi = np.maximum(hi, lo + RANGE_FLOOR)
    z = np.round(-lo * levels / (hi - lo))
    inside = (z > 0) & (z < levels)
    t = (np.where(inside, z, 1.0) - levels) / np.where(inside, z, 1.0)
    raised_hi = t * lo
    lowered_lo = hi / t
    raise_hi = (raised_hi - lo) > (hi - lowered_lo)
    new_lo = np.where(inside & ~raise_hi, lowered_lo, lo)
    new_hi = np.where(inside & raise_hi, raised_hi, hi)
    return new_lo, new_hi, z


def asymmetric_fake_quant(x, rmin, rmax, bits: int):
    lo, hi, z = asymmetric_range(rmin, rmax, bits)
    step = per_channel((hi - lo) / (2.0**bits - 1), x)
    lo, hi, z = per_channel(lo, x), per_channel(hi, x), per_channel(z, x)
    q = np.round(np.clip(x, lo, hi) / step + z)
    return (q - z) * step


def apply_hook(hook: dict, x):
    kind, attrs, params = hook["kind"], hook["attrs"], hook["params"]
    if kind == "fake_quant":
        if not attrs["initialized"]:
            raise ValueError("uninitialized quantizer in an exported file")
        if attrs["mode"] == "symmetric":
            return symmetric_fake_quant(x, params["scale"], attrs["bits"], attrs["grid"])
        return asymmetric_fake_quant(x, params["rmin"], params["rmax"], attrs["bits"])
    if kind == "param_mask":
        return x * params["mask"]
    if kind == "rb_gate":
        return x * (params["scores"] > 0)
    if kind == "binarize_weights":
        if not attrs["enabled"]:
            return x
        if attrs["scheme"] == "dorefa":
            alpha = np.mean(np.abs(x))
        else:
            alpha = np.abs(x).mean(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        return np.where(x >= 0, 1.0, -1.0) * alpha
    if kind == "binarize_activations":
        if not attrs["enabled"]:
            return x
        s = params["scale"]
        t = params["thresholds"].reshape(1, -1, 1, 1)
        return s * ((x - s * t) > 0)
    raise ValueError(f"no reference formula for hook kind {kind!r}")


# -- layer formulas ----------------------------------------------------------


def conv2d(x, w, b, stride: int, padding: int):
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = np.zeros((n, c, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, o, oh, ow))
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
            out += np.einsum("nchw,oc->nohw", patch, w[:, :, i, j])
    return out + b.reshape(1, -1, 1, 1)


def maxpool2d(x, k: int, stride: int):
    n, c, h, w = x.shape
    oh, ow = (h - k) // stride + 1, (w - k) // stride + 1
    out = np.full((n, c, oh, ow), -np.inf)
    for i in range(k):
        for j in range(k):
            out = np.maximum(out, x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride])
    return out


def batchnorm_eval(x, p):
    shape = (1, -1) + (1,) * (x.ndim - 2)
    mean, var = p["running_mean"].reshape(shape), p["running_var"].reshape(shape)
    return (x - mean) / np.sqrt(var + BN_EPS) * p["gamma"].reshape(shape) + p["beta"].reshape(shape)


def forward(model: NNCMFile, x: np.ndarray) -> np.ndarray:
    """Eval-mode logits of a parsed model file."""

    def hooked(value, hooks):
        for h in hooks:
            value = apply_hook(h, value)
        return value

    values = {"input": hooked(np.asarray(x, dtype=np.float64), model.hooks_at("input", "post_output"))}
    consumed = set()
    for node in model.nodes:
        nid, kind, a = node["id"], node["kind"], node["attrs"]
        ins = [
            hooked(values[ref], model.hooks_at(nid, "pre_input", input_index=i))
            for i, ref in enumerate(node["inputs"])
        ]
        consumed.update(node["inputs"])
        p = {name: hooked(arr, model.hooks_at(nid, "pre_param", param_name=name))
             for name, arr in node["params"].items()}
        if kind == "Conv2D":
            out = conv2d(ins[0], p["weight"], p["bias"], a.get("stride", 1), a.get("padding", 0))
        elif kind == "FullyConnected":
            out = ins[0] @ p["weight"].T + p["bias"]
        elif kind == "BatchNorm":
            out = batchnorm_eval(ins[0], p)
        elif kind == "ReLU":
            out = np.maximum(ins[0], 0.0)
        elif kind == "Add":
            out = ins[0] + ins[1]
        elif kind == "MaxPool2D":
            out = maxpool2d(ins[0], a["kernel"], a.get("stride", a["kernel"]))
        elif kind == "Flatten":
            out = ins[0].reshape(ins[0].shape[0], -1)
        else:
            raise ValueError(f"no reference formula for node kind {kind!r}")
        values[nid] = hooked(out, model.hooks_at(nid, "post_output"))
    (out_id,) = [n["id"] for n in model.nodes if n["id"] not in consumed]
    return values[out_id]


# -- losses and metrics ------------------------------------------------------


def accuracy_and_loss(logits: np.ndarray, labels: np.ndarray):
    """Argmax accuracy and mean cross entropy from a max-shifted log-softmax."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    labels = np.asarray(labels)
    acc = float(np.mean(np.argmax(logits, axis=1) == labels))
    loss = float(-np.mean(logp[np.arange(len(labels)), labels]))
    return acc, loss


def polynomial_level(init: float, target: float, epochs: int, power: float, epoch: int) -> float:
    if epochs == 0 or epoch >= epochs:
        return target
    return init + (target - init) * (epoch / epochs) ** power


# -- mixed precision ----------------------------------------------------------


def layer_shapes(model: NNCMFile, kept_out=None):
    """Walk a model file's nodes in order.

    ``kept_out`` maps a conv to the number of output filters it keeps.
    Returns per-node output shapes (batch excluded), parameter counts and
    the multiply-accumulates of conv and fc layers.
    """
    kept_out = kept_out or {}
    shapes = {"input": tuple(model.manifest["input_shape"])}
    params, macs = {}, {}
    for node in model.nodes:
        nid, kind, a = node["id"], node["kind"], node["attrs"]
        src = shapes[node["inputs"][0]]
        shape, count = src, 0
        if kind == "Conv2D":
            c, h, w = src
            o, _, kh, kw = node["params"]["weight"].shape
            o = kept_out.get(nid, o)
            s, p = a.get("stride", 1), a.get("padding", 0)
            shape = (o, (h + 2 * p - kh) // s + 1, (w + 2 * p - kw) // s + 1)
            count = o * c * kh * kw + o
            macs[nid] = o * c * kh * kw * shape[1] * shape[2]
        elif kind == "FullyConnected":
            o = node["params"]["weight"].shape[0]
            shape, count = (o,), o * src[0] + o
            macs[nid] = o * src[0]
        elif kind == "BatchNorm":
            count = 4 * src[0]
        elif kind == "MaxPool2D":
            k = a["kernel"]
            s = a.get("stride", k)
            shape = (src[0], (src[1] - k) // s + 1, (src[2] - k) // s + 1)
        elif kind == "Flatten":
            shape = (int(np.prod(src)),)
        shapes[nid] = shape
        params[nid] = count
    return shapes, params, macs


def pruned_param_count(checkpoint: NNCMFile) -> int:
    """Parameters left after removing the filters a checkpoint's pruning masks zero."""
    kept = {}
    for h in checkpoint.hooks:
        if h["family"] == "filter_pruning" and h["param_name"] == "weight":
            kept[h["node_id"]] = int(np.count_nonzero(h["params"]["mask"].reshape(-1)))
    return sum(layer_shapes(checkpoint, kept)[1].values())


def best_monotone_assignment(layers, choices, target_ratio, direction="at_least"):
    """Exhaustive search over all bit assignments.

    ``layers`` is a list of (name, avg_trace, macs, {bits: error}).  An
    assignment is admissible when bits never decrease as the trace grows
    (ties in trace ordered by position) and its MAC-weighted compression
    ratio against 8-bit weights meets the target.  Minimizes total
    trace-weighted error, then prefers more total bits, then the smaller
    tuple in trace order.  Returns {name: bits}, or None if none is admissible.
    """
    order = sorted(range(len(layers)), key=lambda i: (layers[i][1], i))
    macs = [float(layers[i][2]) for i in order]
    base = sum(m * BASELINE_BITS for m in macs)
    best = None
    for bits in itertools.product(sorted(choices), repeat=len(layers)):
        if any(bits[k] > bits[k + 1] for k in range(len(bits) - 1)):
            continue
        ratio = base / sum(m * b for m, b in zip(macs, bits))
        if (direction == "at_least" and ratio < target_ratio) or (
            direction == "at_most" and ratio > target_ratio
        ):
            continue
        metric = sum(layers[i][1] * layers[i][3][b] for i, b in zip(order, bits))
        key = (metric, -sum(bits), bits)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    return {layers[i][0]: b for i, b in zip(order, best[2])}


def hutchinson_sd(hessian: np.ndarray, num_samples: int) -> float:
    """Standard deviation of a Rademacher trace estimate averaged over N probes."""
    h = np.asarray(hessian, dtype=np.float64)
    off = float(np.sum(h * h) - np.sum(np.diag(h) ** 2))
    return float(np.sqrt(2.0 * off / num_samples))
