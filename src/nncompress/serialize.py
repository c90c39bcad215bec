"""Single-file container format for model graphs and training checkpoints.

Layout, in order:

* 4-byte magic ``NNCM``
* unsigned 32-bit little-endian manifest length
* UTF-8 JSON manifest (structure, attributes, parameter table, checksum)
* parameter blob: row-major float64, little-endian, parameters packed
  back to back at the byte offsets recorded in the manifest

Hook transforms survive a round trip when their class is registered with
``register_hook_codec`` and declares what a file stores: ``codec_kind``,
``codec_attrs`` (each saved attr and the value kind that checks it, which
the class's constructor checks too; see ``util``) and ``codec_params`` (its
tensor attributes' names).  One writer and one reader serve every kind.  Every rebuilt transform answers ``fits(shape)``, which
the loader asks at every position with the shape of what the hook wraps
(an activation's without its batch dimension), so a hook that does not
fit fails here.  Every bad file raises ``SerializationError``.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from typing import Dict, Optional, Tuple

import numpy as np

from .graph import GraphError, Hook, HookPosition, ModelGraph, NodeSpec
from .tensor import Tensor
from .util import BOOL, COUNT, LIST, OBJECT, STRING, one_of

MAGIC = b"NNCM"
FORMAT_VERSION = 1

_F8 = np.dtype("<f8")


class SerializationError(ValueError):
    """Corrupt, truncated, or incompatible model file."""


_CODECS: Dict[str, type] = {}


def register_hook_codec(cls: type) -> type:
    """Class decorator: hooks whose transform is a ``cls`` are saved and
    loaded under ``cls.codec_kind`` by its ``codec_attrs`` and ``codec_params``."""
    _CODECS[cls.codec_kind] = cls
    return cls


def _pack_params(blob: bytearray, params: Dict[str, Tensor]) -> list:
    """Append each parameter to ``blob``; their manifest entries."""
    table = []
    for name, t in params.items():
        # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
        arr = np.asarray(t.data, dtype=_F8)
        table.append(
            {
                "name": name,
                "offset": len(blob),
                "shape": list(arr.shape),
                "trainable": bool(t.requires_grad),
            }
        )
        blob.extend(arr.tobytes(order="C"))
    return table


# the manifest's own composite kinds
_OPTIONAL_NAME = (lambda v: v is None or STRING[0](v), "a string or null")
_SHAPE = (lambda v: isinstance(v, list) and all(map(COUNT[0], v)), "a list of non-negative integers")
_NAMES = (lambda v: isinstance(v, list) and all(map(STRING[0], v)), "a list of strings")
_POSITION = one_of([p.value for p in HookPosition])


def field(entry, key: str, where: str, kind=None):
    """``entry[key]``, which must pass ``kind`` when one is given; a
    missing field or an entry that is not an object is a malformed manifest
    too.  The hook reader checks every declared attr with it."""
    if not isinstance(entry, dict) or key not in entry:
        raise SerializationError(f"malformed manifest: {where} has no field {key!r}")
    value = entry[key]
    if kind is not None and not kind[0](value):
        raise SerializationError(f"malformed manifest: field {key!r} of {where} must be {kind[1]}, got {value!r}")
    return value


def _unpack_params(table: list, blob: bytes, owner: str) -> Dict[str, Tensor]:
    out = {}
    for entry in table:
        name = field(entry, "name", f"a parameter entry of {owner}", STRING)
        where = f"parameter {name!r} of {owner}"
        shape = field(entry, "shape", where, _SHAPE)
        count = math.prod(shape)
        start = field(entry, "offset", where, COUNT)
        end = start + 8 * count
        if end > len(blob):
            raise SerializationError(
                f"truncated blob: parameter {name!r} needs bytes [{start}, {end}) "
                f"but blob has {len(blob)}"
            )
        arr = np.frombuffer(blob, dtype=_F8, count=count, offset=start).reshape(shape).copy()
        out[name] = Tensor(arr, requires_grad=field(entry, "trainable", where, BOOL))
    return out


def serialize_model(graph: ModelGraph, extra: Optional[dict] = None) -> bytes:
    blob = bytearray()
    nodes = []
    for nid, node in graph.nodes.items():
        nodes.append(
            {"id": nid, "kind": node.kind, "inputs": list(node.inputs), "attrs": node.attrs,
             "params": _pack_params(blob, node.params)}
        )
    hooks = []
    for h in graph.hooks:
        tr = h.transform
        codec_kind = getattr(tr, "codec_kind", None)
        if _CODECS.get(codec_kind) is not type(tr):  # no codec_kind, or not the class registered under it
            raise SerializationError(
                f"hook {h.family!r} at {h.node_id!r} has no codec and cannot be saved: "
                f"{type(tr).__name__} is not the class registered for hook kind {codec_kind!r}"
            )
        hooks.append(
            {
                "node_id": h.node_id,
                "position": h.position.value,
                "param_name": h.param_name,
                "input_index": h.input_index,
                "family": h.family,
                "kind": codec_kind,
                "attrs": {name: getattr(tr, name) for name in tr.codec_attrs},
                "params": _pack_params(blob, {name: getattr(tr, name) for name in tr.codec_params}),
            }
        )
    manifest = {
        "format": "nncm",
        "version": FORMAT_VERSION,
        "input_shape": list(graph.input_shape),
        "nodes": nodes,
        "hooks": hooks,
        "extra": extra or {},
        "blob_size": len(blob),
        "checksum": hashlib.sha256(bytes(blob)).hexdigest(),
    }
    mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return MAGIC + struct.pack("<I", len(mbytes)) + mbytes + bytes(blob)


def deserialize_model(data: bytes) -> Tuple[ModelGraph, dict]:
    if len(data) < 8 or data[:4] != MAGIC:
        raise SerializationError("bad magic: not a model file")
    (mlen,) = struct.unpack("<I", data[4:8])
    if len(data) < 8 + mlen:
        raise SerializationError("truncated manifest")
    try:
        manifest = json.loads(data[8 : 8 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise SerializationError(f"unreadable manifest: {e}") from e
    if not isinstance(manifest, dict):
        raise SerializationError(
            f"malformed manifest: expected a JSON object, got {type(manifest).__name__}"
        )
    if manifest.get("version") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version {manifest.get('version')!r}, expected {FORMAT_VERSION}"
        )
    blob_size = field(manifest, "blob_size", "the manifest", COUNT)
    blob = data[8 + mlen :]
    if len(blob) < blob_size:
        raise SerializationError(
            f"truncated blob: manifest declares {blob_size} bytes, found {len(blob)}"
        )
    blob = blob[:blob_size]
    if hashlib.sha256(blob).hexdigest() != field(manifest, "checksum", "the manifest", STRING):
        raise SerializationError("checksum mismatch: parameter data is corrupt")

    try:
        graph = _build_graph(manifest, blob)
    except GraphError as e:  # add_node's and insert_hook's message, which names the node or hook
        raise SerializationError(str(e)) from e
    return graph, field(manifest, "extra", "the manifest", OBJECT)


def _build_graph(manifest: dict, blob: bytes) -> ModelGraph:
    graph = ModelGraph(input_shape=field(manifest, "input_shape", "the manifest", _SHAPE))
    for entry in field(manifest, "nodes", "the manifest", LIST):
        nid = field(entry, "id", "a node entry", STRING)
        where = f"node {nid!r}"
        graph._link(
            NodeSpec(
                id=nid,
                kind=field(entry, "kind", where, STRING),
                inputs=field(entry, "inputs", where, _NAMES),
                attrs=field(entry, "attrs", where, OBJECT),
                params=_unpack_params(field(entry, "params", where, LIST), blob, where),
            )
        )
    shapes = graph._validate()  # one pass once every node is in, not one per node
    for entry in field(manifest, "hooks", "the manifest", LIST):
        node_id = field(entry, "node_id", "a hook entry", STRING)
        where = f"the hook at {node_id!r}"
        transform = _decode_hook(entry, blob, where)
        hook = Hook(
            node_id=node_id,
            position=HookPosition(field(entry, "position", where, _POSITION)),
            family=field(entry, "family", where, STRING),
            transform=transform,
            param_name=field(entry, "param_name", where, _OPTIONAL_NAME),
            input_index=field(entry, "input_index", where, COUNT),
        )
        graph.insert_hook(hook)
        if hook.position is HookPosition.PRE_PARAM:
            what, shape = f"parameter {hook.param_name!r}", graph.nodes[node_id].params[hook.param_name].shape
        elif hook.position is HookPosition.PRE_INPUT:
            ref = graph.nodes[node_id].inputs[hook.input_index]
            what, shape = f"input {ref!r}", shapes[ref]
        else:
            what, shape = "its output", shapes[node_id]
        if not transform.fits(shape):
            got = {name: list(getattr(transform, name).shape) for name in transform.codec_params}
            raise SerializationError(
                f"malformed manifest: {where} ({transform.codec_kind}, parameters {got}) "
                f"does not fit {what} of shape {list(shape)}"
            )
    return graph


def _decode_hook(entry: dict, blob: bytes, where: str):
    """The transform of one hook entry, rebuilt from its class's declarations:
    each attr read with its field kind, then exactly its parameters, by name."""
    kind = field(entry, "kind", where, STRING)
    if kind not in _CODECS:
        raise SerializationError(f"{where}: no decoder registered for hook kind {kind!r}")
    cls = _CODECS[kind]
    params = _unpack_params(field(entry, "params", where, LIST), blob, where)
    attrs = field(entry, "attrs", where, OBJECT)
    transform = cls.__new__(cls)
    try:
        for name, attr_kind in cls.codec_attrs.items():
            setattr(transform, name, field(attrs, name, f"the {kind} attrs", attr_kind))
    except SerializationError as e:
        raise SerializationError(f"{where}: {e}") from e
    names = transform.codec_params  # a quantizer's depend on its mode, set above
    if set(params) != set(names):
        raise SerializationError(
            f"{where}: malformed manifest: a {kind} hook needs parameters {list(names)}, got {sorted(params)}"
        )
    for name, p in params.items():
        setattr(transform, name, p)
    return transform


def save_model(graph: ModelGraph, path, extra: Optional[dict] = None):
    # serialize before opening: a graph that cannot be saved leaves the file as it was
    data = serialize_model(graph, extra)
    with open(path, "wb") as f:
        f.write(data)


def load_model(path) -> Tuple[ModelGraph, dict]:
    with open(path, "rb") as f:
        return deserialize_model(f.read())


def save_checkpoint(graph: ModelGraph, path, config: dict, epoch: int, state: Optional[dict] = None):
    """Training snapshot: the model plus everything needed to resume or export."""
    save_model(graph, path, extra={"checkpoint": {"config": config, "epoch": epoch, "state": state or {}}})


def load_checkpoint(path) -> Tuple[ModelGraph, dict]:
    """The model and its ``{"config", "epoch", "state"}`` record: an object,
    a non-negative integer and an object."""
    graph, extra = load_model(path)
    if "checkpoint" not in extra:
        raise SerializationError("file is a plain model, not a training checkpoint")
    meta = field(extra, "checkpoint", "the manifest's extra", OBJECT)
    for key, kind in (("config", OBJECT), ("epoch", COUNT), ("state", OBJECT)):
        field(meta, key, "the checkpoint", kind)
    return graph, meta
