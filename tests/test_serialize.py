import functools
import inspect
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nncompress import serialize as S
from nncompress.api import create_compressed_model, scheduler_epoch_step
from nncompress.binarization import ActivationBinarizer, WeightBinarizer
from nncompress import tensor as T
from nncompress.graph import _KINDS, GraphError, Hook, HookPosition, INPUT_ID, ModelGraph, NodeSpec
from nncompress.models import build_model
from nncompress.quantization import (
    PERCENTILES, FakeQuantizer, QuantizationSpec, initialize_quantizer_ranges, insert_quantizers,
)
from nncompress.serialize import SerializationError
from nncompress.sparsity import ParamMask, RBGate
from nncompress.tensor import Tensor
from nncompress.util import cross_entropy

from test_api import REPO, stripes_like
from test_graph import bn_node, conv_node, fc_node


def small_model(seed=0):
    rng = np.random.default_rng(seed)
    g = ModelGraph(input_shape=(1, 4, 4))
    g.add_node(conv_node("c1", INPUT_ID, 1, 2, 3, padding=1, w=rng.normal(size=(2, 1, 3, 3)), b=rng.normal(size=2)))
    g.add_node(bn_node("bn", "c1", 2))
    g.add_node(NodeSpec(id="r", kind="ReLU", inputs=["bn"]))
    g.add_node(NodeSpec(id="flat", kind="Flatten", inputs=["r"]))
    g.add_node(fc_node("fc", "flat", 32, 2, w=rng.normal(size=(2, 32)), b=rng.normal(size=2)))
    return g


def test_round_trip_bit_identical(tmp_path):
    g = small_model()
    g.nodes["bn"].params["running_mean"].data[:] = [0.25, -0.5]
    path = tmp_path / "m.nncm"
    S.save_model(g, path)
    g2, extra = S.load_model(path)
    assert extra == {}
    x = np.random.default_rng(3).normal(size=(5, 1, 4, 4))
    a = g.run(Tensor(x)).data
    b = g2.run(Tensor(x)).data
    assert np.array_equal(a, b)
    # structure and trainability survive
    assert g2.nodes["c1"].attrs == g.nodes["c1"].attrs
    assert g2.nodes["fc"].params["weight"].requires_grad
    assert not g2.nodes["bn"].params["running_mean"].requires_grad


def test_double_round_trip_stable():
    g = small_model(7)
    data1 = S.serialize_model(g)
    g2, _ = S.deserialize_model(data1)
    data2 = S.serialize_model(g2)
    assert data1 == data2


ROUND_TRIP_CASES = [
    pytest.param(name, init, id=f"{name or 'uncompressed'}-{'init' if init else 'lazy'}")
    for name in [None] + sorted(p.name for p in REPO.glob("configs/*.json"))
    for init in (True, False)
    if init or name != "mixed_precision.json"  # its bit-width search needs labelled init data
]


@pytest.mark.parametrize("config_name, init", ROUND_TRIP_CASES)
def test_every_codec_round_trips(config_name, init):
    """A compressed cnn-small, its quantizer ranges set from init data or left
    lazy, serializes again to the same bytes after a reload, and the reload's
    eval logits equal the live graph's."""
    graph = build_model("cnn-small", 3)
    if config_name is not None:
        config = json.loads((REPO / "configs" / config_name).read_text())
        controllers, graph = create_compressed_model(graph, config, [stripes_like(64)] if init else None)
        for _ in range(9):  # past every schedule's ramp, so masks, gates and binarizers are live
            scheduler_epoch_step(controllers)
    data = S.serialize_model(graph)
    loaded, _ = S.deserialize_model(data)
    assert S.serialize_model(loaded) == data
    # without init data the activation quantizers stay lazy; the weight ones read their weights
    quantizers = [h.transform for h in loaded.hooks if h.family == "quantization"]
    assert any(not q.initialized for q in quantizers) == (bool(quantizers) and not init)
    x = np.random.default_rng(4).normal(size=(16, 1, 8, 8))
    assert np.array_equal(loaded.run(Tensor(x)).data, graph.run(Tensor(x)).data)


def test_bad_magic_rejected():
    with pytest.raises(SerializationError, match="bad magic"):
        S.deserialize_model(b"XXXX" + b"\x00" * 16)
    with pytest.raises(SerializationError, match="bad magic"):
        S.deserialize_model(b"NN")


def with_manifest(data: bytes, edit) -> bytes:
    """``data`` with its manifest replaced by ``edit(manifest)``."""
    (mlen,) = struct.unpack("<I", data[4:8])
    mbytes = json.dumps(edit(json.loads(data[8 : 8 + mlen])), sort_keys=True).encode()
    return S.MAGIC + struct.pack("<I", len(mbytes)) + mbytes + data[8 + mlen :]


def _without_offset(manifest):
    del manifest["nodes"][0]["params"][0]["offset"]
    return manifest


DELETE = object()  # a ``_setting`` value that removes the entry instead


def _setting(*path, value):
    """An edit that sets the manifest entry at ``path`` to ``value``."""

    def edit(manifest):
        target = manifest
        for key in path[:-1]:
            target = target[key]
        if value is DELETE:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        return manifest

    return edit


def _bad_param(key, value, expect, id):
    edit = _setting("nodes", 0, "params", 0, key, value=value)
    return pytest.param(edit, f"field '{key}' of parameter '.+' of node '.+' must be {expect}", id=id)


def _bad_node(key, value, expect, id):
    return pytest.param(_setting("nodes", 0, key, value=value), f"field '{key}' of node '.+' must be {expect}", id=id)


MALFORMED_MANIFESTS = [
    pytest.param(
        lambda m: {k: v for k, v in m.items() if k != "blob_size"},
        "the manifest has no field 'blob_size'",
        id="no-blob-size",
    ),
    pytest.param(_without_offset, "parameter '.+' of node '.+' has no field 'offset'", id="no-offset"),
    pytest.param(lambda m: [m], "expected a JSON object, got list", id="list"),
    _bad_param("offset", "0", "a non-negative integer, got '0'", "string-offset"),
    _bad_param("offset", -8, "a non-negative integer, got -8", "negative-offset"),
    _bad_param("offset", False, "a non-negative integer, got False", "bool-offset"),
    _bad_param("shape", "4", "a list of non-negative integers, got '4'", "string-shape"),
    _bad_param("shape", [2, -1], "a list of non-negative integers", "negative-dim"),
    _bad_param("shape", [2.0], "a list of non-negative integers", "float-dim"),
    _bad_param("trainable", "yes", "true or false", "string-trainable"),
    _bad_node("inputs", "input", "a list of strings", "string-inputs"),
    _bad_node("inputs", [0], "a list of strings", "int-input"),
    _bad_node("attrs", [], "an object", "list-attrs"),
    pytest.param(_setting("nodes", 0, "id", value=["conv1"]), "field 'id' of a node entry must be a string", id="list-id"),
    pytest.param(
        _setting("nodes", 0, "params", 0, "name", value=["weight"]),
        "field 'name' of a parameter entry of node '.+' must be a string",
        id="list-param-name",
    ),
    pytest.param(
        _setting("nodes", 0, "params", 0, "offset", value=10**6),
        r"truncated blob: parameter 'weight' needs bytes \[1000000, \d+\) but blob has \d+$",
        id="parameter-past-the-blob",
    ),
    pytest.param(_setting("extra", value=5), "field 'extra' of the manifest must be an object, got 5", id="int-extra"),
    pytest.param(
        _setting("blob_size", value="0"),
        "field 'blob_size' of the manifest must be a non-negative integer, got '0'",
        id="string-blob-size",
    ),
]


def quantized_model():
    g = small_model()
    insert_quantizers(g, QuantizationSpec())
    initialize_quantizer_ranges(g)
    return g


def binarized_model():
    """Hook 0 binarizes c1's weight, hook 1 its input."""
    g = small_model()
    g.insert_hook(Hook("c1", HookPosition.PRE_PARAM, "binarization", WeightBinarizer("xnor"), param_name="weight"))
    g.insert_hook(Hook("c1", HookPosition.PRE_INPUT, "binarization", ActivationBinarizer(1), input_index=0))
    return g


def masked_model():
    """Hook 0 masks c1's weight."""
    g = small_model()
    mask = ParamMask(np.ones(g.nodes["c1"].params["weight"].shape))
    g.insert_hook(Hook("c1", HookPosition.PRE_PARAM, "magnitude_sparsity", mask, param_name="weight"))
    return g


def gated_model():
    """Hook 0 gates c1's weight."""
    g = small_model()
    gate = RBGate(np.full(g.nodes["c1"].params["weight"].shape, 3.0))
    g.insert_hook(Hook("c1", HookPosition.PRE_PARAM, "rb_sparsity", gate, param_name="weight"))
    return g


def _bad_hook(index, key, value, expect, id, model=None):
    """A hook field (or, with a dotted key, one of its attrs or parameter
    entries) set to ``value``, in ``model`` or by default in ``quantized_model``."""
    path = ("hooks", index) + tuple(int(k) if k.isdigit() else k for k in key.split("."))
    return pytest.param(model or quantized_model, _setting(*path, value=value), expect, id=id)


# hook 0 quantizes the input per tensor; hook 1 is conv c1's per-channel weight quantizer
MALFORMED_HOOKS = [
    _bad_hook(0, "node_id", ["input"], "field 'node_id' of a hook entry must be a string", "list-node-id"),
    _bad_hook(0, "position", "sideways", "field 'position' of the hook at 'input' must be one of", "bad-position"),
    _bad_hook(0, "kind", ["fake_quant"], "field 'kind' of the hook at 'input' must be a string", "list-kind"),
    _bad_hook(0, "family", 3, "field 'family' of the hook at 'input' must be a string", "int-family"),
    _bad_hook(1, "param_name", ["weight"], "field 'param_name' of the hook at 'c1' must be a string or null",
              "list-param-name"),
    _bad_hook(0, "input_index", "0", "field 'input_index' of the hook at 'input' must be a non-negative integer",
              "string-input-index"),
    _bad_hook(0, "attrs.bits", "eight", "the hook at 'input': .*field 'bits' .* an integer of at least 2",
              "string-bits"),
    _bad_hook(0, "attrs.bits", 8.0, "field 'bits' .* an integer of at least 2", "float-bits"),
    _bad_hook(0, "attrs.bits", 1, "field 'bits' .* an integer of at least 2", "one-bit"),
    _bad_hook(0, "attrs.bits", True, "field 'bits' .* an integer of at least 2", "bool-bits"),
    _bad_hook(0, "attrs.mode", "bogus", "field 'mode' .* must be one of", "bad-mode"),
    _bad_hook(1, "attrs.grid", "bogus", "field 'grid' .* must be one of", "bad-grid"),
    _bad_hook(1, "attrs.per_channel", "yes", "field 'per_channel' .* must be true or false", "string-per-channel"),
    _bad_hook(0, "attrs.per_channel", True,
              r"the hook at 'input' \(fake_quant, parameters \{'scale': \[\]\}\) "
              r"does not fit its output of shape \[1, 4, 4\]", "per-channel-scalar-scale"),
    _bad_hook(1, "attrs.mode", "asymmetric", r"a fake_quant hook needs parameters \['rmin', 'rmax'\], got \['scale'\]",
              "mode-without-its-params"),
    _bad_hook(0, "attrs.bits", 33, "field 'bits' .* an integer of at least 2 and at most 32", "33-bits"),
    _bad_hook(0, "attrs.initialized", DELETE, "the fake_quant attrs has no field 'initialized'", "no-initialized"),
    _bad_hook(0, "attrs.initialized", "no", "field 'initialized' .* must be true or false", "string-initialized"),
    _bad_hook(0, "attrs.init_scheme", "bogus", "field 'init_scheme' .* must be one of", "bad-init-scheme"),
    _bad_hook(0, "attrs.percentiles", [1, 2, 3], "field 'percentiles' .* must be two numbers", "three-percentiles"),
    _bad_hook(0, "attrs.enabled", "no", "field 'enabled' of the binarize_weights attrs must be true or false",
              "string-weights-enabled", binarized_model),
    _bad_hook(0, "attrs.scheme", "bogus", "field 'scheme' of the binarize_weights attrs must be one of",
              "bad-weight-scheme", binarized_model),
    _bad_hook(1, "attrs.enabled", DELETE, "the binarize_activations attrs has no field 'enabled'",
              "no-activations-enabled", binarized_model),
    _bad_hook(1, "params.1", DELETE, r"a binarize_activations hook needs parameters \['scale', 'thresholds'\], got \['scale'\]",
              "no-thresholds", binarized_model),
    _bad_hook(0, "params.0.name", "bogus", r"a param_mask hook needs parameters \['mask'\], got \['bogus'\]",
              "renamed-mask", masked_model),
    # c1's weight is [2, 1, 3, 3]; each hook parameter shrinks so that its blob read stays in bounds
    _bad_hook(0, "params.0.shape", [1, 1, 3, 3],
              r"the hook at 'c1' \(param_mask, parameters \{'mask': \[1, 1, 3, 3\]\}\) does not fit "
              r"parameter 'weight' of shape \[2, 1, 3, 3\]", "one-filter-mask", masked_model),
    _bad_hook(0, "params.0.shape", [1, 1, 3, 3],
              r"the hook at 'c1' \(rb_gate, parameters \{'scores': \[1, 1, 3, 3\]\}\) does not fit "
              r"parameter 'weight' of shape \[2, 1, 3, 3\]", "one-filter-gate", gated_model),
    _bad_hook(1, "params.0.shape", [1],
              r"the hook at 'c1' \(fake_quant, parameters \{'scale': \[1\]\}\) does not fit "
              r"parameter 'weight' of shape \[2, 1, 3, 3\]", "one-scale-for-two-filters"),
    pytest.param(
        binarized_model,
        lambda m: _setting("hooks", 1, "param_name", value="bias")(_setting("hooks", 1, "position", value="pre_param")(m)),
        r"the hook at 'c1' \(binarize_activations, .*\) does not fit parameter 'bias' of shape \[2\]",
        id="activation-binarizer-on-a-parameter",
    ),
    # c1 reads the one-channel input; an empty threshold list keeps the blob read in bounds
    _bad_hook(1, "params.1.shape", [0],
              r"the hook at 'c1' \(binarize_activations, parameters \{'scale': \[\], 'thresholds': \[0\]\}\) "
              r"does not fit input 'input' of shape \[1, 4, 4\]$", "thresholds-for-no-channels", binarized_model),
    pytest.param(
        binarized_model,
        lambda m: _setting("hooks", 0, "attrs", "enabled", value=True)(
            _setting("hooks", 0, "param_name", value=None)(_setting("hooks", 0, "position", value="post_output")(m))
        ),
        r"the hook at 'c1' \(binarize_weights, parameters \{\}\) does not fit its output of shape \[2, 4, 4\]$",
        id="weight-binarizer-on-an-output",
    ),
    _bad_hook(1, "position", "post_output",
              r"'quantization' hook at c1/post_output: only a pre_param hook names a parameter .* got 'weight' and 0$",
              "param-name-on-an-output"),
    _bad_hook(0, "input_index", 1,
              r"'quantization' hook at input/post_output: only .* a pre_input hook an input index, got None and 1$",
              "input-index-on-an-output"),
    _bad_hook(0, "kind", "bogus", "the hook at 'input': no decoder registered for hook kind 'bogus'", "unknown-kind"),
]


@pytest.mark.parametrize("model,edit,message", MALFORMED_HOOKS)
def test_malformed_hook_is_a_serialization_error(model, edit, message):
    with pytest.raises(SerializationError, match=message):
        S.deserialize_model(with_manifest(S.serialize_model(model()), edit))


@pytest.mark.parametrize(
    "model, family, position",
    [(quantized_model, "quantization", "pre_param"), (binarized_model, "binarization", "pre_input")],
    ids=["weight-quantizer-on-the-input", "input-binarizer-before-the-input"],
)
def test_hook_before_the_input_is_a_graph_error(model, family, position):
    """Hook 1 of either model moved to the graph input, which has only an
    output: the load raises insert_hook's message as a SerializationError."""
    data = with_manifest(S.serialize_model(model()), _setting("hooks", 1, "node_id", value=INPUT_ID))
    with pytest.raises(SerializationError, match=f"^'{family}' hook at input/{position}: the input has only an output$"):
        S.deserialize_model(data)


# the live graphs keep their mask and gate hooks, which exports bake away
FUZZED_CONFIGS = ("binarize", "int8_sparse50", "rb_sparsity50", "quant_asym_percentile")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=5,
)


@functools.lru_cache(maxsize=None)
def live_manifest(config_name):
    config = json.loads((REPO / "configs" / f"{config_name}.json").read_text())
    _, g = create_compressed_model(build_model("cnn-small", 0), config)
    data = S.serialize_model(g)
    (mlen,) = struct.unpack("<I", data[4:8])
    return data, json.loads(data[8 : 8 + mlen])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(config_name=st.sampled_from(FUZZED_CONFIGS), draw=st.data())
def test_fuzzed_hook_field_loads_or_is_a_serialization_error(config_name, draw):
    """Deleting or replacing one hook attr or parameter name with any JSON
    value either loads or raises SerializationError, never anything else."""
    data, manifest = live_manifest(config_name)
    hook_index = draw.draw(st.integers(0, len(manifest["hooks"]) - 1), label="hook")
    hook = manifest["hooks"][hook_index]
    targets = [("attrs", key) for key in hook["attrs"]] + [("params", i, "name") for i in range(len(hook["params"]))]
    path = ("hooks", hook_index) + draw.draw(st.sampled_from(targets), label="field")
    value = draw.draw(st.just(DELETE) | JSON_VALUES, label="value")
    edited = with_manifest(data, lambda m: _setting(*path, value=value)(json.loads(json.dumps(m))))
    try:
        S.deserialize_model(edited)
    except SerializationError:
        pass


def test_filter_masks_fit_their_parameters():
    """A mask with one entry per filter of a weight, or per channel, loads."""
    g = small_model()
    for name, shape in (("weight", (2, 1, 1, 1)), ("bias", (2,))):
        mask = ParamMask(np.ones(shape))
        g.insert_hook(Hook("c1", HookPosition.PRE_PARAM, "filter_pruning", mask, param_name=name))
    loaded, _ = S.deserialize_model(S.serialize_model(g))
    assert [h.transform.mask.shape for h in loaded.hooks] == [(2, 1, 1, 1), (2,)]


def test_load_checks_each_hook_point_once(monkeypatch):
    """Inserting a hook looks up its (point, family) key; it does not rebuild
    the points of the hooks already in."""
    data = S.serialize_model(quantized_model())
    calls = []
    point = Hook.point

    def counted(self):
        calls.append(self.node_id)
        return point(self)

    monkeypatch.setattr(Hook, "point", counted)
    g, _ = S.deserialize_model(data)
    assert len(calls) == len(g.hooks) == 5


def test_duplicate_hook_in_file_is_rejected():
    def repeat_first_hook(manifest):
        manifest["hooks"].append(manifest["hooks"][0])
        return manifest

    data = with_manifest(S.serialize_model(quantized_model()), repeat_first_hook)
    with pytest.raises(SerializationError, match="duplicate 'quantization' hook at input/post_output"):
        S.deserialize_model(data)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d[:4] + struct.pack("<I", len(d)) + d[8:], "truncated manifest"),
        (lambda d: d[:4] + struct.pack("<I", 2) + b"\xff{", "unreadable manifest: 'utf-8' codec can't decode"),
        (lambda d: d[:4] + struct.pack("<I", 2) + b"{]", "unreadable manifest: Expecting property name"),
    ],
    ids=["manifest-past-the-end", "not-utf-8", "not-json"],
)
def test_unreadable_manifest_is_a_serialization_error(edit, message):
    with pytest.raises(SerializationError, match=message):
        S.deserialize_model(edit(S.serialize_model(small_model())))


def test_version_mismatch_rejected():
    patched = with_manifest(S.serialize_model(small_model()), lambda m: {**m, "version": 99})
    with pytest.raises(SerializationError, match="unsupported format version"):
        S.deserialize_model(patched)


@pytest.mark.parametrize("edit,message", MALFORMED_MANIFESTS)
def test_malformed_manifest_is_a_serialization_error(edit, message):
    with pytest.raises(SerializationError, match=message):
        S.deserialize_model(with_manifest(S.serialize_model(small_model()), edit))


def test_load_runs_one_shape_pass(monkeypatch):
    """Nodes are linked one by one and shapes inferred once, not once per node."""
    data = S.serialize_model(build_model("cnn-residual"))
    calls = []
    infer_node = ModelGraph._infer_node

    def counted(self, node, ins):
        calls.append(node.id)
        return infer_node(self, node, ins)

    monkeypatch.setattr(ModelGraph, "_infer_node", counted)
    g, _ = S.deserialize_model(data)
    assert calls == list(g.nodes)


def _conv2_in_channels(manifest):
    next(n for n in manifest["nodes"] if n["id"] == "conv2")["attrs"]["in_channels"] = 5
    return manifest


def _add_nodes(data: bytes) -> ModelGraph:
    """The graph of a model file, rebuilt with add_node one node at a time."""
    (mlen,) = struct.unpack("<I", data[4:8])
    manifest, blob = json.loads(data[8 : 8 + mlen]), data[8 + mlen :]
    g = ModelGraph(manifest["input_shape"])
    for n in manifest["nodes"]:
        g.add_node(NodeSpec(n["id"], n["kind"], n["inputs"], n["attrs"], S._unpack_params(n["params"], blob, n["id"])))
    return g


# cnn-small: node 0 is conv1 (weight [4, 1, 3, 3], then bias), node 1 is bn1 (gamma, beta, running_mean, running_var)
BN1_TABLE = "{'gamma': (4,), 'beta': (4,), 'running_mean': (4,), 'running_var': (4,)}"
MISMATCHED_PARAMETERS = [
    pytest.param(
        _setting("nodes", 1, "params", 3, "name", value="var"),
        f"BatchNorm 'bn1': parameters must be {BN1_TABLE}, got "
        "{'gamma': (4,), 'beta': (4,), 'running_mean': (4,), 'var': (4,)}",
        id="renamed-running-var",
    ),
    pytest.param(
        _setting("nodes", 0, "params", 1, value=DELETE),
        "Conv2D 'conv1': parameters must be {'weight': (4, 1, 3, 3), 'bias': (4,)}, got {'weight': (4, 1, 3, 3)}",
        id="conv-without-bias",
    ),
    pytest.param(
        _setting("nodes", 0, "params", 0, "shape", value=[4, 1, 3, 2]),
        "Conv2D 'conv1': parameters must be {'weight': (4, 1, 3, 3), 'bias': (4,)}, "
        "got {'weight': (4, 1, 3, 2), 'bias': (4,)}",
        id="misshaped-conv-weight",
    ),
]


@pytest.mark.parametrize("edit, message", MISMATCHED_PARAMETERS)
def test_parameter_table_mismatch_fails_load_and_add_node(edit, message):
    """A node whose parameters differ from its kind's table, by name or by
    shape, fails the load with the message of the GraphError add_node raises
    for it."""
    data = S.serialize_model(build_model("cnn-small"))
    assert list(_add_nodes(data).nodes) == list(S.deserialize_model(data)[0].nodes)
    edited = with_manifest(data, edit)
    with pytest.raises(SerializationError, match=f"^{re.escape(message)}$"):
        S.deserialize_model(edited)
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        _add_nodes(edited)


# a BatchNorm attr that numpy would read unchecked: a TypeError at run time, or a loss of nan
BAD_BATCHNORM_ATTRS = [
    pytest.param("eps", "x", "a finite number > 0, got 'x'", id="string-eps"),
    pytest.param("eps", None, "a finite number > 0, got None", id="null-eps"),
    pytest.param("eps", True, "a finite number > 0, got True", id="bool-eps"),
    pytest.param("eps", -1.0, "a finite number > 0, got -1.0", id="negative-eps"),
    pytest.param("eps", 0, "a finite number > 0, got 0", id="zero-eps"),
    pytest.param("eps", float("nan"), "a finite number > 0, got nan", id="nan-eps"),
    pytest.param("eps", float("inf"), "a finite number > 0, got inf", id="inf-eps"),
    pytest.param("momentum", "0.1", "a number in [0, 1], got '0.1'", id="string-momentum"),
    pytest.param("momentum", -0.1, "a number in [0, 1], got -0.1", id="negative-momentum"),
    pytest.param("momentum", 1.5, "a number in [0, 1], got 1.5", id="momentum-above-1"),
    pytest.param("momentum", float("nan"), "a number in [0, 1], got nan", id="nan-momentum"),
]


@pytest.mark.parametrize("attr, value, expect", BAD_BATCHNORM_ATTRS)
def test_bad_batchnorm_attr_fails_load_and_add_node(attr, value, expect):
    edited = with_manifest(S.serialize_model(build_model("cnn-small")), _setting("nodes", 1, "attrs", attr, value=value))
    message = f"^BatchNorm 'bn1': attr {attr!r} must be {re.escape(expect)}$"
    with pytest.raises(SerializationError, match=message):
        S.deserialize_model(edited)
    with pytest.raises(GraphError, match=message):
        _add_nodes(edited)


@st.composite
def valid_graphs(draw):
    """A random valid graph over every node kind: a chain of convolutions,
    BatchNorms, ReLUs, pools and residual Adds, then Flatten and a fully
    connected head, each parameter drawn in the shape its kind's table gives."""
    c, size = draw(st.integers(1, 3), label="channels"), draw(st.integers(1, 6), label="size")
    g = ModelGraph((c, size, size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))

    def add(kind, inputs, **attrs):
        params = {}
        for name, shape in _KINDS[kind].params(attrs).items():
            data = rng.normal(size=shape)
            params[name] = Tensor(np.abs(data) + 0.5 if name == "running_var" else data, requires_grad=True)
        g.add_node(NodeSpec(f"n{len(g.nodes)}", kind, inputs, attrs, params))
        return f"n{len(g.nodes) - 1}"

    cur = INPUT_ID
    for _ in range(draw(st.integers(0, 6), label="depth")):
        shapes = g.infer_shapes()
        c, h, _ = shapes[cur]
        kind = draw(st.sampled_from(["Conv2D", "BatchNorm", "ReLU", "Add", "MaxPool2D"]), label="kind")
        if kind == "Conv2D":
            p = draw(st.integers(0, 1), label="padding")
            k, s = draw(st.integers(1, min(3, h + 2 * p)), label="kernel"), draw(st.integers(1, 2), label="stride")
            cout = draw(st.integers(1, 4), label="out_channels")
            cur = add(kind, [cur], in_channels=c, out_channels=cout, kernel=k, stride=s, padding=p)
        elif kind == "BatchNorm":
            cur = add(kind, [cur], num_features=c)
        elif kind == "Add":  # a residual from any earlier value of the same shape, cur itself included
            cur = add(kind, [draw(st.sampled_from([n for n in shapes if shapes[n] == shapes[cur]])), cur])
        elif kind == "MaxPool2D":
            cur = add(kind, [cur], kernel=draw(st.integers(1, min(2, h)), label="window"), stride=2)
        else:
            cur = add(kind, [cur])
    features = int(np.prod(g.infer_shapes()[cur]))
    add("FullyConnected", [add("Flatten", [cur])], in_features=features, out_features=draw(st.integers(1, 3)))
    return g


@settings(derandomize=True, max_examples=100, deadline=None)
@given(g=valid_graphs())
def test_random_graph_round_trips_bit_identical(g):
    """serialize -> deserialize -> eval gives the logits of the graph saved."""
    loaded, _ = S.deserialize_model(S.serialize_model(g))
    assert [(n.id, n.kind, n.inputs, n.attrs) for n in loaded.nodes.values()] == [
        (n.id, n.kind, n.inputs, n.attrs) for n in g.nodes.values()
    ]
    x = Tensor(np.random.default_rng(0).normal(size=(3, *g.input_shape)))
    assert np.array_equal(loaded.run(x).data, g.run(x).data)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(g=valid_graphs())
def test_seeded_sweeps_match_dot_product_roots(g):
    """On any valid graph, grad with ``grad_output`` gives the bytes of the
    sweep from ``tsum(mul(root, Tensor(grad_output)))``: at the train-mode
    logits, and at each weight's create_graph gradient (a Hessian probe)."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, *g.input_shape)))
    out = g.run(x, mode="train", rng=np.random.default_rng(1))
    weights = [n.params["weight"] for n in g.nodes.values() if "weight" in n.params]
    u = rng.normal(size=out.shape)
    seeded = T.grad(out, weights, grad_output=u)
    dotted = T.grad(T.tsum(T.mul(out, Tensor(u))), weights)
    assert [s.data.tobytes() for s in seeded] == [d.data.tobytes() for d in dotted]
    loss = cross_entropy(out, rng.integers(0, out.shape[1], size=out.shape[0]))
    for w in weights:
        (gw,) = T.grad(loss, [w], create_graph=True)
        v = rng.integers(0, 2, size=w.shape).astype(np.float64) * 2.0 - 1.0
        (seeded,) = T.grad(gw, [w], grad_output=v)
        (dotted,) = T.grad(T.tsum(T.mul(gw, Tensor(v))), [w])
        assert seeded.data.tobytes() == dotted.data.tobytes()


def test_shape_error_names_the_node():
    """A shape mismatch in a middle node raises add_node's message for that node."""
    with pytest.raises(SerializationError, match=r"^Conv2D 'conv2': input channels 4 != in_channels 5$"):
        S.deserialize_model(with_manifest(S.serialize_model(build_model("cnn-small")), _conv2_in_channels))


def _after_conv2_mismatch(edit):
    def both(manifest):
        return edit(_conv2_in_channels(manifest))

    return both


@pytest.mark.parametrize(
    "edit, message",
    [
        (_setting("nodes", 8, "inputs", value=["later"]), "node 'fc' references undefined input 'later'"),
        (_setting("nodes", 8, "inputs", value=["flat", "flat"]), "FullyConnected node 'fc' needs exactly 1 input"),
        (_setting("nodes", 8, "id", value="conv1"), "duplicate or reserved node id 'conv1'"),
    ],
    ids=["undefined-input", "arity", "duplicate-id"],
)
def test_structural_errors_precede_shape_inference(edit, message):
    """Each node's id, kind, inputs and arity are checked as it is linked, so
    a structural fault in the last node wins over a shape fault before it."""
    data = with_manifest(S.serialize_model(build_model("cnn-small")), _after_conv2_mismatch(edit))
    with pytest.raises(SerializationError, match=re.escape(message)):
        S.deserialize_model(data)


def test_checksum_detects_corruption():
    data = bytearray(S.serialize_model(small_model()))
    data[-3] ^= 0xFF
    with pytest.raises(SerializationError, match="checksum"):
        S.deserialize_model(bytes(data))


def test_truncated_blob_rejected():
    data = S.serialize_model(small_model())
    with pytest.raises(SerializationError, match="truncated"):
        S.deserialize_model(data[:-10])


def test_unserializable_hook_rejected():
    g = small_model()
    g.insert_hook(Hook("fc", HookPosition.POST_OUTPUT, "fam", lambda t, ctx: t))
    with pytest.raises(SerializationError, match="no codec"):
        S.serialize_model(g)


def test_failed_save_leaves_the_existing_file(tmp_path):
    g = build_model("cnn-small")
    path = tmp_path / "m.nncm"
    S.save_model(g, path)
    saved = path.read_bytes()
    g.insert_hook(Hook("fc", HookPosition.POST_OUTPUT, "fam", lambda t, ctx: t))
    with pytest.raises(SerializationError, match="no codec"):
        S.save_model(g, path)
    assert path.read_bytes() == saved


@S.register_hook_codec
class _ScaleTransform:
    codec_kind = "test_scale"
    codec_attrs = {}
    codec_params = ("factor",)

    def __init__(self, factor: Tensor):
        self.factor = factor

    def __call__(self, t, ctx):
        return T.mul(t, T.broadcast_to(T.reshape(self.factor, (1,) * t.ndim), t.shape))

    def fits(self, shape) -> bool:  # one factor for the whole tensor
        return self.factor.shape == ()


def test_hook_with_codec_round_trips():
    g = small_model(2)
    g.insert_hook(Hook("fc", HookPosition.POST_OUTPUT, "scale", _ScaleTransform(Tensor(np.array(2.5))), param_name=None))
    g2, _ = S.deserialize_model(S.serialize_model(g))
    assert len(g2.hooks) == 1
    assert g2.hooks[0].family == "scale"
    x = np.random.default_rng(0).normal(size=(3, 1, 4, 4))
    assert np.array_equal(g.run(Tensor(x)).data, g2.run(Tensor(x)).data)


class _ScaleSubclass(_ScaleTransform):
    """Inherits the declarations of test_scale, registered for its base class only."""


class _UnknownKind(_ScaleTransform):
    codec_kind = "test_unknown"  # registered for no class


@pytest.mark.parametrize(
    "cls, kind", [(_ScaleSubclass, "test_scale"), (_UnknownKind, "test_unknown")], ids=["subclass", "unknown-kind"]
)
def test_transform_of_an_unregistered_class_is_not_saved(tmp_path, cls, kind):
    """A file that no loader could rebuild is never written."""
    g = small_model(2)
    g.insert_hook(Hook("fc", HookPosition.POST_OUTPUT, "scale", cls(Tensor(np.array(2.5))), param_name=None))
    message = f"^hook 'scale' at 'fc' has no codec .*: {cls.__name__} is not the class registered for hook kind '{kind}'$"
    with pytest.raises(SerializationError, match=message):
        S.save_model(g, tmp_path / "m.nncm")
    assert not (tmp_path / "m.nncm").exists()


# values for a constructor argument: each one that the argument's codec_attrs kind refuses must be refused
CONSTRUCTOR_PROBES = (-1, 0, 1, 1.5, 8.0, 33, True, None, "bogus", [], (90, 10), [1, 2, 3], ("a", "b"))


@pytest.mark.parametrize("cls, required", [(FakeQuantizer, {}), (WeightBinarizer, {"scheme": "xnor"})])
def test_constructors_refuse_what_the_reader_refuses(cls, required):
    """A hook built with an argument that its codec_attrs kind refuses would
    save a file that load_model refuses, so the constructor raises first."""
    args = cls.codec_attrs.keys() & inspect.signature(cls).parameters.keys()
    assert args  # every hook class here takes some of its saved attrs as arguments
    for name in sorted(args):
        test, description = cls.codec_attrs[name]
        for probe in CONSTRUCTOR_PROBES:
            if not test(probe):
                with pytest.raises(ValueError, match=f"^{name} must be {re.escape(description)}, got "):
                    cls(**{**required, name: probe})


def test_an_accepted_quantizer_saves_and_loads():
    """The percentile pair is a tuple when built and a list when read back;
    the kind accepts both, and refuses the pair in the wrong order."""
    assert PERCENTILES[0]((10, 90.0)) and PERCENTILES[0]([10, 90.0])
    with pytest.raises(ValueError, match=r"^percentiles must be two numbers in \[0, 100\]"):
        FakeQuantizer(percentiles=(90, 10), init_scheme="percentile")
    g = small_model(5)
    fq = FakeQuantizer(bits=4, mode="asymmetric", percentiles=(10, 90), init_scheme="percentile")
    g.insert_hook(Hook("fc", HookPosition.POST_OUTPUT, "quantization", fq))
    loaded, _ = S.deserialize_model(S.serialize_model(g))
    back = loaded.hooks[0].transform
    assert {name: getattr(back, name) for name in fq.codec_attrs} == {
        "mode": "asymmetric", "bits": 4, "grid": "signed_act", "per_channel": False, "initialized": False,
        "init_scheme": "percentile", "percentiles": [10.0, 90.0],
    }


def test_checkpoint_round_trip(tmp_path):
    g = small_model(4)
    cfg = {"seed": 9, "algorithms": [{"algorithm": "magnitude_sparsity", "sparsity_target": 0.5}]}
    path = tmp_path / "ckpt.nncm"
    S.save_checkpoint(g, path, config=cfg, epoch=3, state={"sparsity_level": 0.25})
    g2, ck = S.load_checkpoint(path)
    assert ck["config"] == cfg
    assert ck["epoch"] == 3
    assert ck["state"] == {"sparsity_level": 0.25}
    with pytest.raises(SerializationError, match="plain model"):
        S.save_model(g, tmp_path / "plain.nncm")
        S.load_checkpoint(tmp_path / "plain.nncm")
