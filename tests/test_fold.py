"""The eval-time BatchNorm fold: an eval pass that records nothing runs a
Conv2D -> BatchNorm pair as one convolution on folded parameters, and every
other pass runs BatchNorm as its own op."""

import json
from pathlib import Path

import numpy as np
import pytest

from nncompress import graph as G
from nncompress import tensor as T
from nncompress.api import create_compressed_model, export_graph, scheduler_epoch_step
from nncompress.graph import INPUT_ID, Hook, HookPosition, NodeSpec
from nncompress.models import build_model
from nncompress.quantization import FakeQuantizer, initialize_quantizer_ranges
from nncompress.serialize import load_checkpoint, load_model, save_checkpoint
from nncompress.tensor import Tensor, no_grad
from topologies import chain_bn, rand_bn, rand_conv, rand_fc, simple

REPO = Path(__file__).resolve().parent.parent
CONFIGS = [None] + sorted(p.name for p in REPO.glob("configs/*.json"))


def _data(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 1, 8, 8)), rng.integers(0, 2, size=n)


def _compressed(config_name, model):
    """A compressed preset whose BatchNorms carry trained-looking statistics,
    with every schedule past its ramp, so masks and binarizer stages are live."""
    g = build_model(model, 3)
    rng = np.random.default_rng(4)
    for node in g.nodes.values():
        if node.kind == "BatchNorm":
            c = node.attrs["num_features"]
            node.params["gamma"].data = rng.uniform(-1.5, 1.5, size=c)
            node.params["beta"].data = rng.normal(size=c)
            node.params["running_mean"].data = rng.normal(size=c)
            node.params["running_var"].data = rng.uniform(0.05, 3.0, size=c)
    config = json.loads((REPO / "configs" / config_name).read_text()) if config_name else {}
    controllers, wrapped = create_compressed_model(g, config, [_data(32)])
    for _ in range(9):
        scheduler_epoch_step(controllers)
    return config, wrapped


def _logits(g, x, record=False):
    if record:
        return g.run(Tensor(x), mode="eval").data
    with no_grad():
        return g.run(Tensor(x), mode="eval").data


def _batch_norm_calls(monkeypatch, g, x, record=False) -> int:
    calls = []
    batch_norm = T.batch_norm
    monkeypatch.setattr(T, "batch_norm", lambda *a, **k: calls.append(1) or batch_norm(*a, **k))
    _logits(g, x, record)
    return len(calls)


def _close_to_recorded(g, x):
    folded, recorded = _logits(g, x), _logits(g, x, record=True)
    assert np.max(np.abs(folded - recorded)) <= 1e-9 * max(1.0, np.max(np.abs(recorded)))
    assert np.array_equal(np.argmax(folded, axis=1), np.argmax(recorded, axis=1))


@pytest.mark.parametrize("model", ["cnn-small", "cnn-residual"])
@pytest.mark.parametrize("config_name", CONFIGS, ids=lambda c: c or "uncompressed")
def test_folded_logits_match_a_recorded_pass(config_name, model):
    _, g = _compressed(config_name, model)
    _close_to_recorded(g, _data(64, 1)[0])


def test_only_a_tape_free_pass_folds(monkeypatch):
    """Uncompressed, every BatchNorm folds; under quant_int8, conv_b's
    activation quantizer keeps bn_b; a recorded pass folds none."""
    x = _data(8)[0]
    _, plain = _compressed(None, "cnn-residual")
    _, quantized = _compressed("quant_int8.json", "cnn-residual")
    assert _batch_norm_calls(monkeypatch, plain, x) == 0
    assert _batch_norm_calls(monkeypatch, quantized, x) == 1
    assert _batch_norm_calls(monkeypatch, plain, x, record=True) == 3
    assert _batch_norm_calls(monkeypatch, quantized, x, record=True) == 3


def _shared_conv(rng):
    """c1 feeds both bn1 and the Add after it."""
    g = G.ModelGraph(input_shape=(1, 6, 6))
    g.add_node(rand_conv("c1", INPUT_ID, 1, 4, 3, rng, padding=1))
    g.add_node(rand_bn("bn1", "c1", 4, rng))
    g.add_node(NodeSpec(id="add", kind="Add", inputs=["c1", "bn1"]))
    g.add_node(simple("flat", "Flatten", "add"))
    g.add_node(rand_fc("fc", "flat", 4 * 36, 2, rng))
    return g


def _hooked_chain_bn(position, node_id):
    def build(rng):
        g, _ = chain_bn(rng)
        g.insert_hook(Hook(node_id, position, "test", lambda v, ctx: T.mul(v, 2.0)))
        return g
    return build


@pytest.mark.parametrize("build, calls", [
    (_shared_conv, 1),
    (_hooked_chain_bn(HookPosition.POST_OUTPUT, "c1"), 1),
    (_hooked_chain_bn(HookPosition.PRE_INPUT, "bn1"), 1),
    (_hooked_chain_bn(HookPosition.POST_OUTPUT, "bn1"), 0),
], ids=["two_consumers", "conv_post_output", "bn_pre_input", "bn_post_output"])
def test_a_hook_or_a_second_consumer_keeps_the_batchnorm(monkeypatch, build, calls):
    """A BatchNorm whose convolution has another consumer, or a hook on the
    edge between them, runs as its own op; a hook after it does not stop the fold."""
    g = build(np.random.default_rng(11))
    x = np.random.default_rng(12).normal(size=(5,) + g.input_shape)
    assert _batch_norm_calls(monkeypatch, g, x) == calls
    _close_to_recorded(g, x)


@pytest.mark.parametrize("config_name", CONFIGS, ids=lambda c: c or "uncompressed")
def test_live_reloaded_and_restored_graphs_fold_alike(config_name, tmp_path):
    """The live graph, its export reloaded and the graph restored from its
    checkpoint give the same logits bit for bit; a pruned export, which has
    fewer channels, matches its own reload."""
    config, live = _compressed(config_name, "cnn-residual")
    exported = export_graph(live, tmp_path / "model.nncm")
    save_checkpoint(live, tmp_path / "checkpoint.nncm", config=config, epoch=8)
    x = _data(128, 2)[0]
    want = _logits(live, x)
    assert np.array_equal(_logits(load_checkpoint(tmp_path / "checkpoint.nncm")[0], x), want)
    reloaded = _logits(load_model(tmp_path / "model.nncm")[0], x)
    assert np.array_equal(reloaded, _logits(exported, x))
    if exported.num_params() == live.num_params():
        assert np.array_equal(reloaded, want)


@pytest.mark.parametrize("config_name", ["quant_int8.json", "quant_asym_percentile.json"])
def test_range_init_does_not_fold(monkeypatch, config_name):
    """Range init records, so it observes the same activations, and sets the
    same bits, as a graph whose BatchNorm declares no fold."""
    _, g = _compressed(config_name, "cnn-residual")
    batches = [_data(32, 5)[0], _data(32, 6)[0]]

    def scales(graph):
        initialize_quantizer_ranges(graph, batches)
        return [p.data.tobytes() for h in graph.hooks if isinstance(h.transform, FakeQuantizer)
                for _, p in h.transform.trainable_range_params()]

    with_fold = scales(g.copy())
    monkeypatch.setitem(G._KINDS, "BatchNorm", G._KINDS["BatchNorm"]._replace(fold=None))
    assert scales(g.copy()) == with_fold
