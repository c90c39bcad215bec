import copy
import weakref

import numpy as np
import pytest

from nncompress import tensor as T
from nncompress.binarization import ActivationBinarizer
from nncompress import graph as G
from nncompress.graph import (
    ExecContext,
    GraphError,
    Hook,
    HookPosition,
    INPUT_ID,
    ModelGraph,
    NodeSpec,
)
from nncompress.models import PRESETS, build_model
from nncompress.pruning import PruningBuilder, installed_filter_masks, propagate_pruning_masks, strip_pruned_filters
from nncompress.quantization import FakeQuantizer
from nncompress.serialize import serialize_model
from nncompress.sparsity import ParamMask, RBGate
from nncompress.tensor import ShapeError, Tensor
from topologies import TOPOLOGIES


def conv_node(nid, src, cin, cout, k, stride=1, padding=0, w=None, b=None):
    w = w if w is not None else np.zeros((cout, cin, k, k))
    b = b if b is not None else np.zeros(cout)
    return NodeSpec(
        id=nid,
        kind="Conv2D",
        inputs=[src],
        attrs={"in_channels": cin, "out_channels": cout, "kernel": k, "stride": stride, "padding": padding},
        params={"weight": Tensor(w, requires_grad=True), "bias": Tensor(b, requires_grad=True)},
    )


def fc_node(nid, src, fin, fout, w=None, b=None):
    w = w if w is not None else np.zeros((fout, fin))
    b = b if b is not None else np.zeros(fout)
    return NodeSpec(
        id=nid,
        kind="FullyConnected",
        inputs=[src],
        attrs={"in_features": fin, "out_features": fout},
        params={"weight": Tensor(w, requires_grad=True), "bias": Tensor(b, requires_grad=True)},
    )


def bn_node(nid, src, c):
    return NodeSpec(
        id=nid,
        kind="BatchNorm",
        inputs=[src],
        attrs={"num_features": c},
        params={
            "gamma": Tensor(np.ones(c), requires_grad=True),
            "beta": Tensor(np.zeros(c), requires_grad=True),
            "running_mean": Tensor(np.zeros(c)),
            "running_var": Tensor(np.ones(c)),
        },
    )


def test_flatten_identity_graph():
    g = ModelGraph(input_shape=(4,))
    g.add_node(NodeSpec(id="flat", kind="Flatten", inputs=[INPUT_ID]))
    x = np.array([[1.0, 2.0, 3.0, 4.0]])
    out = g.run(Tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_conv_graph_hand_computed():
    g = ModelGraph(input_shape=(1, 3, 3))
    g.add_node(conv_node("c", INPUT_ID, 1, 1, 2, w=np.ones((1, 1, 2, 2))))
    out = g.run(Tensor(np.ones((1, 1, 3, 3))))
    np.testing.assert_allclose(out.data, np.full((1, 1, 2, 2), 4.0))


def test_zero_weight_hook_leaves_bias():
    g = ModelGraph(input_shape=(1, 3, 3))
    g.add_node(conv_node("c", INPUT_ID, 1, 1, 2, w=np.ones((1, 1, 2, 2)), b=np.array([0.5])))
    g.insert_hook(Hook("c", HookPosition.PRE_PARAM, "zero", lambda t, ctx: T.mul(t, 0.0), param_name="weight"))
    out = g.run(Tensor(np.ones((1, 1, 3, 3))))
    np.testing.assert_allclose(out.data, np.full((1, 1, 2, 2), 0.5))


def test_hook_order_is_registration_order():
    def build(order):
        g = ModelGraph(input_shape=(2,))
        g.add_node(NodeSpec(id="flat", kind="Flatten", inputs=[INPUT_ID]))
        for fam, fn in order:
            g.insert_hook(Hook("flat", HookPosition.POST_OUTPUT, fam, fn))
        return g.run(Tensor(np.array([[1.0, 2.0]]))).data

    double = lambda t, ctx: T.mul(t, 2.0)
    plus_one = lambda t, ctx: T.add(t, 1.0)
    np.testing.assert_array_equal(build([("a", double), ("b", plus_one)]), [[3.0, 5.0]])
    np.testing.assert_array_equal(build([("a", plus_one), ("b", double)]), [[4.0, 6.0]])


def test_duplicate_family_hook_rejected():
    g = ModelGraph(input_shape=(2,))
    g.add_node(NodeSpec(id="flat", kind="Flatten", inputs=[INPUT_ID]))
    g.insert_hook(Hook("flat", HookPosition.POST_OUTPUT, "fam", lambda t, ctx: t))
    with pytest.raises(GraphError, match="duplicate"):
        g.insert_hook(Hook("flat", HookPosition.POST_OUTPUT, "fam", lambda t, ctx: t))
    # a different family at the same point stacks fine
    g.insert_hook(Hook("flat", HookPosition.POST_OUTPUT, "other", lambda t, ctx: t))


def test_assigning_hooks_resets_the_duplicate_check():
    g = ModelGraph(input_shape=(2,))
    g.add_node(NodeSpec(id="flat", kind="Flatten", inputs=[INPUT_ID]))
    g.insert_hook(Hook("flat", HookPosition.POST_OUTPUT, "fam", lambda t, ctx: t))
    with pytest.raises(AttributeError):
        g.hooks.append(Hook("flat", HookPosition.POST_OUTPUT, "fam", lambda t, ctx: t))
    g.hooks = [h for h in g.hooks if h.family != "fam"]
    g.insert_hook(Hook("flat", HookPosition.POST_OUTPUT, "fam", lambda t, ctx: t))
    g.hooks = list(g.hooks)
    with pytest.raises(GraphError, match="duplicate"):
        g.insert_hook(Hook("flat", HookPosition.POST_OUTPUT, "fam", lambda t, ctx: t))


def test_assigning_duplicate_hooks_is_rejected():
    """Assigning a sequence checks duplicates as insert_hook does, and a
    rejected sequence leaves the graph's hooks as they were."""
    g = ModelGraph(input_shape=(2,))
    g.add_node(NodeSpec(id="flat", kind="Flatten", inputs=[INPUT_ID]))
    g.insert_hook(Hook("flat", HookPosition.POST_OUTPUT, "fam", lambda t, ctx: t))
    twin = Hook("flat", HookPosition.POST_OUTPUT, "fam", lambda t, ctx: t)
    with pytest.raises(GraphError, match="duplicate 'fam' hook at flat/post_output"):
        g.hooks = [*g.hooks, twin]
    assert len(g.hooks) == 1
    assert g.hooks_at("flat", HookPosition.POST_OUTPUT) == list(g.hooks)


def test_hook_on_unknown_node_rejected():
    g = ModelGraph(input_shape=(2,))
    g.add_node(NodeSpec(id="flat", kind="Flatten", inputs=[INPUT_ID]))
    with pytest.raises(GraphError, match="unknown node"):
        g.insert_hook(Hook("nope", HookPosition.POST_OUTPUT, "fam", lambda t, ctx: t))
    with pytest.raises(GraphError, match="no parameter"):
        g.insert_hook(Hook("flat", HookPosition.PRE_PARAM, "fam", lambda t, ctx: t, param_name="weight"))


@pytest.mark.parametrize(
    "position, param_name", [(HookPosition.PRE_PARAM, "weight"), (HookPosition.PRE_INPUT, None)], ids=["param", "input"]
)
def test_input_takes_only_output_hooks(position, param_name):
    """The graph input has neither parameters nor inputs, so a hook before
    it is a GraphError naming the hook, and the graph keeps no trace of it."""
    g = ModelGraph(input_shape=(2,))
    g.add_node(NodeSpec(id="flat", kind="Flatten", inputs=[INPUT_ID]))
    with pytest.raises(GraphError, match=f"^'fam' hook at input/{position.value}: the input has only an output$"):
        g.insert_hook(Hook(INPUT_ID, position, "fam", lambda t, ctx: t, param_name=param_name))
    assert g.hooks == ()
    g.insert_hook(Hook(INPUT_ID, HookPosition.POST_OUTPUT, "fam", lambda t, ctx: t))


def test_identity_hooks_are_transparent():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(2, 3))
    x = rng.normal(size=(4, 3))
    plain = ModelGraph(input_shape=(3,))
    plain.add_node(fc_node("fc", INPUT_ID, 3, 2, w=w))
    hooked = ModelGraph(input_shape=(3,))
    hooked.add_node(fc_node("fc", INPUT_ID, 3, 2, w=w))
    hooked.insert_hook(Hook("fc", HookPosition.PRE_PARAM, "id", lambda t, ctx: t, param_name="weight"))
    hooked.insert_hook(Hook("fc", HookPosition.POST_OUTPUT, "id", lambda t, ctx: t))
    hooked.insert_hook(Hook(INPUT_ID, HookPosition.POST_OUTPUT, "id", lambda t, ctx: t))
    a = plain.run(Tensor(x)).data
    b = hooked.run(Tensor(x)).data
    assert np.array_equal(a, b)


def test_nodes_must_reference_existing_ids():
    g = ModelGraph(input_shape=(2,))
    with pytest.raises(GraphError, match="undefined input"):
        g.add_node(NodeSpec(id="a", kind="Flatten", inputs=["later"]))
    g.add_node(NodeSpec(id="a", kind="Flatten", inputs=[INPUT_ID]))
    with pytest.raises(GraphError, match="duplicate or reserved"):
        g.add_node(NodeSpec(id="a", kind="Flatten", inputs=[INPUT_ID]))
    with pytest.raises(GraphError, match="duplicate or reserved"):
        g.add_node(NodeSpec(id=INPUT_ID, kind="Flatten", inputs=[INPUT_ID]))


def test_shape_inference_and_mismatch_errors():
    g = ModelGraph(input_shape=(1, 8, 8))
    g.add_node(conv_node("c1", INPUT_ID, 1, 4, 3, padding=1))
    g.add_node(bn_node("bn", "c1", 4))
    g.add_node(NodeSpec(id="r", kind="ReLU", inputs=["bn"]))
    g.add_node(NodeSpec(id="p", kind="MaxPool2D", inputs=["r"], attrs={"kernel": 2}))
    g.add_node(NodeSpec(id="flat", kind="Flatten", inputs=["p"]))
    g.add_node(fc_node("fc", "flat", 64, 2))
    shapes = g.infer_shapes()
    assert shapes["c1"] == (4, 8, 8)
    assert shapes["p"] == (4, 4, 4)
    assert shapes["flat"] == (64,)
    assert shapes["fc"] == (2,)

    bad = ModelGraph(input_shape=(1, 8, 8))
    with pytest.raises(GraphError, match="in_channels"):
        bad.add_node(conv_node("c1", INPUT_ID, 3, 4, 3))


def test_rejected_node_is_unlinked():
    g = ModelGraph(input_shape=(3,))
    with pytest.raises(GraphError, match="FullyConnected 'fc': input features 3 != in_features 4"):
        g.add_node(fc_node("fc", INPUT_ID, 4, 2))
    g.add_node(NodeSpec(id="r", kind="ReLU", inputs=[INPUT_ID]))
    assert list(g.nodes) == ["r"]
    assert g.infer_shapes()["r"] == (3,)


@pytest.mark.parametrize("attrs", [{"eps": 1}, {"eps": 1e-3}, {"momentum": 0}, {"momentum": 1.0}])
def test_batchnorm_attrs_in_range_accepted(attrs):
    """An integer eps and either end of momentum's range are accepted; the
    values rejected are in test_serialize.BAD_BATCHNORM_ATTRS."""
    spec = bn_node("bn", INPUT_ID, 2)
    spec.attrs.update(attrs)
    ModelGraph(input_shape=(2, 4, 4)).add_node(spec)


def _added(spec):
    return lambda: ModelGraph(input_shape=(2, 8, 8)).add_node(spec)


def _pool(**attrs):
    return _added(NodeSpec(id="p", kind="MaxPool2D", inputs=[INPUT_ID], attrs=attrs))


_IMAGE = np.zeros((1, 2, 8, 8))


@pytest.mark.parametrize(
    "build, error, match",
    [
        (_added(conv_node("c", INPUT_ID, 2, 2, 3, stride=0)), GraphError, "Conv2D 'c': attr 'stride'"),
        (_added(conv_node("c", INPUT_ID, 2, 2, 0)), GraphError, "Conv2D 'c': attr 'kernel'"),
        (_added(conv_node("c", INPUT_ID, 2, 2, 3, padding=-1)), GraphError, "Conv2D 'c': attr 'padding'"),
        (_pool(kernel=0), GraphError, "MaxPool2D 'p': attr 'kernel'"),
        (_pool(kernel=2, stride=0), GraphError, "MaxPool2D 'p': attr 'stride'"),
        (lambda: T.im2col(_IMAGE, 3, 3, 0, 0), ShapeError, "im2col: .*stride 0x0"),
        (lambda: T.im2col(_IMAGE, 0, 0, 1, 1), ShapeError, "im2col: window 0x0"),
        (lambda: T.im2col(_IMAGE, 3, 3, 1, 1, pad=-1), ShapeError, "im2col: .*padding -1"),
        (lambda: T.maxpool2d(_IMAGE, 2, 0), ShapeError, "maxpool2d: .*stride 0"),
        (lambda: T.maxpool2d(_IMAGE, 0), ShapeError, "maxpool2d: window 0"),
        (lambda: T.maxpool2d(_IMAGE[0], 2), ShapeError, "maxpool2d: expected 4-d input"),
    ],
    ids=[
        "conv-stride0", "conv-kernel0", "conv-pad-1", "pool-kernel0", "pool-stride0",
        "im2col-stride0", "im2col-kernel0", "im2col-pad-1", "maxpool2d-stride0", "maxpool2d-kernel0",
        "maxpool2d-3d",
    ],
)
def test_bad_window_attributes_rejected(build, error, match):
    """Kernel and stride below 1, padding below 0 or an input of the wrong
    rank raise a typed error naming the node (or op) and the attribute, never
    a ZeroDivisionError, numpy's ValueError or an empty result."""
    with pytest.raises(error, match=match):
        build()


def test_input_batch_shape_checked():
    g = ModelGraph(input_shape=(3,))
    g.add_node(NodeSpec(id="flat", kind="Flatten", inputs=[INPUT_ID]))
    with pytest.raises(ShapeError, match="graph input"):
        g.run(Tensor(np.zeros((2, 4))))


def test_single_output_node_enforced():
    g = ModelGraph(input_shape=(2,))
    g.add_node(NodeSpec(id="a", kind="ReLU", inputs=[INPUT_ID]))
    g.add_node(NodeSpec(id="b", kind="ReLU", inputs=[INPUT_ID]))
    with pytest.raises(GraphError, match="exactly one output"):
        g.run(Tensor(np.zeros((1, 2))))


def test_add_skip_connection():
    g = ModelGraph(input_shape=(2,))
    g.add_node(NodeSpec(id="r", kind="ReLU", inputs=[INPUT_ID]))
    g.add_node(NodeSpec(id="s", kind="Add", inputs=["r", INPUT_ID]))
    out = g.run(Tensor(np.array([[-1.0, 2.0]])))
    np.testing.assert_array_equal(out.data, [[-1.0, 4.0]])


def test_run_drops_each_activation_after_its_last_consumer():
    g = ModelGraph(input_shape=(2,))
    g.add_node(NodeSpec(id="r1", kind="ReLU", inputs=[INPUT_ID]))
    g.add_node(NodeSpec(id="r2", kind="ReLU", inputs=["r1"]))
    g.add_node(NodeSpec(id="s", kind="Add", inputs=["r2", INPUT_ID]))
    seen, alive_at_s = [], []

    def keep_ref(t, ctx):
        seen.append(weakref.ref(t))
        return t

    def check(t, ctx):
        alive_at_s.append(seen[0]() is not None)
        return t

    g.insert_hook(Hook("r1", HookPosition.POST_OUTPUT, "probe", keep_ref))
    g.insert_hook(Hook("s", HookPosition.POST_OUTPUT, "probe", check))
    out = g.run(Tensor(np.array([[-1.0, 2.0]])))
    np.testing.assert_array_equal(out.data, [[-1.0, 4.0]])
    assert alive_at_s == [False]


def test_pre_input_hook_targets_one_edge():
    g = ModelGraph(input_shape=(2,))
    g.add_node(NodeSpec(id="r", kind="ReLU", inputs=[INPUT_ID]))
    g.add_node(NodeSpec(id="s", kind="Add", inputs=["r", INPUT_ID]))
    g.insert_hook(Hook("s", HookPosition.PRE_INPUT, "scale", lambda t, ctx: T.mul(t, 10.0), input_index=1))
    out = g.run(Tensor(np.array([[1.0, 2.0]])))
    np.testing.assert_array_equal(out.data, [[11.0, 22.0]])
    with pytest.raises(GraphError, match="input index"):
        g.insert_hook(Hook("s", HookPosition.PRE_INPUT, "oob", lambda t, ctx: t, input_index=2))


@pytest.mark.parametrize(
    "position, param_name, input_index",
    [
        (HookPosition.POST_OUTPUT, "weight", 0),
        (HookPosition.PRE_INPUT, "weight", 0),
        (HookPosition.PRE_PARAM, "weight", 1),
    ],
    ids=["param-name-on-an-output", "param-name-on-an-input", "input-index-on-a-parameter"],
)
def test_hook_field_its_position_never_reads_is_rejected(position, param_name, input_index):
    """run finds a hook by its whole point, so such a hook would never run."""
    g = ModelGraph(input_shape=(1, 4, 4))
    g.add_node(conv_node("c", INPUT_ID, 1, 2, 3))
    with pytest.raises(GraphError, match=f"^'fam' hook at c/{position.value}: only a pre_param hook names a parameter"):
        g.insert_hook(Hook("c", position, "fam", lambda t, ctx: t, param_name=param_name, input_index=input_index))
    assert g.hooks == ()


def test_hook_on_a_removed_node_fails_the_run():
    g = ModelGraph(input_shape=(2,))
    g.add_node(NodeSpec(id="r", kind="ReLU", inputs=[INPUT_ID]))
    g.add_node(NodeSpec(id="s", kind="ReLU", inputs=["r"]))
    g.insert_hook(Hook("s", HookPosition.POST_OUTPUT, "fam", lambda t, ctx: t))
    del g.nodes["s"]
    with pytest.raises(GraphError, match="^dangling hook on removed node 's'$"):
        g.run(Tensor(np.zeros((1, 2))))


def test_batchnorm_train_normalizes_and_tracks():
    g = ModelGraph(input_shape=(2, 4, 4))
    g.add_node(bn_node("bn", INPUT_ID, 2))
    rng = np.random.default_rng(1)
    x = rng.normal(loc=3.0, scale=2.0, size=(8, 2, 4, 4))
    out = g.run(Tensor(x), mode="train")
    mean = out.data.mean(axis=(0, 2, 3))
    var = out.data.var(axis=(0, 2, 3))
    np.testing.assert_allclose(mean, 0.0, atol=1e-10)
    np.testing.assert_allclose(var, 1.0, atol=1e-3)
    node = g.nodes["bn"]
    expected_rm = 0.1 * x.mean(axis=(0, 2, 3))
    np.testing.assert_allclose(node.params["running_mean"].data, expected_rm)

    # eval mode uses the tracked statistics, not the batch
    y = np.zeros((2, 2, 4, 4))
    out_eval = g.run(Tensor(y), mode="eval")
    rm = node.params["running_mean"].data.reshape(1, 2, 1, 1)
    rv = node.params["running_var"].data.reshape(1, 2, 1, 1)
    np.testing.assert_allclose(out_eval.data, (y - rm) / np.sqrt(rv + 1e-5), atol=1e-12)


def test_gradients_flow_through_graph_and_hooks():
    g = ModelGraph(input_shape=(3,))
    w = np.arange(6.0).reshape(2, 3)
    g.add_node(fc_node("fc", INPUT_ID, 3, 2, w=w))
    mask = Tensor(np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    g.insert_hook(Hook("fc", HookPosition.PRE_PARAM, "mask", lambda t, ctx: T.mul(t, mask), param_name="weight"))
    x = np.ones((1, 3))
    out = g.run(Tensor(x), mode="train")
    loss = T.tsum(out)
    T.backward(loss)
    wt = g.nodes["fc"].params["weight"]
    # masked entries receive no gradient, surviving ones see the input
    np.testing.assert_array_equal(wt.grad, mask.data * x[0])


def test_flops_per_node():
    g = ModelGraph(input_shape=(1, 8, 8))
    g.add_node(conv_node("c1", INPUT_ID, 1, 4, 3, padding=1))
    g.add_node(NodeSpec(id="flat", kind="Flatten", inputs=["c1"]))
    g.add_node(fc_node("fc", "flat", 256, 2))
    flops = g.flops_per_node()
    assert flops["c1"] == 3 * 3 * 1 * 4 * 8 * 8
    assert flops["fc"] == 256 * 2
    assert "flat" not in flops


def test_copy_is_independent():
    g = ModelGraph(input_shape=(3,))
    g.add_node(fc_node("fc", INPUT_ID, 3, 2, w=np.ones((2, 3))))
    h = g.copy()
    h.nodes["fc"].params["weight"].data[:] = 0.0
    assert g.nodes["fc"].params["weight"].data.sum() == 6.0


def _conv_graph():
    g = ModelGraph(input_shape=(2, 6, 6))
    g.add_node(conv_node("c", INPUT_ID, 2, 3, 3, w=np.random.default_rng(0).normal(size=(3, 2, 3, 3))))
    return g


def _weight_hook(transform):
    return Hook("c", HookPosition.PRE_PARAM, "fam", transform, param_name="weight")


@pytest.mark.parametrize(
    "hook, state",
    [
        (lambda: _weight_hook(FakeQuantizer(bits=8, grid="weight", per_channel=True, channels=3)), "scale"),
        (lambda: _weight_hook(ParamMask(np.ones((3, 2, 3, 3)))), "mask"),
        (lambda: _weight_hook(RBGate(np.ones((3, 2, 3, 3)))), "scores"),
        (lambda: Hook("c", HookPosition.PRE_INPUT, "fam", ActivationBinarizer(2)), "thresholds"),
    ],
    ids=["quantizer-scale", "mask", "gate-scores", "binarizer-thresholds"],
)
def test_copy_owns_hook_state(hook, state):
    g = _conv_graph()
    g.insert_hook(hook())
    original = getattr(g.hooks[0].transform, state)
    before = original.data.copy()
    copied = getattr(g.copy().hooks[0].transform, state)
    assert copied is not original and np.array_equal(copied.data, before)
    copied.data[...] = 7.0
    np.testing.assert_array_equal(original.data, before)


def test_strip_on_a_copy_leaves_the_original_unsliced():
    g = build_model("cnn-small")
    pruning = PruningBuilder({"pruning_rate": 0.5, "criterion": "l2"}).apply_to(g)
    pruning.scheduler.epoch_step()
    fq = FakeQuantizer(bits=8, grid="weight", per_channel=True, channels=4)
    fq.init_from_array(g.nodes["conv1"].params["weight"].data)
    g.insert_hook(Hook("conv1", HookPosition.PRE_PARAM, "quantization", fq, param_name="weight"))
    g.insert_hook(Hook("conv2", HookPosition.PRE_PARAM, "rb_sparsity", RBGate(np.ones((8, 4, 3, 3))),
                       param_name="weight"))
    g.insert_hook(Hook("conv2", HookPosition.PRE_INPUT, "binarization", ActivationBinarizer(4)))
    before = serialize_model(g)
    stripped = strip_pruned_filters(g.copy(), propagate_pruning_masks(g, installed_filter_masks(g)))
    sliced = {h.family: h.transform for h in stripped.hooks}
    assert sliced["quantization"].scale.shape == (2,)
    assert sliced["rb_sparsity"].scores.shape == (4, 2, 3, 3)
    assert sliced["binarization"].thresholds.shape == (2,)
    assert serialize_model(g) == before


class _Holds:
    """A codec-less transform that keeps a reference to some tensor."""

    def __init__(self, tensor):
        self.tensor = tensor

    def __call__(self, t, ctx):
        return t


def test_copy_keeps_shared_tensors_shared():
    g = _conv_graph()
    shared = Tensor(np.ones(3), requires_grad=True)
    weight = g.nodes["c"].params["weight"]
    g.insert_hook(_weight_hook(_Holds(shared)))
    g.insert_hook(Hook("c", HookPosition.POST_OUTPUT, "fam", _Holds(shared)))
    g.insert_hook(Hook("c", HookPosition.PRE_PARAM, "fam", _Holds(weight), param_name="bias"))
    h = g.copy()
    a, b, w = (hook.transform.tensor for hook in h.hooks)
    assert a is b and a is not shared and np.array_equal(a.data, shared.data)
    assert w is h.nodes["c"].params["weight"] and w is not weight


def test_copy_shares_functions():
    g = _conv_graph()
    fn = lambda t, ctx: t  # noqa: E731
    g.insert_hook(Hook("c", HookPosition.POST_OUTPUT, "fam", fn))
    h = g.copy()
    assert h.hooks[0] is not g.hooks[0]
    assert h.hooks[0].transform is fn
    assert h.hooks[0].point() == g.hooks[0].point() and h.hooks[0].family == "fam"


def test_copy_keeps_trainability_and_gradients():
    g = _conv_graph()
    g.add_node(bn_node("bn", "c", 3))
    w = g.nodes["c"].params["weight"]
    w.grad = np.full(w.shape, 0.5)
    h = g.copy()
    hw = h.nodes["c"].params["weight"]
    assert hw.requires_grad and hw._grad is not w._grad and np.array_equal(hw._grad, w._grad)
    assert h.nodes["c"].params["bias"]._grad is None
    assert not h.nodes["bn"].params["running_mean"].requires_grad
    assert h.nodes["c"].attrs == g.nodes["c"].attrs and h.nodes["c"].attrs is not g.nodes["c"].attrs
    assert h.nodes["bn"].inputs == ["c"] and h.nodes["bn"].inputs is not g.nodes["bn"].inputs


def test_deepcopy_of_an_op_output_is_a_leaf():
    a = Tensor(np.arange(3.0), requires_grad=True)
    out = copy.deepcopy(T.mul(a, a))
    assert out._op == "leaf" and out._parents == () and out.requires_grad
    np.testing.assert_array_equal(out.data, [0.0, 1.0, 4.0])


def test_mode_validated():
    g = ModelGraph(input_shape=(2,))
    g.add_node(NodeSpec(id="r", kind="ReLU", inputs=[INPUT_ID]))
    with pytest.raises(GraphError, match="unknown mode"):
        g.run(Tensor(np.zeros((1, 2))), mode="predict")


# -- declared chains and channel rules ----------------------------------------


@pytest.mark.parametrize("kind", G.NODE_KINDS)
def test_every_kind_declares_a_channel_rule(kind):
    """Filter pruning reads each kind's channel rule, so every kind has one.
    Its channel attrs size parameter axes, each parameter's leading axis
    counts the output channels, the masked parameters are its own, and
    only a kind whose weights set its channels counts input channels too."""
    declared = G._KINDS[kind]
    channels = declared.channels
    assert channels.rule in ("weights", "pass", "repeat", "join")
    assert (channels.inp is not None) == (channels.rule == "weights")
    assert (channels.rule == "weights") == (kind in G.WEIGHTED_KINDS)
    named = {attr for axes in declared.axes.values() for attr in axes}
    assert {channels.out, channels.inp} - {None} <= named
    assert all(axes[0] == channels.out for axes in declared.axes.values())
    assert set(channels.masked) <= set(declared.axes)
    assert channels.rule in ("weights", "pass") or not declared.axes
    if channels.rule == "join":
        assert declared.arity > 1


def test_chains_follow_only_edges_that_are_the_one_consumer_edge():
    g = ModelGraph(input_shape=(1, 4, 4))
    g.add_node(conv_node("c1", INPUT_ID, 1, 2, 3, padding=1))
    g.add_node(bn_node("bn1", "c1", 2))
    g.add_node(NodeSpec(id="r1", kind="ReLU", inputs=["bn1"]))
    g.add_node(conv_node("c2", "r1", 2, 2, 3, padding=1))
    g.add_node(NodeSpec(id="r2", kind="ReLU", inputs=["c2"]))
    g.add_node(NodeSpec(id="add", kind="Add", inputs=["c2", "r2"]))
    found = g.chains(G.FUSED_CHAINS)
    # c2 has two consumers, so neither chain starts there
    assert {nid: [n.id for n in chain] for nid, chain in found.items()} == {"c1": ["c1", "bn1", "r1"]}
    # the first pattern that matches wins
    assert [n.id for n in g.chains([("Conv2D", "BatchNorm"), ("Conv2D", "BatchNorm", "ReLU")])["c1"]] == ["c1", "bn1"]
    assert [n.id for n in g.chains([("ReLU", "Add")])["r2"]] == ["r2", "add"]
    # an Add that reads one node twice is two consumer edges
    h = ModelGraph(input_shape=(2,))
    h.add_node(NodeSpec(id="r", kind="ReLU", inputs=[INPUT_ID]))
    h.add_node(NodeSpec(id="twice", kind="Add", inputs=["r", "r"]))
    assert h.chains([("ReLU", "Add")]) == {}


def _reached(graph, start):
    """The reference walk: every node reached from ``start`` along consumer
    edges, going on past unweighted nodes only."""
    stack, seen = [start], set()
    while stack:
        for consumer in graph.consumers(stack.pop()):
            if consumer.id not in seen:
                seen.add(consumer.id)
                if consumer.kind not in G.WEIGHTED_KINDS:
                    stack.append(consumer.id)
    return seen


@pytest.mark.parametrize(
    "build",
    [lambda name=name: build_model(name, 0) for name in PRESETS]
    + [lambda build=build: build(np.random.default_rng(0))[0] for _, build in TOPOLOGIES],
    ids=list(PRESETS) + [name for name, _ in TOPOLOGIES],
)
def test_producers_match_a_consumer_walk(build):
    """A node's producers are the weighted nodes, or the input, whose walk
    reaches it; the input and each weighted node are their own."""
    g = build()
    sources = [INPUT_ID] + [nid for nid, node in g.nodes.items() if node.kind in G.WEIGHTED_KINDS]
    reached = {src: _reached(g, src) for src in sources}
    expected = {
        nid: {nid} if nid in sources else {src for src in sources if nid in reached[src]}
        for nid in [INPUT_ID, *g.nodes]
    }
    assert g.producers() == expected
