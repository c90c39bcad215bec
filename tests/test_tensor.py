import functools
import gc
import json
import weakref

import numpy as np
import pytest

from nncompress import tensor as T
from nncompress.api import create_compressed_model, total_compression_loss
from nncompress.data import make_dataset
from nncompress.graph import Hook, HookPosition
from nncompress.models import build_model
from nncompress.quantization import (
    RANGE_FLOOR,
    FakeQuantizer,
    QuantizationController,
    QuantizationSpec,
    initialize_quantizer_ranges,
    quant_grid,
    tune_asymmetric_range,
)
from nncompress.tensor import Tensor, ShapeError
from nncompress.util import cross_entropy

from helpers import check_grad, numeric_grad
from test_api import REPO
from topologies import TOPOLOGIES


def test_add_elementwise():
    out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_add_shape_mismatch_named():
    with pytest.raises(ShapeError, match="add"):
        T.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_matmul_ones():
    out = T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
    np.testing.assert_array_equal(out.data, np.full((2, 2), 3.0))


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError, match="matmul"):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_conv2d_hand_oracle():
    # sliding a 2x2 all-ones kernel over a 3x3 all-ones image: every window sums to 4
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 2, 2)))
    out = T.conv2d(x, w, stride=1, padding=0)
    assert out.shape == (1, 1, 2, 2)
    np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))


def test_conv2d_matches_explicit_loops():
    rng = np.random.default_rng(0)
    x = rng.uniform(-2, 2, (2, 3, 6, 5))
    w = rng.uniform(-2, 2, (4, 3, 3, 3))
    b = rng.uniform(-1, 1, 4)
    out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1).data

    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    oh = (xp.shape[2] - 3) // 2 + 1
    ow = (xp.shape[3] - 3) // 2 + 1
    ref = np.zeros((2, 4, oh, ow))
    for n in range(2):
        for o in range(4):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[n, :, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
                    ref[n, o, i, j] = np.sum(patch * w[o]) + b[o]
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError, match="conv2d"):
        T.conv2d(Tensor(np.ones((1, 3, 4, 4))), Tensor(np.ones((2, 4, 3, 3))))


def test_backward_square_sum():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = T.tsum(T.mul(x, x))
    loss.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_detached_loss_zero_grads():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = T.tsum(T.mul(x, x)).detach()
    T.backward(loss)
    np.testing.assert_array_equal(x.grad, [0.0, 0.0])


def test_backward_rejects_nonscalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError, match="scalar"):
        T.backward(T.mul(x, x))


def test_grad_accumulates_across_calls():
    x = Tensor([1.0, 2.0], requires_grad=True)
    for _ in range(2):
        T.tsum(T.mul(x, x)).backward()
    np.testing.assert_array_equal(x.grad, [4.0, 8.0])
    x.zero_grad()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0])


@pytest.mark.parametrize(
    "name,build",
    [
        ("add", lambda x: T.tsum(T.add(x, Tensor(np.full(x.shape, 0.3))))),
        ("sub", lambda x: T.tsum(T.sub(Tensor(np.full(x.shape, 0.3)), x))),
        ("mul", lambda x: T.tsum(T.mul(x, x))),
        ("div", lambda x: T.tsum(T.div(Tensor(np.full(x.shape, 1.7)), T.add(x, 3.0)))),
        ("exp", lambda x: T.tsum(T.texp(x))),
        ("log", lambda x: T.tsum(T.tlog(T.add(x, 3.0)))),
        ("sqrt", lambda x: T.tsum(T.tsqrt(T.add(x, 3.0)))),
        ("sigmoid", lambda x: T.tsum(T.sigmoid(x))),
        ("abs", lambda x: T.tsum(T.tabs(T.add(x, 0.05)))),
        ("relu", lambda x: T.tsum(T.relu(T.add(x, 0.05)))),
        ("mean", lambda x: T.tmean(T.mul(x, x))),
        ("reshape", lambda x: T.tsum(T.mul(T.reshape(x, (x.size,)), T.reshape(x, (x.size,))))),
        ("transpose", lambda x: T.tsum(T.mul(T.transpose(x), T.transpose(x)))),
        ("maximum", lambda x: T.tsum(T.maximum(x, Tensor(np.full(x.shape, 0.21))))),
        ("minimum", lambda x: T.tsum(T.minimum(x, Tensor(np.full(x.shape, 0.21))))),
    ],
)
def test_elementwise_grads_match_finite_differences(name, build):
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-2, 2, (3, 4))
    check_grad(build, x0)


def test_matmul_grad_matches_fd():
    rng = np.random.default_rng(8)
    a0 = rng.uniform(-2, 2, (3, 4))
    b = Tensor(rng.uniform(-2, 2, (4, 2)))
    check_grad(lambda x: T.tsum(T.mul(T.matmul(x, b), T.matmul(x, b))), a0)


def test_broadcast_grad_matches_fd():
    rng = np.random.default_rng(9)
    x0 = rng.uniform(-2, 2, (1, 3, 1))
    check_grad(lambda x: T.tsum(T.mul(T.broadcast_to(x, (2, 3, 4)), Tensor(np.arange(24.0).reshape(2, 3, 4)))), x0)


def test_conv2d_grads_match_fd():
    rng = np.random.default_rng(10)
    x0 = rng.uniform(-2, 2, (2, 2, 5, 5))
    w0 = rng.uniform(-2, 2, (3, 2, 3, 3))
    b0 = rng.uniform(-1, 1, 3)
    w = Tensor(w0)
    b = Tensor(b0)
    check_grad(lambda x: T.tsum(T.mul(T.conv2d(x, w, b, stride=2, padding=1), T.conv2d(x, w, b, stride=2, padding=1))), x0)
    x = Tensor(x0)
    check_grad(lambda wt: T.tsum(T.mul(T.conv2d(x, wt, b, stride=2, padding=1), T.conv2d(x, wt, b, stride=2, padding=1))), w0)
    check_grad(lambda bt: T.tsum(T.mul(T.conv2d(x, w, bt, stride=2, padding=1), T.conv2d(x, w, bt, stride=2, padding=1))), b0)


def test_maxpool_grad_matches_fd():
    rng = np.random.default_rng(11)
    # distinct entries keep argmax stable under the FD perturbation
    x0 = rng.permutation(64).astype(np.float64).reshape(1, 1, 8, 8) / 8.0
    check_grad(lambda x: T.tsum(T.mul(T.maxpool2d(x, 2), T.maxpool2d(x, 2))), x0)


def test_overlapping_maxpool_grad_matches_fd():
    rng = np.random.default_rng(14)
    # k=3, s=2: inputs on the shared rows and columns feed two or four windows
    x0 = rng.permutation(98).astype(np.float64).reshape(1, 2, 7, 7) / 8.0
    check_grad(lambda x: T.tsum(T.mul(T.maxpool2d(x, 3, 2), T.maxpool2d(x, 3, 2))), x0)


def test_linear_grads_match_fd():
    rng = np.random.default_rng(12)
    x0 = rng.uniform(-2, 2, (4, 3))
    w = Tensor(rng.uniform(-2, 2, (2, 3)))
    b = Tensor(rng.uniform(-1, 1, 2))
    check_grad(lambda x: T.tsum(T.mul(T.linear(x, w, b), T.linear(x, w, b))), x0)


def test_ste_indicator_forward_and_backward():
    x = Tensor([0.3, 0.7], requires_grad=True)
    out = T.ste_apply(x, lambda v: (v > 0.5).astype(float))
    np.testing.assert_array_equal(out.data, [0.0, 1.0])
    T.tsum(out).backward()
    np.testing.assert_array_equal(x.grad, [1.0, 1.0])


def test_ste_round_disagrees_with_finite_differences():
    # the STE is a surrogate: rounding has zero derivative almost everywhere,
    # so the straight-through gradient (all ones) must NOT match FD (all zeros)
    x0 = np.array([0.3, 1.2, -0.7])
    x = Tensor(x0, requires_grad=True)
    T.tsum(T.round_ste(x)).backward()
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])
    fd = numeric_grad(lambda a: float(np.sum(np.round(a))), x0.copy())
    assert np.max(np.abs(x.grad - fd)) > 0.9


def test_ste_identity_exact_for_any_map():
    rng = np.random.default_rng(13)
    x = Tensor(rng.uniform(-2, 2, (5, 5)), requires_grad=True)
    upstream = Tensor(rng.uniform(-2, 2, (5, 5)))
    out = T.ste_apply(x, np.sign)
    T.tsum(T.mul(out, upstream)).backward()
    np.testing.assert_array_equal(x.grad, upstream.data)


def test_round_ste_uses_bankers_rounding():
    x = Tensor([0.5, 1.5, 2.5, -0.5, -1.5])
    np.testing.assert_array_equal(T.round_ste(x).data, [0.0, 2.0, 2.0, -0.0, -2.0])


def test_tape_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.uniform(-2, 2, (4, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-2, 2, (4, 4)), requires_grad=True)
        y = T.relu(T.matmul(x, w))
        loss = T.tsum(T.mul(y, y))
        loss.backward()
        return x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


def test_double_backward_quadratic():
    # f = x1^2 * x2 -> d2f/dx1dx2 path exercised through grad-of-grad
    x = Tensor([2.0, 3.0], requires_grad=True)
    x1 = T.mul(x, Tensor([1.0, 0.0]))
    f = T.tsum(T.mul(T.mul(x, x), Tensor([3.0, 0.0]))) + T.tsum(T.mul(x, Tensor([0.0, 5.0])))
    (g,) = T.grad(f, [x], create_graph=True)
    np.testing.assert_allclose(g.data, [12.0, 5.0])
    v = Tensor([1.0, 1.0])
    (hv,) = T.grad(T.tsum(T.mul(g, v)), [x])
    np.testing.assert_allclose(hv.data, [6.0, 0.0])
    assert x1 is not None


def test_no_grad_blocks_taping():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad
    assert y._parents == ()


def test_grad_does_not_touch_buffers():
    x = Tensor([1.0, 2.0], requires_grad=True)
    (g,) = T.grad(T.tsum(T.mul(x, x)), [x])
    np.testing.assert_array_equal(g.data, [2.0, 4.0])
    assert x._grad is None


def test_backward_leaves_intermediate_grads_unset():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    w = Tensor([0.5, 0.25, 2.0], requires_grad=True)
    h = T.mul(x, w)
    y = T.relu(h)
    T.tsum(T.mul(y, y)).backward()
    assert h._grad is None and y._grad is None
    np.testing.assert_array_equal(x.grad, [0.5, 0.0, 24.0])
    np.testing.assert_array_equal(w.grad, [1.0, 0.0, 36.0])


def test_second_backward_on_a_released_tape_raises():
    w = Tensor([2.0], requires_grad=True)
    l1 = T.tsum(T.mul(T.mul(w, w), 3.0))
    T.backward(l1)
    np.testing.assert_array_equal(w.grad, [12.0])
    with pytest.raises(RuntimeError, match="'sum' tensor was released"):
        T.backward(l1)
    np.testing.assert_array_equal(w.grad, [12.0])


def test_backward_through_a_shared_released_tensor_raises():
    w = Tensor([2.0], requires_grad=True)
    h = T.mul(w, w)
    l1, l2 = T.tsum(T.mul(h, 3.0)), T.tsum(T.mul(h, 5.0))
    T.backward(l1)
    with pytest.raises(RuntimeError, match="'mul' tensor was released"):
        T.backward(l2)
    np.testing.assert_array_equal(w.grad, [12.0])


def test_grad_after_backward_on_the_same_tape_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = T.tsum(T.texp(x))
    T.backward(loss)
    with pytest.raises(RuntimeError, match="released by backward"):
        T.grad(loss, [x])


def test_hessian_vector_products_over_one_kept_tape_match_finite_differences():
    # grad() keeps its tape: two probes sweep the same create_graph gradient
    rng = np.random.default_rng(5)
    x0 = rng.uniform(-1.0, 1.0, 4)

    def f(x):
        return T.tsum(T.div(T.mul(T.sigmoid(x), T.texp(T.mul(x, 0.25))), T.tsqrt(T.add(T.mul(x, x), 1.0))))

    def gradient(arr):
        x = Tensor(arr, requires_grad=True)
        T.backward(f(x))
        return x.grad

    x = Tensor(x0, requires_grad=True)
    (g,) = T.grad(f(x), [x], create_graph=True)
    eps = 1e-5
    for _ in range(2):
        v = rng.normal(size=4)
        (hv,) = T.grad(T.tsum(T.mul(g, Tensor(v))), [x])
        fd = (gradient(x0 + eps * v) - gradient(x0 - eps * v)) / (2 * eps)
        np.testing.assert_allclose(hv.data, fd, rtol=1e-6, atol=1e-8)


def test_train_step_tape_is_freed_without_the_collector():
    config = json.loads((REPO / "configs" / "int8_sparse50.json").read_text())
    x, y = make_dataset("stripes", 64, seed=0)
    batches = [(x[i : i + 32], y[i : i + 32]) for i in range(0, 64, 32)]
    controllers, g = create_compressed_model(build_model("cnn-residual", 0), config, batches)
    seen = []

    def probe(t, ctx):
        seen.append(weakref.ref(t))
        return t

    g.insert_hook(Hook("bn_a", HookPosition.POST_OUTPUT, "probe", probe))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        out = g.run(Tensor(x[:32]), mode="train", rng=np.random.default_rng(0))
        loss = T.add(cross_entropy(out, y[:32]), total_compression_loss(controllers))
        T.backward(loss)
        del out, loss
        assert len(seen) == 1 and seen[0]() is None, "bn_a's output outlived its step"
    finally:
        if was_enabled:
            gc.enable()


def _train_loss(model, config, seed=0):
    x, y = make_dataset("stripes", 64, seed=seed)
    batches = [(x[i : i + 32], y[i : i + 32]) for i in range(0, 64, 32)]
    controllers, g = create_compressed_model(build_model(model, 0), config, batches)
    out = g.run(Tensor(x[:32]), mode="train", rng=np.random.default_rng(seed))
    return T.add(cross_entropy(out, y[:32]), total_compression_loss(controllers))


def assert_sweeps_agree(loss):
    """backward()'s array sweep leaves the bytes that grad(create_graph=True)'s
    recorded sweep returns, in every leaf on the tape."""
    leaves = [t for t in T._toposort(loss) if not t._parents]
    recorded = T.grad(loss, leaves, create_graph=True)
    for leaf in leaves:
        leaf.zero_grad()
    T.backward(loss)
    for i, (leaf, g) in enumerate(zip(leaves, recorded)):
        assert leaf.grad.tobytes() == g.data.tobytes(), f"leaf {i} of shape {leaf.shape} differs"


def test_array_sweep_matches_recorded_sweep_on_a_train_step():
    assert_sweeps_agree(_train_loss("cnn-residual", json.loads((REPO / "configs" / "int8_sparse50.json").read_text())))


@pytest.mark.parametrize("config", sorted(p.stem for p in (REPO / "configs").glob("*.json")))
def test_array_sweep_matches_recorded_sweep_for_every_config(config):
    assert_sweeps_agree(_train_loss("cnn-small", json.loads((REPO / "configs" / f"{config}.json").read_text())))


def test_unrecorded_sweep_hands_vjps_arrays():
    seen = []

    def vjp(g):
        seen.append(type(g))
        return T.mul(g, 2.0)

    def double(a):  # an op built on _node outside the engine
        return T._node(a.data * 2.0, [(a, vjp)], "double")

    x = Tensor([1.0, 2.0], requires_grad=True)
    (gx,) = T.grad(T.tsum(double(x)), [x], create_graph=True)
    T.backward(T.tsum(double(x)))
    assert seen == [Tensor, np.ndarray]
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])
    np.testing.assert_array_equal(gx.data, [2.0, 2.0])


def test_grad_wrt_intermediate_tensor():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = T.mul(x, x)
    loss = T.tsum(T.mul(y, Tensor([3.0, 5.0])))
    gy, gx = T.grad(loss, [y, x])
    np.testing.assert_array_equal(gy.data, [3.0, 5.0])
    np.testing.assert_array_equal(gx.data, [6.0, 20.0])
    assert x._grad is None and y._grad is None


def quantized_topology_loss(build):
    """A topology with 4-bit quantizers, a train-mode loss and every trainable tensor."""
    rng = np.random.default_rng(3)
    g, _ = build(rng)
    ctrl = QuantizationController(g, QuantizationSpec(bits=4))
    x = rng.normal(size=(3,) + tuple(g.input_shape))
    initialize_quantizer_ranges(g, [x])
    out = g.run(Tensor(x), mode="train")
    loss = T.tsum(T.mul(T.mul(out, out), Tensor(rng.normal(size=out.shape))))
    params = [p for _, _, p in g.parameters()] + [p for _, p, _ in ctrl.extra_params()]
    return loss, params


@pytest.mark.parametrize("name,build", TOPOLOGIES)
def test_grad_of_one_tensor_matches_grad_of_all(name, build):
    loss, params = quantized_topology_loss(build)
    full = T.grad(loss, params)
    for p, g_all in zip(params, full):
        (g,) = T.grad(loss, [p])
        assert g.data.tobytes() == g_all.data.tobytes()


@pytest.mark.parametrize("name,build", TOPOLOGIES)
def test_hessian_vector_product_of_one_tensor_matches_all(name, build):
    loss, params = quantized_topology_loss(build)
    rng = np.random.default_rng(4)
    full = T.grad(loss, params, create_graph=True)
    for i, (p, g_all) in enumerate(zip(params, full)):
        v = Tensor(rng.normal(size=p.shape))
        hv_all = T.grad(T.tsum(T.mul(g_all, v)), params)[i]
        (g,) = T.grad(loss, [p], create_graph=True)
        (hv,) = T.grad(T.tsum(T.mul(g, v)), [p])
        assert hv.data.tobytes() == hv_all.data.tobytes()


def test_grad_never_runs_vjps_off_the_path_to_wrt():
    x = Tensor([1.0, 2.0], requires_grad=True)
    w = Tensor([3.0, 4.0], requires_grad=True)

    def explode(g):
        raise AssertionError("vjp into a tensor off the path to wrt")

    side = T._node(w.data * 2.0, [(w, explode)], "side")
    loss = T.tsum(T.add(T.mul(x, x), side))
    (gx,) = T.grad(loss, [x])
    np.testing.assert_array_equal(gx.data, [2.0, 4.0])
    # backward differentiates every leaf, so it does reach the side branch
    with pytest.raises(AssertionError, match="off the path"):
        loss.backward()


@pytest.mark.parametrize("op", [T.mul, T.div, T.maximum])
@pytest.mark.parametrize("shape_a,shape_b", [((3, 4), (1, 4)), ((3, 1), (1, 4)), ((3, 4), ()), ((2, 3, 4), (3, 1))])
def test_broadcast_elementwise_grads_match_fd(op, shape_a, shape_b):
    rng = np.random.default_rng(14)
    a0 = rng.uniform(0.5, 2.0, shape_a)
    b0 = rng.uniform(0.5, 2.0, shape_b)
    out_shape = np.broadcast_shapes(shape_a, shape_b)
    u = Tensor(rng.uniform(-1, 1, out_shape))
    assert op(Tensor(a0), Tensor(b0)).shape == out_shape
    check_grad(lambda a: T.tsum(T.mul(op(a, Tensor(b0)), u)), a0)
    check_grad(lambda b: T.tsum(T.mul(op(Tensor(a0), b), u)), b0)


def _chain_fake_quant(x, scale, q_min, q_max):
    # the op-by-op composition that T.fake_quant fuses
    step = T.maximum(scale, RANGE_FLOOR)
    if scale.ndim:
        step = T.reshape(step, (-1,) + (1,) * (x.ndim - 1))
    step_b = T.broadcast_to(T.div(step, q_max), x.shape)
    q = T.round_ste(T.clamp(T.div(x, step_b), q_min, q_max))
    return T.mul(q, step_b)


def _fake_quant_case(grid, per_channel, seed=15):
    q_min, q_max = quant_grid(4, grid)
    rng = np.random.default_rng(seed)
    # power-of-two steps make the clip bounds and the rounding ties exact
    step = 2.0 ** rng.integers(-3, 2, (3, 1, 1, 1)) if per_channel else np.asarray(0.25)
    levels = rng.uniform(q_min - 3, q_max + 3, (3, 2, 4, 4))
    levels[:, 0, 0, :] = [q_min, q_max, q_min - 0.5, q_max + 0.5]
    levels[:, 0, 1, :] = [0.5, 1.5, -0.5, 2.5]
    scale = (step * q_max).reshape(-1) if per_channel else step * q_max
    return levels * step, scale, float(q_min), float(q_max)


@pytest.mark.parametrize("grid", ["weight", "signed_act", "unsigned_act"])
@pytest.mark.parametrize("per_channel", [False, True])
def test_fake_quant_forward_is_byte_equal_to_composition(grid, per_channel):
    x, scale, q_min, q_max = _fake_quant_case(grid, per_channel)
    fused = T.fake_quant(Tensor(x), Tensor(scale), q_min, q_max, RANGE_FLOOR).data
    chain = _chain_fake_quant(Tensor(x), Tensor(scale), q_min, q_max).data
    assert fused.tobytes() == chain.tobytes()
    # q_max * step is the scale itself
    assert np.any(fused == np.broadcast_to(np.reshape(scale, (-1, 1, 1, 1)), x.shape))


@pytest.mark.parametrize("grid", ["weight", "signed_act", "unsigned_act"])
@pytest.mark.parametrize("per_channel", [False, True])
def test_fake_quant_vjps_match_composition(grid, per_channel):
    x0, scale0, q_min, q_max = _fake_quant_case(grid, per_channel)
    u = Tensor(np.random.default_rng(16).uniform(-1, 1, x0.shape))
    grads = []
    for fq in (functools.partial(T.fake_quant, floor=RANGE_FLOOR), _chain_fake_quant):
        x, scale = Tensor(x0, requires_grad=True), Tensor(scale0, requires_grad=True)
        grads.append(T.grad(T.tsum(T.mul(fq(x, scale, q_min, q_max), u)), [x, scale]))
    for fused, chain in zip(*grads):
        assert fused.shape == chain.shape
        np.testing.assert_allclose(fused.data, chain.data, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("per_channel", [False, True])
def test_fake_quant_reads_a_negative_scale_by_its_magnitude(per_channel):
    """A scale below zero quantizes as its absolute value, and its gradient is
    the positive scale's negated, so training can bring it back past the floor."""
    x0, scale0, q_min, q_max = _fake_quant_case("signed_act", per_channel)
    signs = np.where(np.arange(scale0.size) % 2, 1.0, -1.0).reshape(scale0.shape)  # channels 0 and 2 flip
    u = Tensor(np.random.default_rng(18).uniform(-1, 1, x0.shape))
    outs, grads = [], []
    for s in (scale0, signs * scale0):
        scale = Tensor(s, requires_grad=True)
        y = T.fake_quant(Tensor(x0), scale, q_min, q_max, RANGE_FLOOR)
        outs.append(y.data)
        grads.append(T.grad(T.tsum(T.mul(y, u)), [scale])[0].data)
    assert outs[1].tobytes() == outs[0].tobytes()
    assert np.all(grads[0] != 0)
    assert np.array_equal(grads[1], signs * grads[0])


def test_fake_quant_hessian_vector_product_matches_composition():
    rng = np.random.default_rng(17)
    w0 = rng.uniform(-1, 1, (4, 3, 3, 3))
    x = Tensor(rng.uniform(-1, 1, (2, 3, 5, 5)))
    v = [Tensor(rng.uniform(-1, 1, w0.shape)), Tensor(rng.uniform(-1, 1, (4,)))]
    fq = FakeQuantizer(bits=4, grid="weight", per_channel=True, channels=4)
    fq.init_from_array(w0)
    q_min, q_max = quant_grid(4, "weight")

    def chain(w):
        return _chain_fake_quant(w, fq.scale, float(q_min), float(q_max))

    results = []
    for quantize in (fq, chain):
        w = Tensor(w0, requires_grad=True)
        out = T.conv2d(x, quantize(w), padding=1)
        loss = T.tsum(T.mul(out, out))
        gw, gs = T.grad(loss, [w, fq.scale], create_graph=True)
        gv = T.add(T.tsum(T.mul(gw, v[0])), T.tsum(T.mul(gs, v[1])))
        results.append([gw, gs] + T.grad(gv, [w, fq.scale]))
    assert np.abs(results[0][2].data).max() > 1.0
    for fused, composed in zip(*results):
        np.testing.assert_allclose(fused.data, composed.data, rtol=1e-12, atol=1e-12)


def _chain_batch_norm(x, gamma, beta, eps, mean=None, var=None):
    # the op-by-op composition that T.batch_norm fuses
    pshape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
    axes = (0,) + tuple(range(2, x.ndim))
    if mean is None:
        xc = T.sub(x, T.tmean(x, axis=axes, keepdims=True))
        var = T.tmean(T.mul(xc, xc), axis=axes, keepdims=True)
    else:
        xc = T.sub(x, Tensor(np.reshape(mean, pshape)))
        var = Tensor(np.reshape(var, pshape))
    inv = T.div(1.0, T.tsqrt(T.add(var, eps)))
    return T.add(T.mul(T.mul(xc, inv), T.reshape(gamma, pshape)), T.reshape(beta, pshape))


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("shape", [(4, 3, 5, 5), (6, 3)], ids=["conv", "fc"])
def test_batch_norm_hessian_vector_product_matches_composition(mode, shape):
    rng = np.random.default_rng(18)
    x0 = rng.normal(size=shape)
    gamma0, beta0 = rng.uniform(0.5, 1.5, 3), rng.uniform(-1, 1, 3)
    stats = () if mode == "train" else (rng.uniform(-0.5, 0.5, 3), rng.uniform(0.5, 2.0, 3))
    u = Tensor(rng.uniform(-1, 1, shape))
    v = [Tensor(rng.uniform(-1, 1, s)) for s in (shape, (3,), (3,))]

    def fused(x, gamma, beta):
        return T.batch_norm(x, gamma, beta, 1e-5, *stats)[0]

    def chain(x, gamma, beta):
        return _chain_batch_norm(x, gamma, beta, 1e-5, *stats)

    results = []
    for bn in (fused, chain):
        leaves = [Tensor(a, requires_grad=True) for a in (x0, gamma0, beta0)]
        out = bn(*leaves)
        loss = T.tsum(T.mul(T.mul(out, out), u))
        grads = T.grad(loss, leaves, create_graph=True)
        gv = T.tsum(T.mul(grads[0], v[0]))
        for g, vi in zip(grads[1:], v[1:]):
            gv = T.add(gv, T.tsum(T.mul(g, vi)))
        results.append(grads + T.grad(gv, leaves))
    assert np.abs(results[0][3].data).max() > 1.0
    for fused_value, composed in zip(*results):
        np.testing.assert_allclose(fused_value.data, composed.data, rtol=1e-12, atol=1e-12)


def test_batch_norm_rejects_mismatched_parameters():
    with pytest.raises(ShapeError, match="batch_norm"):
        T.batch_norm(Tensor(np.zeros((2, 3, 4, 4))), Tensor(np.ones(4)), Tensor(np.zeros(4)), 1e-5)
    with pytest.raises(ShapeError, match="batch_norm"):
        T.batch_norm(Tensor(np.zeros((2, 3, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)), 1e-5)


def test_hessian_probe_tape_is_freed_without_the_collector():
    # grad() keeps its tape, and the vjps of texp (in the loss) and tsqrt and
    # div (in BatchNorm's recorded statistics) need their outputs; they reach
    # them weakly, so the tape goes once the caller drops the loss and gradients
    g = build_model("cnn-residual", 0)
    x, y = make_dataset("stripes", 16, seed=0)
    w = g.nodes["stem"].params["weight"]
    seen = []

    def probe(t, ctx):
        seen.append(weakref.ref(t))
        return t

    g.insert_hook(Hook("bn_a", HookPosition.POST_OUTPUT, "probe", probe))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        loss = cross_entropy(g.run(Tensor(x), mode="train", rng=np.random.default_rng(0)), y)
        (gw,) = T.grad(loss, [w], create_graph=True)
        gv = T.tsum(T.mul(gw, Tensor(np.random.default_rng(1).normal(size=w.shape))))
        (hv,) = T.grad(gv, [w])
        assert np.abs(hv.data).max() > 0.0
        del loss, gw, gv, hv
        assert len(seen) == 1 and seen[0]() is None, "bn_a's output outlived its Hessian probe"
    finally:
        if was_enabled:
            gc.enable()


def _untaped_and_taped(op, inputs, trainable):
    """``op(*inputs)`` under ``no_grad`` and on the tape, and whether the
    input arrays kept their bytes."""
    before = [t.data.tobytes() for t in inputs]
    with T.no_grad():
        untaped = op(*inputs)
    for t in trainable:
        t.requires_grad = True
    taped = op(*inputs)
    assert taped.requires_grad
    return untaped, taped, before == [t.data.tobytes() for t in inputs]


def test_relu_without_a_tape_matches_the_taped_op():
    x = Tensor(np.random.default_rng(19).normal(size=(3, 4, 5)))
    untaped, taped, unchanged = _untaped_and_taped(T.relu, [x], [x])
    assert untaped._parents == () and not untaped.requires_grad
    assert untaped.data.tobytes() == taped.data.tobytes() and unchanged


def test_maxpool_without_a_tape_matches_the_taped_op():
    x = Tensor(np.random.default_rng(21).normal(size=(2, 3, 4, 4)))
    # two NaNs of different payloads in one window, and a lone NaN in another
    x.data[0, 1, 0, 1] = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes())[0]
    x.data[0, 1, 1, 0] = np.frombuffer(np.uint64(0xFFF8000000000002).tobytes())[0]
    x.data[1, 2, 3, 3] = np.nan
    untaped, taped, unchanged = _untaped_and_taped(lambda x: T.maxpool2d(x, 2), [x], [x])
    assert untaped._parents == () and not untaped.requires_grad
    assert untaped.data.tobytes() == taped.data.tobytes() and unchanged


@pytest.mark.parametrize("grid", ["weight", "signed_act", "unsigned_act"])
@pytest.mark.parametrize("per_channel", [False, True])
def test_fake_quant_without_a_tape_matches_the_taped_op(grid, per_channel):
    x0, scale0, q_min, q_max = _fake_quant_case(grid, per_channel)
    x, scale = Tensor(x0), Tensor(scale0)
    untaped, taped, unchanged = _untaped_and_taped(
        lambda x, scale: T.fake_quant(x, scale, q_min, q_max, RANGE_FLOOR), [x, scale], [x, scale]
    )
    assert untaped.data.tobytes() == taped.data.tobytes() and unchanged


@pytest.mark.parametrize("per_channel", [False, True])
def test_asymmetric_fake_quant_without_a_tape_matches_the_taped_op(per_channel):
    rng = np.random.default_rng(20)
    shape = (3,) if per_channel else ()
    rmin, rmax = rng.uniform(-2, -0.5, shape), rng.uniform(0.5, 2, shape)
    low, high, zero = tune_asymmetric_range(rmin, rmax, 4)
    x, lo, hi = Tensor(rng.uniform(-3, 3, (3, 2, 4, 4))), Tensor(rmin), Tensor(rmax)
    untaped, taped, unchanged = _untaped_and_taped(
        lambda x, lo, hi: T.fake_quant_asymmetric(x, lo, hi, low - rmin, high - rmax, (high - low) / 15.0, zero),
        [x, lo, hi],
        [x, lo, hi],
    )
    assert untaped.data.tobytes() == taped.data.tobytes() and unchanged


@pytest.mark.parametrize("asymmetric", [False, True])
def test_fake_quant_of_a_scalar_input_runs_with_and_without_a_tape(asymmetric):
    def op(x, a, b):
        if asymmetric:
            return T.fake_quant_asymmetric(x, a, b, 0.0, 0.0, np.array(2.0 / 15.0), np.array(7.0))
        return T.fake_quant(x, a, -127.0, 127.0, RANGE_FLOOR)

    x, a, b = Tensor(np.array(0.3)), Tensor(np.array(-1.0 if asymmetric else 1.0)), Tensor(np.array(1.0))
    untaped, taped, unchanged = _untaped_and_taped(op, [x, a, b], [x, a, b])
    assert untaped.data.tobytes() == taped.data.tobytes() and unchanged
    taped.backward()
    assert x.grad is not None


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("shape", [(4, 3, 5, 5), (6, 3)], ids=["conv", "fc"])
def test_batch_norm_without_a_tape_matches_the_taped_op(mode, shape):
    rng = np.random.default_rng(21)
    stats = () if mode == "train" else (rng.uniform(-0.5, 0.5, 3), rng.uniform(0.5, 2.0, 3))
    x, gamma, beta = Tensor(rng.normal(size=shape)), Tensor(rng.uniform(0.5, 1.5, 3)), Tensor(rng.uniform(-1, 1, 3))
    untaped, taped, unchanged = _untaped_and_taped(
        lambda *t: T.batch_norm(*t, 1e-5, *stats)[0], [x, gamma, beta], [x, gamma, beta]
    )
    assert untaped.data.tobytes() == taped.data.tobytes() and unchanged


# -- seeded sweeps (grad_output) and the sweep a root keeps ----------------


def _rademacher(shape, seed):
    return np.random.default_rng(seed).integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0


def _probe_loss(config_name):
    """The Hessian probe set-up of ``tools/export_digests.py``: ``cnn-residual``
    (seed 7) compressed by ``config_name``, and cross entropy plus
    compression loss of a train-mode forward on 64 ``stripes`` samples."""
    config = json.loads((REPO / "configs" / f"{config_name}.json").read_text())
    x, y = make_dataset("stripes", 128, seed=7)
    init = [(x[i : i + 64], y[i : i + 64]) for i in range(0, 128, 64)]
    controllers, g = create_compressed_model(build_model("cnn-residual", 7), config, init)
    out = g.run(Tensor(x[:64]), mode="train", rng=np.random.default_rng(7))
    weights = [node.params["weight"] for node in g.nodes.values() if "weight" in node.params]
    return T.add(cross_entropy(out, y[:64]), total_compression_loss(controllers)), weights


@pytest.mark.parametrize("config", sorted(p.stem for p in (REPO / "configs").glob("*.json")))
def test_seeded_hessian_probe_matches_the_dot_product_root(config):
    """grad(g, [w], grad_output=v) gives the bytes of grad(tsum(mul(g, v)), [w])
    for every weight layer, on its first sweep and on a replay of the kept one."""
    loss, weights = _probe_loss(config)
    assert len(weights) >= 4
    for k, w in enumerate(weights):
        (g,) = T.grad(loss, [w], create_graph=True)
        for seed in (k, k + 100):
            v = _rademacher(w.shape, seed)
            (seeded,) = T.grad(g, [w], grad_output=v)
            (dotted,) = T.grad(T.tsum(T.mul(g, Tensor(v))), [w])
            assert seeded.data.tobytes() == dotted.data.tobytes(), f"weight {k}, probe {seed}"


def test_grad_output_seeds_a_non_scalar_root():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    y = T.mul(T.texp(x), x)
    u = rng.normal(size=(2, 3))
    (seeded,) = T.grad(y, [x], grad_output=u)
    (dotted,) = T.grad(T.tsum(T.mul(y, Tensor(u))), [x])
    assert seeded.data.tobytes() == dotted.data.tobytes()
    (recorded,) = T.grad(y, [x], create_graph=True, grad_output=u)
    assert recorded.requires_grad and recorded.data.tobytes() == dotted.data.tobytes()
    with pytest.raises(TypeError, match="grad_output is a constant array, not a Tensor"):
        T.grad(y, [x], create_graph=True, grad_output=Tensor(u, requires_grad=True))


def test_grad_output_shape_is_checked():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    y = T.mul(x, x)
    with pytest.raises(ShapeError, match=r"grad_output of shape \(3, 2\) does not match the root's \(2, 3\)"):
        T.grad(y, [x], grad_output=np.ones((3, 2)))
    with pytest.raises(ShapeError, match=r"grad_output of shape \(\) does not match"):
        T.grad(y, [x], grad_output=1.0)
    with pytest.raises(ShapeError, match=r"loss must be scalar, got shape \(2, 3\)"):
        T.grad(y, [x])


def test_kept_sweep_follows_wrt():
    """A root keeps the sweep of the last ``wrt`` it was asked for; asking for
    another prepares a new one, and every answer is a fresh sweep's."""
    rng = np.random.default_rng(4)
    a, b = Tensor(rng.normal(size=3), requires_grad=True), Tensor(rng.normal(size=3), requires_grad=True)
    h = T.mul(a, b)
    root = T.mul(T.tsum(T.mul(h, h)), T.tsum(T.texp(a)))
    ga, gb, gab = T.grad(root, [a])[0], T.grad(root, [b])[0], T.grad(root, [a, b])
    assert root._sweep.key == (id(a), id(b))
    assert ga.data.tobytes() == T.grad(root, [a])[0].data.tobytes() == gab[0].data.tobytes()
    assert gb.data.tobytes() == gab[1].data.tobytes()
    (gh,) = T.grad(root, [h])
    np.testing.assert_allclose(gh.data, 2.0 * h.data * np.sum(np.exp(a.data)))


def test_kept_sweep_is_not_replayed_past_a_release():
    w = Tensor([2.0, 3.0], requires_grad=True)
    h = T.mul(w, w)
    root = T.mul(h, 3.0)
    (first,) = T.grad(root, [w], grad_output=np.ones(2))
    np.testing.assert_array_equal(first.data, [12.0, 18.0])
    assert root._sweep is not None
    T.backward(T.tsum(T.mul(h, 5.0)))  # releases h, which root's kept sweep runs through
    with pytest.raises(RuntimeError, match="'mul' tensor was released"):
        T.grad(root, [w], grad_output=np.ones(2))


def test_backward_drops_the_sweep_a_released_root_kept():
    w = Tensor([2.0, 3.0], requires_grad=True)
    loss = T.tsum(T.mul(T.texp(w), w))
    T.grad(loss, [w])
    assert loss._sweep is not None
    T.backward(loss)
    assert loss._sweep is None


def test_root_keeping_its_sweep_is_freed_without_the_collector():
    loss, weights = _probe_loss("int8_sparse50")
    w = weights[1]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        (g,) = T.grad(loss, [w], create_graph=True)
        for seed in range(3):
            T.grad(g, [w], grad_output=_rademacher(w.shape, seed))
        assert loss._sweep is not None and g._sweep is not None
        roots = weakref.ref(loss), weakref.ref(g)
        del loss, g
        assert [r() for r in roots] == [None, None], "a root that keeps its sweep outlived its last reference"
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("create_graph", [False, True])
def test_grad_reads_wrt_once(create_graph):
    rng = np.random.default_rng(21)
    x, y = Tensor(rng.normal(size=(3, 4)), requires_grad=True), Tensor(rng.normal(size=(4,)), requires_grad=True)
    loss = T.tsum(T.mul(T.mul(x, x), y))
    seen = []
    for wrt in ((w for w in [x, y]), (x, y), [x, y]):
        grads = T.grad(loss, wrt, create_graph=create_graph)
        seen.append([g.data.tobytes() for g in grads])
    assert len(seen[0]) == 2
    assert seen[0] == seen[1] == seen[2]
