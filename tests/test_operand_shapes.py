"""Operands at their natural shape give the bits of full-size broadcast copies.

Layers and hooks pass scalars, ``(1, C, 1, 1)``, ``(C, 1, 1, 1)`` or
``(N, 1)`` operands and let the engine's binary ops broadcast.  Each
reference below is the same formula written with an explicit
``broadcast_to`` (or a numpy copy) of every such operand.  Forward values
and leaf gradients must agree byte for byte.  The references run on the
same machine as the code under test, so differing BLAS kernels cannot make
these tests flaky the way recorded hashes would.
"""

import json
from collections import Counter

import numpy as np
import pytest

from nncompress import tensor as T
from nncompress.api import create_compressed_model, total_compression_loss
from nncompress.binarization import _sign, binarize_activations, binarize_weights
from nncompress.data import make_dataset
from nncompress.graph import INPUT_ID, ModelGraph
from nncompress.models import build_model
from nncompress.quantization import FakeQuantizer, tune_asymmetric_range
from nncompress.sparsity import ParamMask
from nncompress.tensor import Tensor
from nncompress.util import cross_entropy

from test_api import REPO
from test_graph import bn_node


def assert_same_bits(build, reference, leaves, seed=0):
    """``build()`` and ``reference()`` agree in forward bytes and in the
    bytes of every leaf's gradient of a random weighted sum of the output."""
    rng = np.random.default_rng(seed)
    weights = None
    seen = []
    for fn in (build, reference):
        for leaf in leaves:
            leaf.zero_grad()
        out = fn()
        if weights is None:
            weights = Tensor(rng.normal(size=out.shape))
        T.backward(T.tsum(T.mul(out, weights)))
        seen.append((out.shape, out.data.tobytes(), [leaf.grad.tobytes() for leaf in leaves]))
    assert seen[0][0] == seen[1][0]
    assert seen[0][1] == seen[1][1], "forward bytes differ"
    for i, (a, b) in enumerate(zip(seen[0][2], seen[1][2])):
        assert a == b, f"gradient bytes of leaf {i} differ"


def leaf(rng, shape, low=-2.0, high=2.0):
    return Tensor(rng.uniform(low, high, shape), requires_grad=True)


# -- BatchNorm ---------------------------------------------------------------


def reference_batchnorm(x, gamma, beta, running_mean, running_var, mode, eps=1e-5):
    c = gamma.shape[0]
    pshape = (1, c) + (1,) * (x.ndim - 2)
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    if mode == "train":
        mu = T.tmean(x, axis=axes, keepdims=True)
        xc = T.sub(x, T.broadcast_to(mu, x.shape))
        var = T.tmean(T.mul(xc, xc), axis=axes, keepdims=True)
    else:
        mu = T.reshape(Tensor(running_mean), pshape)
        var = T.reshape(Tensor(running_var), pshape)
        xc = T.sub(x, T.broadcast_to(mu, x.shape))
    inv = T.div(1.0, T.tsqrt(T.add(var, eps)))
    xhat = T.mul(xc, T.broadcast_to(inv, x.shape))
    return T.add(
        T.mul(xhat, T.broadcast_to(T.reshape(gamma, pshape), x.shape)),
        T.broadcast_to(T.reshape(beta, pshape), x.shape),
    )


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("shape", [(4, 3, 5, 5), (6, 3)], ids=["conv", "fc"])
def test_batchnorm_matches_broadcast_reference(mode, shape):
    rng = np.random.default_rng(1)
    g = ModelGraph(input_shape=shape[1:])
    node = g.add_node(bn_node("bn", INPUT_ID, shape[1]))
    gamma, beta = node.params["gamma"], node.params["beta"]
    gamma.data = rng.uniform(0.5, 1.5, shape[1])
    beta.data = rng.uniform(-1, 1, shape[1])
    running_mean = rng.uniform(-0.5, 0.5, shape[1])
    running_var = rng.uniform(0.5, 2.0, shape[1])
    x = leaf(rng, shape)

    def build():
        node.params["running_mean"].data = running_mean.copy()
        node.params["running_var"].data = running_var.copy()
        return g.run(x, mode=mode)

    def reference():
        return reference_batchnorm(x, gamma, beta, running_mean, running_var, mode)

    assert_same_bits(build, reference, [x, gamma, beta])


# -- asymmetric quantizer ------------------------------------------------------


def reference_asymmetric(fq, t):
    levels = float(2**fq.bits - 1)
    lo_t, hi_t, z = tune_asymmetric_range(fq.rmin.data, fq.rmax.data, fq.bits)
    lo_eff = T.add(fq.rmin, Tensor(lo_t - fq.rmin.data))
    hi_eff = T.add(fq.rmax, Tensor(hi_t - fq.rmax.data))

    def view(p):
        return T.reshape(p, (p.shape[0],) + (1,) * (t.ndim - 1)) if fq.per_channel else p

    def spread(arr):
        shaped = np.reshape(arr, arr.shape + (1,) * (t.ndim - arr.ndim))
        return Tensor(np.broadcast_to(shaped, t.shape).copy())

    lo_b = T.broadcast_to(view(lo_eff), t.shape)
    hi_b = T.broadcast_to(view(hi_eff), t.shape)
    step_b = spread((hi_t - lo_t) / levels)
    z_b = spread(np.asarray(z, dtype=np.float64))
    q = T.round_ste(T.add(T.div(T.clamp(t, lo_b, hi_b), step_b), z_b))
    return T.mul(T.sub(q, z_b), step_b)


@pytest.mark.parametrize(
    "per_channel, shape",
    [(False, (3, 4, 5, 5)), (False, (6, 7)), (True, (4, 3, 3, 3)), (True, (5, 8))],
    ids=["tensor-4d", "tensor-2d", "channel-4d", "channel-2d"],
)
def test_asymmetric_quantizer_matches_broadcast_reference(per_channel, shape):
    rng = np.random.default_rng(2)
    fq = FakeQuantizer(
        bits=4, mode="asymmetric", grid="weight", per_channel=per_channel, channels=shape[0]
    )
    rshape = fq.rmin.shape
    # ranges narrower than the data, so both clip bounds receive gradient
    fq.rmin.data = rng.uniform(-1.5, -0.2, rshape)
    fq.rmax.data = rng.uniform(0.3, 1.5, rshape)
    fq.initialized = True
    t = leaf(rng, shape)
    assert_same_bits(lambda: fq(t), lambda: reference_asymmetric(fq, t), [t, fq.rmin, fq.rmax])


# -- binarization --------------------------------------------------------------


def reference_binarize_weights(w, scheme):
    if scheme == "dorefa":
        alpha = np.full(w.shape, np.mean(np.abs(w.data)))
    else:
        per_in = np.abs(w.data).mean(axis=(0, 2, 3))
        alpha = np.broadcast_to(per_in.reshape(1, -1, 1, 1), w.shape).copy()
    return T.mul(T.ste_apply(w, _sign, name="sign_ste"), Tensor(alpha))


@pytest.mark.parametrize("scheme", ["xnor", "dorefa"])
def test_binarize_weights_matches_broadcast_reference(scheme):
    w = leaf(np.random.default_rng(3), (4, 3, 3, 3))
    assert_same_bits(
        lambda: binarize_weights(w, scheme), lambda: reference_binarize_weights(w, scheme), [w]
    )


def reference_binarize_activations(x, s, t):
    s_b = T.broadcast_to(s, x.shape)
    t_b = T.broadcast_to(T.reshape(t, (t.shape[0], 1, 1)), x.shape)
    z = T.sub(x, T.mul(s_b, t_b))
    h = T.ste_apply(z, lambda d: (d > 0).astype(np.float64), name="heaviside_ste")
    return T.mul(s_b, h)


def test_binarize_activations_matches_broadcast_reference():
    rng = np.random.default_rng(4)
    x = leaf(rng, (3, 4, 5, 5))
    s = Tensor(np.array(0.8), requires_grad=True)
    t = leaf(rng, (4,), -0.5, 0.5)
    assert_same_bits(
        lambda: binarize_activations(x, s, t),
        lambda: reference_binarize_activations(x, s, t),
        [x, s, t],
    )


# -- loss and masks -------------------------------------------------------------


def reference_cross_entropy(logits, labels):
    n, c = logits.shape
    shift = Tensor(logits.data.max(axis=1, keepdims=True))
    z = T.sub(logits, T.broadcast_to(shift, logits.shape))
    lse = T.tlog(T.tsum(T.texp(z), axis=1, keepdims=True))
    logp = T.sub(z, T.broadcast_to(lse, z.shape))
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    return T.mul(T.tsum(T.mul(logp, Tensor(onehot))), -1.0 / n)


def test_cross_entropy_matches_broadcast_reference():
    rng = np.random.default_rng(5)
    logits = leaf(rng, (16, 5), -4.0, 4.0)
    labels = rng.integers(0, 5, size=16)
    assert_same_bits(
        lambda: cross_entropy(logits, labels),
        lambda: reference_cross_entropy(logits, labels),
        [logits],
    )


def test_filter_mask_matches_broadcast_reference():
    rng = np.random.default_rng(6)
    p = leaf(rng, (5, 3, 3, 3))
    mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0]).reshape(5, 1, 1, 1)
    hook = ParamMask(mask)
    assert_same_bits(
        lambda: hook(p), lambda: T.mul(p, T.broadcast_to(Tensor(mask), p.shape)), [p]
    )


# -- convolution and the training tape -----------------------------------------


def test_conv2d_output_is_c_contiguous():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(2, 3, 6, 6)))
    w = Tensor(rng.normal(size=(4, 3, 3, 3)))
    b = Tensor(rng.normal(size=4))
    assert T.conv2d(x, w, b, padding=1).data.flags["C_CONTIGUOUS"]


def test_train_step_tape_has_no_broadcasts():
    config = json.loads((REPO / "configs" / "int8_sparse50.json").read_text())
    x, y = make_dataset("stripes", 64, seed=0)
    batches = [(x[i : i + 32], y[i : i + 32]) for i in range(0, 64, 32)]
    controllers, g = create_compressed_model(build_model("cnn-residual", 0), config, batches)
    out = g.run(Tensor(x[:32]), mode="train", rng=np.random.default_rng(0))
    loss = T.add(cross_entropy(out, y[:32]), total_compression_loss(controllers))
    tape = T._toposort(loss)
    ops = Counter(node._op for node in tape)
    assert not {"pad2d", "crop2d", "broadcast_to"} & set(ops)
    # each conv bias feeds one node: the bias add that writes the conv output
    biases = {id(node.params["bias"]) for node in g.nodes.values() if node.kind == "Conv2D"}
    assert len(biases) == 3
    children = Counter(id(p) for node in tape for p, _ in node._parents if id(p) in biases)
    assert children == Counter({b: 1 for b in biases})


# -- convolution lowering -------------------------------------------------------

# stride, padding, kernel and batch size; the input is 5x6 so that rows and
# columns of windows differ
LOWERING_GRID = pytest.mark.parametrize(
    "stride, pad, k, n",
    [(s, p, k, n) for s in (1, 2) for p in (0, 1) for k in (1, 3) for n in (1, 3)],
)


def _out_size(size, k, s, pad):
    return (size + 2 * pad - k) // s + 1


def reference_im2col(a, kh, kw, sh, sw, pad):
    """The per-sample lowering: [N, C*kh*kw, oh*ow] columns."""
    a = T.as_tensor(a)  # an unrecorded sweep hands its vjps ndarrays
    n, c, h, w = a.shape
    oh, ow = _out_size(h, kh, sh, pad), _out_size(w, kw, sw, pad)
    xp = np.pad(a.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    view = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw]
    cols = view.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow).copy()
    shape_in = a.shape
    return T._node(cols, [(a, lambda g: reference_col2im(g, shape_in, kh, kw, sh, sw, pad))], "im2col")


def reference_col2im(cols, shape_in, kh, kw, sh, sw, pad):
    cols = T.as_tensor(cols)
    n, c, h, w = shape_in
    oh, ow = _out_size(h, kh, sh, pad), _out_size(w, kw, sw, pad)
    src = cols.data.reshape(n, c, kh, kw, oh, ow)
    out = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw] += src[:, :, i, j]
    if pad:
        out = out[:, :, pad : pad + h, pad : pad + w].copy()
    return T._node(out, [(cols, lambda g: reference_im2col(g, kh, kw, sh, sw, pad))], "col2im")


def reference_conv2d(x, w, b, stride, pad):
    """conv2d on per-sample columns, transposed and reshaped into the GEMM operand."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    oh, ow = _out_size(h, kh, stride, pad), _out_size(wd, kw, stride, pad)
    cols = reference_im2col(x, kh, kw, stride, stride, pad)
    cols = T.reshape(T.transpose(cols, (1, 0, 2)), (c * kh * kw, n * oh * ow))
    out = T.matmul(T.reshape(w, (o, c * kh * kw)), cols)
    out = T.transpose(T.reshape(out, (o, n, oh, ow)), (1, 0, 2, 3))
    return T.add(out, T.broadcast_to(T.reshape(b, (1, o, 1, 1)), out.shape))


@LOWERING_GRID
def test_conv2d_matches_per_sample_lowering(stride, pad, k, n):
    rng = np.random.default_rng(8)
    x, w, b = leaf(rng, (n, 2, 5, 6)), leaf(rng, (3, 2, k, k)), leaf(rng, (3,))
    assert_same_bits(
        lambda: T.conv2d(x, w, b, stride, pad), lambda: reference_conv2d(x, w, b, stride, pad), [x, w, b]
    )
    # a Hessian-vector product runs col2im's vjp, im2col, on the double-backward tape
    vx, vw = Tensor(rng.normal(size=x.shape)), Tensor(rng.normal(size=w.shape))
    seen = []
    for conv in (T.conv2d, reference_conv2d):
        out = conv(x, w, b, stride, pad)
        gx, gw = T.grad(T.tsum(T.mul(out, out)), [x, w], create_graph=True)
        dot = T.add(T.tsum(T.mul(gx, vx)), T.tsum(T.mul(gw, vw)))
        seen.append([g.data.tobytes() for g in T.grad(dot, [x, w, b])])
    assert seen[0] == seen[1], "Hessian-vector product bytes differ"


def test_im2col_feeds_matmul_directly():
    rng = np.random.default_rng(9)
    x, w, b = leaf(rng, (2, 3, 6, 6)), leaf(rng, (4, 3, 3, 3)), leaf(rng, (4,))
    tape = T._toposort(T.tsum(T.conv2d(x, w, b, stride=2, padding=1)))
    (cols,) = [node for node in tape if node._op == "im2col"]
    consumers = [node for node in tape if any(p is cols for p, _ in node._parents)]
    assert [node._op for node in consumers] == ["matmul"]


@LOWERING_GRID
def test_im2col_returns_a_fresh_contiguous_operand(stride, pad, k, n):
    x = Tensor(np.random.default_rng(10).normal(size=(n, 2, 5, 6)))
    cols = T.im2col(x, k, k, stride, stride, pad).data
    assert cols.shape == (2 * k * k, n * _out_size(5, k, stride, pad) * _out_size(6, k, stride, pad))
    assert cols.flags["C_CONTIGUOUS"]
    assert not np.shares_memory(cols, x.data)


@LOWERING_GRID
def test_col2im_is_the_adjoint_of_im2col(stride, pad, k, n):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(n, 2, 5, 6))
    cols = T.im2col(x, k, k, stride, stride, pad)
    y = rng.normal(size=cols.shape)
    lhs = np.vdot(cols.data, y)
    rhs = np.vdot(x, T._col2im(y, x.shape, k, k, stride, stride, pad).data)
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


@LOWERING_GRID
def test_col2im_matches_strided_adds(stride, pad, k, n):
    """The per-channel bincount gives the bytes of kh*kw strided += passes from +0.0."""
    rng = np.random.default_rng(12)
    shape = (n, 2, 5, 6)
    oh, ow = _out_size(5, k, stride, pad), _out_size(6, k, stride, pad)
    cols = rng.normal(size=(2 * k * k, n * oh * ow))
    cols[rng.random(cols.shape) < 0.2] = -0.0  # a sum of signed zeros alone must still read +0.0
    src = cols.reshape(2, k, k, n, oh, ow)
    dst = np.zeros((2, n, 5 + 2 * pad, 6 + 2 * pad))
    for i in range(k):
        for j in range(k):
            dst[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += src[:, i, j]
    expected = np.ascontiguousarray(dst[:, :, pad : pad + 5, pad : pad + 6].transpose(1, 0, 2, 3))
    assert T._col2im(cols, shape, k, k, stride, stride, pad).data.tobytes() == expected.tobytes()


# -- max pooling -----------------------------------------------------------------


def reference_maxpool(a, k, s):
    """np.argmax over each window's elements, with take_along_axis and np.add.at."""
    a = T.as_tensor(a)
    n, c, h, w = a.shape
    oh, ow = _out_size(h, k, s, 0), _out_size(w, k, s, 0)
    view = np.lib.stride_tricks.sliding_window_view(a.data, (k, k), axis=(2, 3))
    view = view[:, :, ::s, ::s, :, :].reshape(n, c, oh, ow, k * k)
    idx = np.argmax(view, axis=-1)
    out = np.take_along_axis(view, idx[..., None], axis=-1)[..., 0].copy()
    return T._node(out, [(a, lambda g: reference_maxpool_scatter(g, idx, a.shape, k, s))], "maxpool2d")


def _window_elements(idx, k, s):
    ki, kj = np.unravel_index(idx, (k, k))
    ni, ci, oi, oj = np.indices(idx.shape)
    return ni, ci, oi * s + ki, oj * s + kj


def reference_maxpool_scatter(g, idx, shape_in, k, s):
    g = T.as_tensor(g)
    out = np.zeros(shape_in)
    np.add.at(out, _window_elements(idx, k, s), g.data)
    return T._node(out, [(g, lambda gg: reference_maxpool_gather(gg, idx, shape_in, k, s))], "maxpool_scatter")


def reference_maxpool_gather(gg, idx, shape_in, k, s):
    gg = T.as_tensor(gg)
    out = gg.data[_window_elements(idx, k, s)]
    return T._node(out, [(gg, lambda g3: reference_maxpool_scatter(g3, idx, shape_in, k, s))], "maxpool_gather")


def _ties(rng, shape):
    # whole windows of zeros, as after a ReLU, plus repeated values and a
    # -0.0 ahead of a +0.0, where argmax keeps the first
    x = np.where(rng.random(shape) < 0.6, 0.0, rng.integers(1, 3, shape).astype(np.float64))
    x[0, 0, :2, :2] = 0.0
    x[0, 0, 0, 0] = -0.0
    return x


def _nan(rng, shape):
    x = rng.normal(size=shape)
    x[0, 1, 1, 1] = np.nan
    return x


@pytest.mark.parametrize("k, s", [(2, 2), (3, 2), (3, 1)])
@pytest.mark.parametrize("make", [_ties, _nan, lambda rng, shape: rng.normal(size=shape)], ids=["ties", "nan", "normal"])
def test_maxpool_matches_argmax_and_add_at(make, k, s):
    rng = np.random.default_rng(13)
    x = Tensor(make(rng, (2, 3, 7, 7)), requires_grad=True)
    with T.no_grad():
        assert T.maxpool2d(x, k, s).data.tobytes() == reference_maxpool(x, k, s).data.tobytes()
    # forward bytes and the bytes of backward()'s gradient
    assert_same_bits(lambda: T.maxpool2d(x, k, s), lambda: reference_maxpool(x, k, s), [x])
    # a Hessian-vector product runs the scatter's vjp, the gather, and its vjp
    v = Tensor(rng.normal(size=x.shape))
    seen = []
    for pool in (T.maxpool2d, reference_maxpool):
        out = pool(x, k, s)
        (gx,) = T.grad(T.tsum(T.mul(out, out)), [x], create_graph=True)
        seen.append(T.grad(T.tsum(T.mul(gx, v)), [x])[0].data.tobytes())
    assert seen[0] == seen[1], "Hessian-vector product bytes differ"


def test_maxpool_gradient_of_a_tie_reaches_the_first_element():
    x = Tensor(np.zeros((1, 1, 4, 4)), requires_grad=True)
    T.backward(T.tsum(T.maxpool2d(x, 2)))
    expected = np.zeros((4, 4))
    expected[::2, ::2] = 1.0
    np.testing.assert_array_equal(x.grad[0, 0], expected)


def test_maxpool_overlapping_windows_add_in_window_order():
    # k=3, s=2: the centre column and row are shared by two windows each
    x = Tensor(np.zeros((1, 1, 5, 5)), requires_grad=True)
    x.data[0, 0, 2, 2] = 1.0  # the maximum of all four windows
    g = np.array([0.1, 0.2, 0.3, 0.4]).reshape(1, 1, 2, 2)
    T.backward(T.tsum(T.mul(T.maxpool2d(x, 3, 2), Tensor(g))))
    assert x.grad[0, 0, 2, 2] == ((0.0 + 0.1) + 0.2 + 0.3) + 0.4
    assert np.count_nonzero(x.grad) == 1


@pytest.mark.parametrize(
    "config, quantizer_op",
    [("int8_sparse50", "fake_quant"), ("quant_asym_percentile", "fake_quant_asym")],
)
def test_train_step_tape_has_one_node_per_batchnorm_and_quantizer(config, quantizer_op):
    config = json.loads((REPO / "configs" / f"{config}.json").read_text())
    x, y = make_dataset("stripes", 64, seed=0)
    batches = [(x[i : i + 32], y[i : i + 32]) for i in range(0, 64, 32)]
    controllers, g = create_compressed_model(build_model("cnn-residual", 0), config, batches)
    out = g.run(Tensor(x[:32]), mode="train", rng=np.random.default_rng(0))
    loss = T.add(cross_entropy(out, y[:32]), total_compression_loss(controllers))
    ops = Counter(node._op for node in T._toposort(loss))
    assert ops["batchnorm"] == 3
    assert ops[quantizer_op] == 12
    assert not {"sqrt", "div", "maximum", "minimum", "round_ste"} & set(ops)
