"""The engine's one dispatcher: array mode, recording and vjp attachment.

Every op runs through ``tensor._apply``.  In array mode (a reverse sweep
that records nothing) it returns the forward's array; otherwise it checks
the operands once and builds vjps only for a recorded operand, each
reaching the op's output through a weak reference."""

import gc
import re
import weakref

import numpy as np
import pytest

from nncompress import tensor as T
from nncompress.tensor import ShapeError, Tensor

RNG = np.random.default_rng(23)


def _arr(*shape, low=-2.0, high=2.0):
    return RNG.uniform(low, high, shape)


_FLAT = RNG.integers(0, 24, size=(2, 3))  # a gather/scatter index into a (2, 3, 4) input
_ASYM = (np.array(-0.1), np.array(0.1), np.array(4.0 / 15.0), np.array(7.0))
_RUNNING = (_arr(3), _arr(3, low=0.5))  # BatchNorm's running mean and variance

# (id, op on its operands, the operands' arrays)
CASES = [
    ("add-broadcast", T.add, [_arr(3, 4), _arr(1, 4)]),
    ("sub-broadcast-lead", T.sub, [_arr(2, 3, 4), _arr(3, 1)]),
    ("mul-0d", T.mul, [_arr(), _arr(3)]),
    ("mul-both-0d", T.mul, [_arr(), _arr()]),
    ("div-broadcast", T.div, [_arr(3, 4), _arr(3, 1, low=0.5)]),
    ("maximum-broadcast", T.maximum, [_arr(3, 4), _arr(4)]),
    ("minimum-0d", T.minimum, [_arr(3, 4), _arr()]),
    ("neg", T.neg, [_arr(3, 4)]),
    ("neg-0d", T.neg, [_arr()]),
    ("exp", T.texp, [_arr(3, 4)]),
    ("log", T.tlog, [_arr(3, 4, low=0.1)]),
    ("sqrt-0d", T.tsqrt, [_arr(low=0.1)]),
    ("sigmoid", T.sigmoid, [_arr(3, 4, low=-40.0, high=40.0)]),
    ("abs", T.tabs, [_arr(3, 4)]),
    ("relu", T.relu, [_arr(3, 4)]),
    ("clamp", lambda x: T.clamp(x, -0.5, 0.5), [_arr(3, 4)]),
    ("round_ste", T.round_ste, [_arr(3, 4, low=-5.0, high=5.0)]),
    ("reshape-free-axis", lambda x: T.reshape(x, (4, -1)), [_arr(2, 3, 4)]),
    ("reshape-0d", lambda x: T.reshape(x, (1, 1)), [_arr()]),
    ("transpose-default", T.transpose, [_arr(2, 3, 4)]),
    ("transpose-axes", lambda x: T.transpose(x, (1, 2, 0)), [_arr(2, 3, 4)]),
    ("broadcast_to", lambda x: T.broadcast_to(x, (2, 3, 4)), [_arr(3, 1)]),
    ("sum-all", T.tsum, [_arr(2, 3, 4)]),
    ("sum-axes-none-keepdims", lambda x: T.tsum(x, axis=None, keepdims=True), [_arr(2, 3, 4)]),
    ("sum-axis", lambda x: T.tsum(x, axis=1), [_arr(2, 3, 4)]),
    ("sum-negative-axes-keepdims", lambda x: T.tsum(x, axis=(0, -1), keepdims=True), [_arr(2, 3, 4)]),
    ("sum-0d", T.tsum, [_arr()]),
    ("mean-keepdims", lambda x: T.tmean(x, axis=2, keepdims=True), [_arr(2, 3, 4)]),
    ("matmul", T.matmul, [_arr(3, 4), _arr(4, 2)]),
    ("linear", T.linear, [_arr(5, 4), _arr(3, 4), _arr(3)]),
    ("im2col", lambda x: T.im2col(x, 3, 2, 2, 1, 1), [_arr(2, 3, 5, 6)]),
    ("col2im", lambda c: T._col2im(c, (2, 3, 5, 6), 3, 2, 2, 1, 1), [_arr(18, 2 * 3 * 7)]),
    ("maxpool2d", lambda x: T.maxpool2d(x, 2), [_arr(2, 3, 4, 6)]),
    ("maxpool2d-overlapping", lambda x: T.maxpool2d(x, 3, 1), [_arr(2, 3, 5, 5)]),
    ("maxpool_scatter", lambda g: T._maxpool_scatter(g, _FLAT, (2, 3, 4)), [_arr(2, 3)]),
    ("maxpool_gather", lambda g: T._maxpool_gather(g, _FLAT, (2, 3, 4)), [_arr(2, 3, 4)]),
    ("conv2d", lambda x, w, b: T.conv2d(x, w, b, 2, 1), [_arr(2, 3, 5, 5), _arr(4, 3, 3, 3), _arr(4)]),
    ("conv2d-no-bias", lambda x, w: T.conv2d(x, w), [_arr(2, 3, 5, 5), _arr(4, 3, 3, 3)]),
    ("batch_norm-train", lambda x, g, b: T.batch_norm(x, g, b, 1e-5)[0], [_arr(4, 3, 2, 2), _arr(3), _arr(3)]),
    ("batch_norm-eval", lambda x, g, b: T.batch_norm(x, g, b, 1e-5, *_RUNNING)[0],
     [_arr(4, 3), _arr(3), _arr(3)]),
    ("fake_quant-per-channel", lambda x, s: T.fake_quant(x, s, -127.0, 127.0, 1e-8),
     [_arr(3, 2, 2, 2), _arr(3, low=0.5)]),
    ("fake_quant-0d", lambda x, s: T.fake_quant(x, s, 0.0, 255.0, 1e-8), [_arr(), _arr(low=0.5)]),
    ("fake_quant_asymmetric", lambda x, lo, hi: T.fake_quant_asymmetric(x, lo, hi, *_ASYM),
     [_arr(3, 4), np.array(-1.5), np.array(1.5)]),
]


@pytest.mark.parametrize("op,arrays", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_array_mode_returns_the_recorded_forward(op, arrays):
    recorded = op(*[Tensor(a, requires_grad=True) for a in arrays])
    assert recorded.requires_grad and recorded._parents
    with T._grad_mode(False, arrays=True):
        bare = op(*[a.copy() for a in arrays])
    assert type(bare) is type(recorded.data) and not isinstance(bare, Tensor)
    assert bare.dtype == recorded.data.dtype and bare.shape == recorded.data.shape
    assert bare.tobytes() == recorded.data.tobytes()


@pytest.mark.parametrize("op,arrays", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_unrecorded_call_returns_the_recorded_forward(op, arrays):
    recorded = op(*[Tensor(a, requires_grad=True) for a in arrays])
    with T.no_grad():
        unrecorded = op(*[Tensor(a) for a in arrays])
    assert isinstance(unrecorded, Tensor) and not unrecorded.requires_grad and unrecorded._parents == ()
    assert unrecorded.data.tobytes() == recorded.data.tobytes()


def _exploding(*args):
    raise AssertionError("called")


def test_dispatcher_builds_no_vjps_when_nothing_records():
    x = Tensor(_arr(3))
    out = T._apply("probe", np.negative, T._operand, x, None, _exploding)
    assert out._op == "probe" and out._parents == () and not out.requires_grad
    with T.no_grad():
        T._apply("probe", np.negative, T._operand, Tensor(_arr(3), requires_grad=True), None, _exploding)
    with pytest.raises(AssertionError, match="called"):
        T._apply("probe", np.negative, T._operand, Tensor(_arr(3), requires_grad=True), None, _exploding)


def test_dispatcher_skips_the_check_in_array_mode():
    x = _arr(3)
    with T._grad_mode(False, arrays=True):
        out = T._apply("probe", np.negative, _exploding, x, None, _exploding)
    assert out.tobytes() == (-x).tobytes()
    with pytest.raises(AssertionError, match="called"):
        T._apply("probe", np.negative, _exploding, Tensor(x), None, _exploding)


def test_only_recorded_operands_get_a_vjp():
    x, c = Tensor(_arr(3), requires_grad=True), Tensor(_arr(3))
    out = T.mul(x, c)
    assert [p for p, _ in out._parents] == [x]


@pytest.mark.parametrize(
    "op",
    [
        lambda x: T.div(Tensor(_arr(3, low=0.5)), x),
        T.texp,
        T.tsqrt,
        T.sigmoid,
    ],
    ids=["div", "exp", "sqrt", "sigmoid"],
)
def test_an_output_its_vjp_reads_is_freed_without_the_collector(op):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        x = Tensor(_arr(3, low=0.5), requires_grad=True)
        out = op(x)
        (gx,) = T.grad(T.tsum(out), [x])  # the vjp reads the output while it is alive
        assert np.all(np.isfinite(gx.data))
        seen = weakref.ref(out)
        del out
        assert seen() is None, "the op's output outlived its last reference"
    finally:
        if was_enabled:
            gc.enable()


def test_a_dropped_loss_frees_its_whole_tape_without_the_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        x = Tensor(_arr(2, 3, low=0.5), requires_grad=True)
        mid = T.sigmoid(T.div(T.tsqrt(x), T.texp(x)))
        seen = weakref.ref(mid)
        loss = T.tsum(T.mul(mid, mid))
        del mid
        (gx,) = T.grad(loss, [x], create_graph=True)
        del loss, gx
        assert seen() is None, "an intermediate tensor outlived its tape"
    finally:
        if was_enabled:
            gc.enable()


# -- shape checks ------------------------------------------------------------


@pytest.mark.parametrize(
    "shape,axis",
    [((2, 3), 2), ((2, 3), -3), ((2, 3), (0, 2)), ((), 0), ((2, 3), (1, 1)), ((2, 3), (0, -2))],
    ids=["past-the-end", "before-the-start", "one-of-two", "0d", "repeated", "repeated-negative"],
)
@pytest.mark.parametrize("reduce", [T.tsum, T.tmean], ids=["tsum", "tmean"])
def test_a_bad_reduction_axis_raises_naming_the_op_axis_and_rank(reduce, shape, axis):
    name = "sum" if reduce is T.tsum else "tmean"
    with pytest.raises(ShapeError, match=f"^{name}: axis {re.escape(str(axis))} .* rank {len(shape)}$"):
        reduce(Tensor(np.ones(shape)), axis=axis)


def test_reduction_axes_in_range_still_reduce():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    np.testing.assert_array_equal(T.tsum(x, axis=-1).data, [3.0, 12.0])
    np.testing.assert_array_equal(T.tsum(x, axis=(1, 0)).data, 15.0)
    np.testing.assert_array_equal(T.tmean(x, axis=np.int64(0)).data, [1.5, 2.5, 3.5])
    assert T.tsum(Tensor(2.0), axis=()).data == 2.0


@pytest.mark.parametrize("target", [(4,), (2, 2), (-1, 4), (-1, -1), (3, -2)])
def test_reshape_to_another_size_raises_naming_both_shapes(target):
    with pytest.raises(ShapeError, match=rf"^reshape: cannot reshape \(2, 3\) .* to {re.escape(str(target))}$"):
        T.reshape(Tensor(np.ones((2, 3))), target)


def test_reshape_with_a_free_axis_still_reshapes():
    assert T.reshape(Tensor(np.ones((2, 3))), (-1,)).shape == (6,)
    assert T.reshape(Tensor(np.ones((2, 3))), (3, -1)).shape == (3, 2)
    assert T.reshape(Tensor(np.ones((2, 0))), (0, 5)).shape == (0, 5)


@pytest.mark.parametrize("axes", [(0, 0, 1), (0, 1), (0, 1, 3), (2, 1, -1)])
def test_transpose_by_a_non_permutation_raises_naming_the_axes(axes):
    with pytest.raises(ShapeError, match=rf"^transpose: axes {re.escape(str(axes))} .* \(2, 3, 4\)$"):
        T.transpose(Tensor(np.ones((2, 3, 4))), axes)
