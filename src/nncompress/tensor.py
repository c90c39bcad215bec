"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: a ``Tensor`` wraps a numpy array, every
operation links the result to its inputs with vector-Jacobian closures, and
``backward``/``grad`` walk the graph in reverse topological order.  The
vjp closures are themselves written in terms of engine operations, so
gradients can be differentiated again (needed for Hessian-vector products).

Both walk one prepared sweep: the sorted tape as integer slots, each with
its edges into the parents that need a gradient.  ``grad`` seeds it with
one at a scalar root or with ``grad_output`` at any root, and keeps it on
the root, so sweeping one tape many times (a Hessian probe per random
vector) sorts it once.

Each op is written once, as a forward on ndarrays, a shape check and its
vjps, and one dispatcher, ``_apply``, runs it.  In a sweep that records
nothing it returns the forward's array, so the ops a vjp calls compute on
arrays; otherwise it checks the operands, and builds vjps only when an
operand is recorded.

Non-differentiable point-wise maps (rounding, sign, thresholding) go through
``ste_apply``, which keeps the exact forward value but passes the incoming
gradient through unchanged.
"""

from __future__ import annotations

import copy as _copy
import functools
import math
import operator
import os
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are invalid for the requested operation."""


class _GradMode:
    enabled = True
    # set inside a reverse sweep that records nothing: gradients are
    # ndarrays, and the engine ops that vjps call take and return arrays
    arrays = False


@contextmanager
def _grad_mode(enabled: bool, arrays: bool = False):
    """Turn graph recording on or off, and array mode on or off, inside the block."""
    prev = _GradMode.enabled, _GradMode.arrays
    _GradMode.enabled, _GradMode.arrays = enabled, arrays
    try:
        yield
    finally:
        _GradMode.enabled, _GradMode.arrays = prev


def no_grad():
    """Disable graph recording inside the block."""
    return _grad_mode(False)


def is_grad_enabled() -> bool:
    """Whether ops may record a tape here: False inside ``no_grad``."""
    return _GradMode.enabled


class Tensor:
    """A dense n-dimensional float64 array with an optional gradient buffer."""

    # a new tensor is an untaped leaf until an op links it
    requires_grad = False
    _grad: Optional[np.ndarray] = None
    _parents: tuple = ()  # ((Tensor, vjp), ...)
    _op: str = "leaf"
    # set on an op's output once ``backward`` has freed the tape through it
    _released = False
    # the reverse sweep ``grad`` last prepared from this tensor as its root
    _sweep = None

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)

    # -- bookkeeping ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def grad(self) -> Optional[np.ndarray]:
        """Accumulated gradient of a leaf tensor; zeros if backward never
        reached it.  Intermediate tensors never accumulate one."""
        if self._grad is None and self.requires_grad:
            self._grad = np.zeros_like(self.data)
        return self._grad

    @grad.setter
    def grad(self, value):
        self._grad = None if value is None else np.asarray(value, dtype=np.float64)

    def zero_grad(self):
        self._grad = None

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __deepcopy__(self, memo) -> "Tensor":
        """A leaf holding copies of the data and gradient; an op output's tape
        is not copied.  Arrays go through ``memo``, so an array that two
        tensors share stays shared in the copy."""
        out = Tensor.__new__(Tensor)
        out.data = _copy.deepcopy(self.data, memo)
        out.requires_grad = self.requires_grad
        out._grad = _copy.deepcopy(self._grad, memo)
        return out

    def __float__(self) -> float:
        return self.item()

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def backward(self):
        backward(self)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# -- the dispatcher -------------------------------------------------------


def _apply(op: str, forward, check, a, b, vjps):
    """Run engine op ``op``: the one place that decides array mode,
    recording and vjp attachment.  ``forward(x, y)`` computes on the arrays
    of ``a`` and ``b``, or on ``b`` itself when it holds parameters (None,
    for a ufunc, is its ``out``); in array mode its array is the result.
    Otherwise ``check(a, b, op)`` raises ``ShapeError`` or returns the op's
    tensors, ``a``'s first, and ``y``, and the result is a tensor.  Only when
    one of those tensors is recorded does ``vjps(*tensors, y, out)`` build a
    ``(tensor, vjp)`` pair for each; ``out`` is a weak reference to the
    result, so no tape is a reference cycle.
    """
    if _GradMode.arrays:
        return forward(a.data if isinstance(a, Tensor) else a, b.data if isinstance(b, Tensor) else b)
    ins, y = check(a, b, op)
    out = Tensor.__new__(Tensor)
    out.data, out._op = forward(ins[0].data, y), op
    if _records(ins):
        _link(out, vjps(*ins, y, weakref.ref(out)))
    return out


def _records(tensors) -> bool:
    """Whether an op on ``tensors`` goes on the tape.  A fused op asks
    before its forward, to write in place when nothing records."""
    if _GradMode.enabled:
        for t in tensors:
            if t.requires_grad:
                return True
    return False


def _link(out: Tensor, parents):
    """Put on the tape the vjps into those of ``parents`` that are recorded."""
    kept = tuple(pair for pair in parents if pair[0].requires_grad)
    out._parents, out.requires_grad = kept, bool(kept)


def _node(data: np.ndarray, parents, op: str) -> Tensor:
    """A tensor of ``op``'s result ``data`` made outside ``_apply``, with
    ``(tensor, vjp)`` ``parents`` linked while recording is on."""
    out = Tensor.__new__(Tensor)
    out.data, out._op = data, op
    if _GradMode.enabled:
        _link(out, parents)
    return out


def _operand(a, params, op: str):
    """A unary op's operand as a tensor, its parameters as they are."""
    return (as_tensor(a),), params


def _operands(a, b, op: str):
    """Both operands as tensors; their shapes must broadcast together."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        try:
            np.broadcast_shapes(a.shape, b.shape)
        except ValueError as e:
            raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from e
    return (a, b), b.data


def _given(a, others: tuple, op: str):
    """The tensors of a fused op, which checked them and computed its
    arrays before it dispatched."""
    return (a,) + others, None


def _scaled(a: Tensor, factor: np.ndarray):
    """The vjps of a unary op whose Jacobian is the diagonal ``factor``."""
    return ((a, lambda g: mul(g, factor)),)


def _sum_axes(gshape: tuple, shape: tuple) -> tuple:
    """The axes over which a gradient of ``gshape`` sums back to ``shape``."""
    lead = len(gshape) - len(shape)
    return tuple(range(lead)) + tuple(i + lead for i, s in enumerate(shape) if s == 1 and gshape[i + lead] != 1)


def _sum_to(g: Tensor, shape: tuple) -> Tensor:
    """Sum a broadcast gradient back to an operand's shape."""
    if g.shape == shape:
        return g
    return reshape(tsum(g, axis=_sum_axes(g.shape, shape)), shape)


def _channel_view(a: np.ndarray, shape: tuple, op: str) -> np.ndarray:
    """A per-channel array (one entry per index of axis 0) shaped to broadcast
    against a tensor of ``shape``; a scalar stays as it is."""
    if not a.ndim:
        return a
    if a.ndim != 1 or not shape or a.shape[0] != shape[0]:
        raise ShapeError(f"{op}: per-channel operand {a.shape} does not fit input {shape}")
    return a.reshape((a.shape[0],) + (1,) * (len(shape) - 1))


# -- elementwise ops ------------------------------------------------------
# Binary ops broadcast like numpy; each vjp sums back to its operand's shape.


def add(a, b) -> Tensor:
    return _apply("add", operator.add, _operands, a, b, lambda a, b, y, out: (
        (a, lambda g: _sum_to(g, a.shape)),
        (b, lambda g: _sum_to(g, b.shape)),
    ))


def sub(a, b) -> Tensor:
    return _apply("sub", operator.sub, _operands, a, b, lambda a, b, y, out: (
        (a, lambda g: _sum_to(g, a.shape)),
        (b, lambda g: _sum_to(neg(g), b.shape)),
    ))


def neg(a) -> Tensor:
    return _apply("neg", np.negative, _operand, a, None, lambda a, y, out: ((a, neg),))


def mul(a, b) -> Tensor:
    return _apply("mul", operator.mul, _operands, a, b, lambda a, b, y, out: (
        (a, lambda g: _sum_to(mul(g, b), a.shape)),
        (b, lambda g: _sum_to(mul(g, a), b.shape)),
    ))


def div(a, b) -> Tensor:
    return _apply("div", operator.truediv, _operands, a, b, lambda a, b, y, out: (
        (a, lambda g: _sum_to(div(g, b), a.shape)),
        (b, lambda g: _sum_to(neg(div(mul(g, out()), b)), b.shape)),
    ))


def texp(a) -> Tensor:
    return _apply("exp", np.exp, _operand, a, None, lambda a, y, out: ((a, lambda g: mul(g, out())),))


def tlog(a) -> Tensor:
    return _apply("log", np.log, _operand, a, None, lambda a, y, out: ((a, lambda g: div(g, a)),))


def tsqrt(a) -> Tensor:
    return _apply("sqrt", np.sqrt, _operand, a, None, lambda a, y, out: ((a, lambda g: div(mul(g, 0.5), out())),))


def sigmoid(a) -> Tensor:
    return _apply("sigmoid", _logistic, _operand, a, None, lambda a, y, out: (
        (a, lambda g: mul(g, mul(out(), sub(1.0, out())))),
    ))


def _logistic(x, _):
    # numerically stable two-sided form
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def tabs(a) -> Tensor:
    return _apply("abs", np.abs, _operand, a, None, lambda a, y, out: _scaled(a, np.where(a.data >= 0, 1.0, -1.0)))


def relu(a) -> Tensor:
    return _apply("relu", np.maximum, _operand, a, 0.0, lambda a, y, out: _scaled(a, (a.data > 0).astype(np.float64)))


def maximum(a, b) -> Tensor:
    """Elementwise max; at ties the gradient goes to the first operand."""
    return _apply("maximum", np.maximum, _operands, a, b, _select_vjps)


def minimum(a, b) -> Tensor:
    """Elementwise min; at ties the gradient goes to the first operand."""
    return _apply("minimum", np.minimum, _operands, a, b, _select_vjps)


def _select_vjps(a, b, y, out):
    # the gradient goes to ``a`` where the output equals it, so at every
    # tie, and to ``b`` elsewhere
    take_a = (out().data == a.data).astype(np.float64)
    return (a, lambda g: _sum_to(mul(g, take_a), a.shape)), (b, lambda g: _sum_to(mul(g, 1.0 - take_a), b.shape))


def clamp(a, lo, hi) -> Tensor:
    """clamp(x; lo, hi) = min(max(x, lo), hi); lo/hi may be tensors or scalars."""
    return minimum(maximum(a, lo), hi)


def ste_apply(x, forward_fn: Callable[[np.ndarray], np.ndarray], name: str = "ste") -> Tensor:
    """Apply a non-smooth elementwise map with a straight-through backward.

    The forward value is ``forward_fn(x)``; the backward passes the upstream
    gradient through unchanged (identity Jacobian).
    """
    return _apply(name, _ste, _operand, x, forward_fn, lambda x, y, out: ((x, lambda g: g),))


def _ste(x, forward_fn):
    data = np.asarray(forward_fn(x), dtype=np.float64)
    if data.shape != np.shape(x):
        raise ShapeError(f"ste_apply: forward_fn changed shape {np.shape(x)} -> {data.shape}")
    return data


def round_ste(x) -> Tensor:
    """Bankers rounding (half to even) with a straight-through gradient."""
    return ste_apply(x, np.round, name="round_ste")


def fake_quant(x, scale, q_min: float, q_max: float, floor: float) -> Tensor:
    """Fused symmetric fake quantization ``round(clamp(x / step, q_min, q_max)) * step``
    with ``step = max(|scale|, floor) / q_max``.

    ``scale`` is the trainable range, one value or one per index of ``x``'s
    first axis.  Only its magnitude sets the step, so a scale that training
    drives negative quantizes as its absolute value and keeps a gradient
    instead of sticking at the floor.  The value equals the ``tabs`` ->
    ``maximum`` -> ``reshape`` -> ``div`` -> ``clamp`` -> ``round_ste`` ->
    ``mul`` chain bit for bit, and the vjps are that chain's in closed form,
    with ``v = x / step`` and ``inside`` the mask of ``q_min <= v <= q_max``:
    ``g * inside`` for ``x``, and ``((sum of g * (q - inside * v)) / q_max) *
    sign(scale) * [|scale| >= floor]`` for ``scale``.  Both are engine ops,
    so they can be differentiated again.
    """
    x, scale = as_tensor(x), as_tensor(scale)
    step = _channel_view(np.maximum(np.abs(scale.data), floor), x.shape, "fake_quant") / q_max
    v = np.asarray(x.data / step)  # an array even for a 0-d x, so it can be written into
    recording = _records((x, scale))
    # in place in v when nothing is recorded; the vjps keep v and q otherwise
    q = np.maximum(v, q_min, out=np.empty_like(v) if recording else v)
    np.minimum(q, q_max, out=q)
    np.round(q, out=q)
    data = np.multiply(q, step, out=np.empty_like(q) if recording else q)

    def vjps(x, scale, y, out):
        inside = ((v >= q_min) & (v <= q_max)).astype(np.float64)
        kept = np.sign(scale.data) * (np.abs(scale.data) >= floor)

        def vjp_scale(g):
            g_step = _sum_to(mul(g, q - inside * v), step.shape)
            return mul(reshape(div(g_step, q_max), scale.shape), kept)

        return (x, lambda g: _sum_to(mul(g, inside), x.shape)), (scale, vjp_scale)

    return _apply("fake_quant", lambda *_: data, _given, x, (scale,), vjps)


def fake_quant_asymmetric(x, lo, hi, lo_shift, hi_shift, step, zero) -> Tensor:
    """The asymmetric quantizer as one op:
    ``(round(clamp(x, lo + lo_shift, hi + hi_shift) / step + zero) - zero) * step``.

    ``lo`` and ``hi`` are the trainable range bounds, one value or one per
    index of ``x``'s first axis; the constant shifts move them to the tuned
    bounds, so boundary gradients still land on ``lo`` and ``hi``.  ``step``
    and ``zero`` are constants of the same shape.  Forward bits and
    gradients are those of the ``add`` -> ``clamp`` -> ``div`` -> ``add`` ->
    ``round_ste`` -> ``sub`` -> ``mul`` chain, including its ``(g * step) /
    step`` into the clamp, and the vjps are engine ops.
    """
    x, lo, hi = as_tensor(x), as_tensor(lo), as_tensor(hi)
    low, high, step, zero = (
        _channel_view(np.asarray(a, dtype=np.float64), x.shape, "fake_quant_asymmetric")
        for a in (lo.data + lo_shift, hi.data + hi_shift, step, zero)
    )
    above = np.asarray(np.maximum(x.data, low))  # an array even for a 0-d x
    if _records((x, lo, hi)):  # the vjps read only these masks, taken before above is reused
        over_low = (x.data >= low).astype(np.float64)
        under_high = (above <= high).astype(np.float64)
    # the rest of the sequence in place, in the one buffer above
    np.minimum(above, high, out=above)
    np.divide(above, step, out=above)
    np.add(above, zero, out=above)
    np.round(above, out=above)
    np.subtract(above, zero, out=above)
    np.multiply(above, step, out=above)

    def vjps(x, lo, hi, y, out):
        def into_clamp(g):
            return div(mul(g, step), step)

        def into_max(g):  # past the clamp's upper bound, into its lower one
            return mul(into_clamp(g), under_high)

        def vjp_lo(g):
            return reshape(_sum_to(mul(into_max(g), 1.0 - over_low), low.shape), lo.shape)

        def vjp_hi(g):
            return reshape(_sum_to(mul(into_clamp(g), 1.0 - under_high), high.shape), hi.shape)

        return (x, lambda g: mul(into_max(g), over_low)), (lo, vjp_lo), (hi, vjp_hi)

    return _apply("fake_quant_asym", lambda *_: above, _given, x, (lo, hi), vjps)


# -- structural / reduction ops ------------------------------------------


def reshape(a, shape) -> Tensor:
    return _apply("reshape", _reshape, _reshape_operand, a, shape, lambda a, shape, out: (
        (a, lambda g: reshape(g, a.shape)),
    ))


def _reshape(x, shape):
    return x.reshape(shape)


def _reshape_operand(a, shape, op: str):
    a = as_tensor(a)
    shape = tuple(int(s) for s in (shape if isinstance(shape, (tuple, list)) else (shape,)))
    known, free = math.prod(s for s in shape if s != -1), shape.count(-1)  # free: -1, numpy's inferred length
    if min(shape, default=0) < -1 or free > 1 or ((not known or a.size % known) if free else known != a.size):
        raise ShapeError(f"{op}: cannot reshape {a.shape} (size {a.size}) to {shape}")
    return (a,), shape


def transpose(a, axes=None) -> Tensor:
    return _apply("transpose", _transpose, _transpose_operand, a, axes, _transpose_vjps)


def _transpose(x, axes):
    return x.transpose(axes)


def _transpose_operand(a, axes, op: str):
    a = as_tensor(a)
    axes = tuple(reversed(range(a.ndim))) if axes is None else tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"{op}: axes {axes} are not a permutation of the axes of {a.shape}")
    return (a,), axes


def _transpose_vjps(a, axes, out):
    inv = tuple(np.argsort(axes))
    return ((a, lambda g: transpose(g, inv)),)


def broadcast_to(a, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if isinstance(a, Tensor) and a.shape == shape:
        return a  # nothing to spread, and no tape node
    return _apply("broadcast_to", _spread, _broadcast_operand, a, shape, lambda a, shape, out: (
        (a, lambda g: _sum_to(g, a.shape)),
    ))


def _spread(x, shape):
    return x if x.shape == shape else np.broadcast_to(x, shape).copy()


def _broadcast_operand(a, shape, op: str):
    a = as_tensor(a)
    if len(shape) < a.ndim or any(s not in (1, t) for s, t in zip(a.shape[::-1], shape[::-1])):
        raise ShapeError(f"{op}: cannot broadcast {a.shape} to {shape}")
    return (a,), shape


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    return _apply("sum", _sum, _sum_operand, a, (axis, keepdims), _sum_vjps)


def _sum(x, spec):
    return np.add.reduce(x, spec[0], None, None, spec[1])  # np.sum's reduction, without its wrappers


def _sum_operand(a, spec, op: str):
    a = as_tensor(a)
    return (a,), (_axes(spec[0], a.ndim, op), spec[1])


def _sum_vjps(a, spec, out):
    kept = tuple(1 if i in spec[0] else s for i, s in enumerate(a.shape))
    # spreading the gradient over the summed axes is this op's adjoint
    return ((a, lambda g: broadcast_to(reshape(g, kept), a.shape)),)


def _axes(axis, ndim: int, op: str) -> tuple:
    """``axis`` (None, an int or a sequence) as a tuple of distinct axes in
    [0, ndim); an axis outside [-ndim, ndim) or a repeated one raises."""
    if axis is None:
        return tuple(range(ndim))
    given = (axis,) if isinstance(axis, (int, np.integer)) else tuple(axis)
    axes = tuple([ax % ndim for ax in given if -ndim <= ax < ndim])
    if len(axes) != len(given) or len(set(axes)) != len(axes):
        raise ShapeError(f"{op}: axis {axis} is out of range or repeated for a tensor of rank {ndim}")
    return axes


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = math.prod(a.shape[ax] for ax in _axes(axis, a.ndim, "tmean"))
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def matmul(a, b) -> Tensor:
    return _apply("matmul", operator.matmul, _matmul_operands, a, b, _matmul_vjps)


def _matmul_operands(a, b, op: str):
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} @ {b.shape}")
    return (a, b), b.data


def _matmul_vjps(a, b, y, out):
    return (a, lambda g: matmul(g, transpose(b))), (b, lambda g: matmul(transpose(a), g))


def _window_count(size: int, k: int, s: int) -> int:
    return (size - k) // s + 1


def im2col(a, kh: int, kw: int, sh: int, sw: int, pad: int = 0) -> Tensor:
    """Copy the windows of [N,C,H,W] ``a``, zero-padded by ``pad`` on H and W,
    once into conv2d's operand [C*kh*kw, N*oh*ow]: rows (c,i,j), cols (n,y,x)."""
    return _apply("im2col", _im2col, _windows, a, (kh, kw, sh, sw, pad), _im2col_vjps)


def _windows(a, window, op: str):
    """``a`` as a tensor and its ``window`` (kh, kw, sh, sw, pad), once kh x kw
    windows at stride sh x sw fit [N,C,H,W] ``a`` zero-padded by pad."""
    a, (kh, kw, sh, sw, pad) = as_tensor(a), window
    if a.ndim != 4:
        raise ShapeError(f"{op}: expected 4-d input, got {a.shape}")
    if min(kh, kw, sh, sw) < 1 or pad < 0:
        raise ShapeError(
            f"{op}: window {kh}x{kw} and stride {sh}x{sw} must be >= 1, padding {pad} >= 0"
        )
    h, w = a.shape[2:]
    if h + 2 * pad < kh or w + 2 * pad < kw:
        raise ShapeError(f"{op}: window {kh}x{kw} does not fit input {h}x{w} with padding {pad}")
    return (a,), window


def _im2col_vjps(a, window, out):
    return ((a, lambda g: _col2im(g, a.shape, *window)),)


def _im2col(x: np.ndarray, window) -> np.ndarray:
    kh, kw, sh, sw, pad = window
    n, c, h, w = x.shape
    oh, ow = _window_count(h + 2 * pad, kh, sh), _window_count(w + 2 * pad, kw, sw)
    cols = np.empty((c, kh, kw, n, oh, ow), dtype=np.float64)
    _lower(x, cols, sh, sw, pad)
    return cols.reshape(c * kh * kw, n * oh * ow)


def _lower(x: np.ndarray, cols: np.ndarray, sh, sw, pad):
    """Copy the windows of [N,C,H,W] ``x``, zero-padded by ``pad``, into
    ``cols`` viewed as [C,kh,kw,N,oh,ow]."""
    c, kh, kw, n, oh, ow = cols.shape
    h, w = x.shape[2:]
    src = x.transpose(1, 0, 2, 3)  # [C,N,H,W]
    if pad:
        padded = np.zeros((c, n, h + 2 * pad, w + 2 * pad))
        padded[:, :, pad:-pad, pad:-pad] = src
        src = padded
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = src[:, :, i : i + sh * oh : sh, j : j + sw * ow : sw]


def _col2im(cols, shape_in, kh, kw, sh, sw, pad) -> Tensor:
    """Adjoint of ``im2col``: add every window back into the padded input,
    crop the padding away, and lay the result out as [N,C,H,W].

    One ``bincount`` per channel does the adding: each input element's sum
    starts from +0.0 and takes its windows in (i, j) order, the order of
    kh*kw strided ``+=`` passes."""
    geometry = (shape_in, kh, kw, sh, sw, pad)
    return _apply("col2im", _add_windows, _operand, cols, geometry, lambda cols, geometry, out: (
        (cols, lambda g: im2col(g, *geometry[1:])),
    ))


def _add_windows(cols: np.ndarray, geometry) -> np.ndarray:
    (n, c, h, w), kh, kw, sh, sw, pad = geometry
    hp, wp = h + 2 * pad, w + 2 * pad
    index = _col2im_index(n, h, w, kh, kw, sh, sw, pad)
    src = cols.reshape(c, -1)
    out = np.empty((n, c, h, w))
    for ch in range(c):
        plane = np.bincount(index, weights=src[ch], minlength=n * hp * wp).reshape(n, hp, wp)
        out[:, ch] = plane[:, pad : pad + h, pad : pad + w]
    return out


# One entry: the index does not depend on the channel count, so every
# convolution of a model whose inputs share their height, width and window
# geometry uses the same one.  An all-channel index cached per shape kept
# 3.5-8 MB more of the heap resident.
@functools.lru_cache(maxsize=1)
def _col2im_index(n, h, w, kh, kw, sh, sw, pad) -> np.ndarray:
    """For each entry of one channel's rows of im2col's operand, in their
    flat (i,j,n,y,x) order, the flat position of its source in that
    channel's padded [N,H+2p,W+2p] input."""
    hp, wp = h + 2 * pad, w + 2 * pad
    oh, ow = _window_count(hp, kh, sh), _window_count(wp, kw, sw)
    rows = (np.arange(kh)[:, None] + sh * np.arange(oh)).reshape(kh, 1, 1, oh, 1)
    cols = (np.arange(kw)[:, None] + sw * np.arange(ow)).reshape(1, kw, 1, 1, ow)
    planes = np.arange(n, dtype=np.intp).reshape(1, 1, n, 1, 1)
    # left writeable: bincount copies a read-only index on every call
    return ((planes * hp + rows) * wp + cols).ravel()


def maxpool2d(a, k: int, stride: Optional[int] = None) -> Tensor:
    """Max pooling over non-overlapping (by default) kxk windows.

    The forward folds each window with k*k in-place ``np.maximum`` passes,
    taped or not: a tie keeps the earlier element, and a NaN wins.  A
    recorded call then finds the element ``np.argmax`` picks (the first
    equal to the maximum, or the first NaN) and keeps its flat index in
    ``a``, so its vjp scatters with one ``bincount`` and the adjoint of
    that gathers with one ``take``."""
    s = k if stride is None else stride
    return _apply("maxpool2d", _maxpool, _windows, a, (k, k, s, s, 0), _maxpool_vjps)


def _pool_elements(x: np.ndarray, window) -> list:
    """Each offset (i, j) of a window, in ``np.argmax``'s order, with that
    element of every window of [N,C,H,W] ``x`` as an [N,C,oh,ow] view."""
    k, _, s = window[:3]
    oh, ow = _window_count(x.shape[2], k, s), _window_count(x.shape[3], k, s)
    return [((i, j), x[:, :, i : i + s * oh : s, j : j + s * ow : s]) for i in range(k) for j in range(k)]


def _maxpool(x: np.ndarray, window) -> np.ndarray:
    elements = _pool_elements(x, window)
    out = elements[0][1].copy()
    for _, v in elements[1:]:
        # at a tie np.maximum returns its second operand, the earlier element
        np.maximum(v, out, out=out)
    return out


def _maxpool_vjps(a, window, out):
    (n, c, h, w), s, best = a.shape, window[2], out().data
    offset = np.zeros(best.shape, dtype=np.intp)
    for (i, j), v in reversed(_pool_elements(a.data, window)):  # the earliest match is written last
        np.copyto(offset, i * w + j, where=(v == best) | np.isnan(v))
    oh, ow = best.shape[2:]
    flat = (np.arange(n * c).reshape(n, c, 1, 1) * h + s * np.arange(oh)[:, None]) * w + s * np.arange(ow) + offset
    return ((a, lambda g: _maxpool_scatter(g, flat, a.shape)),)


def _maxpool_scatter(g, flat, shape_in) -> Tensor:
    """Each window's gradient added onto its maximal element of the input,
    windows in (n, c, y, x) order, every sum starting from +0.0."""
    return _apply("maxpool_scatter", _scatter, _operand, g, (flat, shape_in), lambda g, index, out: (
        (g, lambda gg: _maxpool_gather(gg, *index)),
    ))


def _scatter(g: np.ndarray, index) -> np.ndarray:
    flat, shape_in = index
    return np.bincount(flat.ravel(), weights=g.ravel(), minlength=math.prod(shape_in)).reshape(shape_in)


def _maxpool_gather(gg, flat, shape_in) -> Tensor:
    """Each window's maximal element of ``gg``, of ``shape_in``: the
    adjoint of the scatter."""
    return _apply("maxpool_gather", np.take, _operand, gg, flat, lambda gg, flat, out: (
        (gg, lambda g3: _maxpool_scatter(g3, flat, gg.shape)),
    ))


# -- layer-level composites ----------------------------------------------


def conv2d(x, w, b=None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d correlation, NCHW input against OIHW weights.

    One kernel, ``_conv_forward``, computes the lowered input, its product
    with the [O, C*kh*kw] weight and the biased output.  A large batch is
    split into blocks of whole samples, one per usable CPU, each lowered,
    multiplied and biased by one thread; the bits are those of one block.
    A recorded call hands the kernel's arrays to the tape nodes
    ``im2col`` -> ``matmul`` -> ``reshape`` -> ``transpose`` -> ``add``.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-d input and weight, got {x.shape}, {w.shape}")
    n, c = x.shape[:2]
    o, ci, kh, kw = w.shape
    if c != ci:
        raise ShapeError(f"conv2d: input channels {c} != weight in_channels {ci}")
    window = (kh, kw, stride, stride, padding)
    _windows(x, window, "conv2d")
    operands = (x, w)
    if b is not None:
        b = as_tensor(b)
        if b.shape != (o,):
            raise ShapeError(f"conv2d: bias shape {b.shape} != ({o},)")
        operands += (b,)
    w2 = w.data.reshape(o, c * kh * kw)
    cols, prod, data = _conv_forward(x.data, w2, None if b is None else b.data, kh, kw, stride, padding)
    if not _records(operands):
        return _apply("conv2d", lambda *_: data, _given, x, operands[1:], None)
    lowered = _apply("im2col", lambda *_: cols, _operand, x, window, _im2col_vjps)
    out = _apply("matmul", lambda *_: prod, _matmul_operands, reshape(w, w2.shape), lowered, _matmul_vjps)
    out = transpose(reshape(out, (o, n) + data.shape[2:]), (1, 0, 2, 3))  # from [O, N*L]
    if b is None:
        return out
    # the bias gradient is summed to (1, O, 1, 1) first, as broadcast_to's was
    return _apply("add", lambda *_: data, _given, out, (b,), lambda conv, b, y, out: (
        (conv, lambda g: g),
        (b, lambda g: reshape(_sum_to(g, (1, o, 1, 1)), (o,))),
    ))


# Blocked convolution.  A block carries at least this many multiply-adds.
# A smaller product can take another BLAS kernel than the whole batch's
# (OpenBLAS has a small-matrix path), and so give other bits; and a
# smaller block does not pay for waking a worker that has been idle
# through a training epoch.
_MIN_BLOCK_MACS = 1 << 21
# Block edges fall on multiples of this many product columns, and a batch
# is split only if its column count is one too, so that every block meets
# the GEMM micro-kernel's column tiles where the whole product does.
# Both values fit OpenBLAS's kernels; the bits match one block only where
# tests/test_conv_blocks.py passes.  Where it fails, run on one CPU, or
# derive the alignment and minimum from the BLAS in use.
_BLOCK_ALIGN = 64


class _Workers:
    # the threads that run every block but the first, made on first use in
    # each process: a process forked from this one has the pool but not its
    # threads
    pid = None
    pool = None


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sample_blocks(n: int, cols_per_sample: int, macs_per_col: int) -> list:
    """The sample bounds of ``conv2d``'s blocks: ``[0, n]`` for one block,
    else one block per usable CPU, as equal as the alignment allows, each
    of at least ``_MIN_BLOCK_MACS`` multiply-adds."""
    step = _BLOCK_ALIGN // math.gcd(cols_per_sample, _BLOCK_ALIGN)  # samples per aligned edge
    if n % step:
        return [0, n]
    units, unit_macs = n // step, max(1, step * cols_per_sample * macs_per_col)
    most = units // -(-_MIN_BLOCK_MACS // unit_macs)  # blocks of at least the minimum
    count = min(most, _cpus()) if most > 1 else 1
    return [units * i // count * step for i in range(count + 1)]


def _run_blocks(fn, bounds: list, *args):
    """``fn(*args, lo, hi)`` for each pair of adjacent ``bounds``: the first
    block in this thread, the others on worker threads.  Returns once every
    block is done, and re-raises here an exception a worker raised."""
    if len(bounds) == 2:
        return fn(*args, *bounds)
    if _Workers.pid != os.getpid():
        _Workers.pid = os.getpid()
        _Workers.pool = ThreadPoolExecutor(max(1, _cpus() - 1), thread_name_prefix="nncompress-conv")
    futures = [_Workers.pool.submit(fn, *args, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        fn(*args, bounds[0], bounds[1])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _conv_forward(x: np.ndarray, w2: np.ndarray, b, kh, kw, stride, pad):
    """``conv2d``'s arrays: the lowered input [C*kh*kw, N*L], its product
    [O, N*L] with the weight ``w2`` [O, C*kh*kw], and the output [N,O,oh,ow]
    (with a bias ``b``, a new C-contiguous sum, as BatchNorm's sums expect;
    without, a view of the product).

    The caller allocates these three, and ``_conv_block`` fills them one
    block of whole samples at a time.  The blocks split the product by
    columns only, on aligned edges, so each output element has the bits of
    the one-block product.
    """
    n, c, h, w = x.shape
    o = w2.shape[0]
    oh, ow = _window_count(h + 2 * pad, kh, stride), _window_count(w + 2 * pad, kw, stride)
    cols = np.empty((c, kh, kw, n, oh, ow))
    prod = np.empty((o, n * oh * ow))
    out = None if b is None else np.empty((n, o, oh, ow))
    _run_blocks(_conv_block, _sample_blocks(n, oh * ow, w2.size), x, w2, b, cols, prod, out, stride, pad)
    if out is None:
        out = prod.reshape(o, n, oh, ow).transpose(1, 0, 2, 3)
    return cols.reshape(c * kh * kw, n * oh * ow), prod, out


def _conv_block(x, w2, b, cols, prod, out, stride, pad, lo, hi):
    """Samples ``lo:hi`` of ``_conv_forward``, in one thread: their windows
    into ``cols`` [C,kh,kw,N,oh,ow], their columns of the product into
    ``prod``, and with a bias ``b`` their biased output into ``out``.  The
    product reads lowered columns still in this thread's cache, and the
    thread allocates only the zero-padded copy of its samples.  A worker
    runs only this: numpy on arrays, no engine op, no grad mode."""
    _lower(x[lo:hi], cols[:, :, :, lo:hi], stride, stride, pad)
    o, oh, ow = len(w2), cols.shape[4], cols.shape[5]
    part = prod[:, lo * oh * ow : hi * oh * ow]
    np.matmul(w2, cols.reshape(w2.shape[1], prod.shape[1])[:, lo * oh * ow : hi * oh * ow], out=part)
    if b is not None:
        np.add(part.reshape(o, hi - lo, oh, ow).transpose(1, 0, 2, 3), b.reshape(1, o, 1, 1), out=out[lo:hi])


def linear(x, w, b=None) -> Tensor:
    """Fully-connected layer: x [N,F] with weight [O,F] and optional bias [O]."""
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} x {w.shape}")
    out = matmul(x, transpose(w))
    if b is not None:
        b = as_tensor(b)
        if b.shape != (w.shape[0],):
            raise ShapeError(f"linear: bias shape {b.shape} != ({w.shape[0]},)")
        out = add(out, b)
    return out


def batch_norm(x, gamma, beta, eps: float, mean=None, var=None):
    """BatchNorm over every axis but 1 of [N,C] or [N,C,H,W] ``x``, as one op.

    With ``mean``/``var`` (the running buffers, shape [C]) it normalizes by
    them (eval mode); without, by the batch's statistics (train mode).
    Returns the output and the mean and variance used, each shaped to
    broadcast against ``x``.  Forward bits and first-order gradients are
    those of the unfused chain (``tmean``, ``sub``, ``mul``, ``tsqrt``,
    ``div``, ...), in its order of operations.  Eval mode is affine in
    ``x``, and its vjps are engine ops.  A train-mode vjp that is itself
    recorded (``create_graph``) rebuilds the chain from ``x`` in engine ops.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    if x.ndim not in (2, 4) or gamma.shape != (x.shape[1],) or beta.shape != gamma.shape:
        raise ShapeError(f"batch_norm: input {x.shape} with gamma {gamma.shape} and beta {beta.shape}")
    c = x.shape[1]
    pshape = (1, c) + (1,) * (x.ndim - 2)
    axes = (0,) + tuple(range(2, x.ndim))
    n = int(np.prod([x.shape[ax] for ax in axes]))
    train = mean is None
    if train:
        mean, xc, var, sd, inv = _bn_stats(x.data, n, eps, lambda a: np.sum(a, axis=axes, keepdims=True), np.sqrt)
        xhat = xc * inv
    else:
        mean, var = np.reshape(mean, pshape), np.reshape(var, pshape)
        sd = np.sqrt(var + eps)
        inv = 1.0 / sd
        xhat = np.subtract(x.data, mean)
        np.multiply(xhat, inv, out=xhat)
    # the affine step runs in place, into xhat itself when no vjp reads xhat
    y = np.multiply(xhat, gamma.data.reshape(pshape), out=None if _records((x, gamma, beta)) else xhat)
    np.add(y, beta.data.reshape(pshape), out=y)

    def vjps(x, gamma, beta, _, out):
        def statistics():
            # the one choice between the forward's arrays and recorded
            # statistics: a sweep that records nothing reads the forward's
            # own; a recorded vjp (create_graph) rebuilds them from x on the
            # tape, and the normalized input only for the vjp that reads it
            if _GradMode.arrays:
                return xc, sd, inv, lambda: xhat
            _, xc_t, _, sd_t, inv_t = _bn_stats(x, n, eps, lambda a: tsum(a, axis=axes, keepdims=True), tsqrt)
            return xc_t, sd_t, inv_t, lambda: mul(xc_t, inv_t)

        def vjp_x(g):
            if not train:
                return mul(mul(g, reshape(gamma, pshape)), inv)
            return _bn_x_grad(g, reshape(gamma, pshape), *statistics()[:3], n)

        def vjp_gamma(g):
            xhat_t = statistics()[3]() if train else mul(sub(x, mean), inv)
            return reshape(_sum_to(mul(g, xhat_t), pshape), gamma.shape)

        return (x, vjp_x), (gamma, vjp_gamma), (beta, lambda g: reshape(_sum_to(g, pshape), beta.shape))

    return _apply("batchnorm", lambda *_: y, _given, x, (gamma, beta), vjps), mean, var


def _bn_stats(x, n: int, eps: float, total, sqrt):
    """Batch mean, centred input, variance, standard deviation and its
    reciprocal, in the unfused chain's order; ``total`` sums over the
    normalized axes keeping them.  Arrays and tensors both work."""
    mean = total(x) * (1.0 / n)
    xc = x - mean
    var = total(xc * xc) * (1.0 / n)
    sd = sqrt(var + eps)
    return mean, xc, var, sd, 1.0 / sd


def _bn_x_grad(g, gamma_v, xc, sd, inv, n: int):
    """Train-mode BatchNorm's input gradient, accumulated as the unfused
    chain's reverse sweep accumulates it; its sums run to ``gamma_v``'s
    shape [1,C,1,1].  Arrays and tensors both work."""
    gxhat = g * gamma_v
    g_sd = -((_sum_to(gxhat * xc, gamma_v.shape) * inv) / sd)
    t = (((g_sd * 0.5) / sd) * (1.0 / n)) * xc
    gxc = gxhat * inv + t + t
    return gxc + _sum_to(-gxc, gamma_v.shape) * (1.0 / n)


# -- backward engine ------------------------------------------------------


def _toposort(root: Tensor) -> list:
    order: list = []
    visited: set = set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._released:
            raise RuntimeError(
                f"the tape through this {node._op!r} tensor was released by backward(); "
                "run the forward pass again to differentiate it"
            )
        visited.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


class _Releases:
    # counts the tapes ``backward`` has released: a sweep prepared before the
    # last release is prepared again, and that raises if it meets a released
    # tensor
    count = 0


class _Sweep:
    """A reverse sweep over one root's tape, prepared once and run for any seed.

    The tensors it differentiates get integer slots in topological order,
    the root in the last: with ``marked`` the tensors on a path from
    ``wrt`` to the root, without it every tensor.  ``edges`` lists
    ``(slot, vjp, parent slot)`` for every edge between slotted tensors,
    slots in descending order and, within a slot, in the order of its
    ``_parents``; ``out`` holds the slot of each ``wrt`` tensor (None when
    no gradient reaches it).  It holds vjps and slots, never the root, so a
    root that keeps its sweep is no reference cycle.
    """

    __slots__ = ("key", "releases", "size", "edges", "keep", "out")

    def __init__(self, topo: list, wrt: Sequence[Tensor], marked: bool = True, key: tuple = ()):
        self.key, self.releases = key, _Releases.count
        if marked:
            # every tensor whose gradient can reach wrt: in wrt, or a child of one
            wrt_ids, order, slot = {id(w) for w in wrt}, [], {}
            for node in topo:
                if id(node) not in wrt_ids:
                    for parent, _ in node._parents:
                        if id(parent) in slot:
                            break
                    else:
                        continue
                slot[id(node)] = len(order)
                order.append(node)
            if not order:  # no path to wrt: the root alone
                order, slot = [topo[-1]], {id(topo[-1]): 0}
        else:
            order, slot = topo, {id(node): i for i, node in enumerate(topo)}
        self.edges = [
            (i, vjp, slot[id(p)])
            for i in range(len(order) - 1, -1, -1)
            for p, vjp in order[i]._parents
            if not marked or id(p) in slot
        ]
        self.size = len(order)
        self.out = [slot.get(id(w)) for w in wrt]
        self.keep = frozenset(self.out)

    def run(self, seed: np.ndarray, create_graph: bool) -> list:
        """The gradient of each ``wrt`` tensor (None where none reaches) for
        ``seed`` at the root.  Each gradient is dropped as soon as its
        tensor's vjps have run, unless it is returned.  With
        ``create_graph`` the gradients are tensors on a new tape; without it
        the sweep runs in array mode, and they are ndarrays: a vjp then
        receives an ndarray, and a tensor it returns is unwrapped."""
        grads: list = [None] * self.size
        grads[-1] = Tensor(seed) if create_graph else seed
        keep = self.keep
        at = g = None
        with _grad_mode(create_graph, arrays=not create_graph):
            for i, vjp, j in self.edges:
                if i != at:  # the first edge out of slot i: its gradient is complete
                    at, g = i, grads[i]
                    if i not in keep:
                        grads[i] = None
                if g is None:
                    continue
                pg = vjp(g)
                if not create_graph and isinstance(pg, Tensor):  # a vjp built on _node, outside the engine
                    pg = pg.data
                prev = grads[j]
                grads[j] = pg if prev is None else add(prev, pg)
        return [None if k is None else grads[k] for k in self.out]


def backward(loss: Tensor):
    """Add d(loss)/d(t) into ``.grad`` of every leaf tensor ``t`` reachable
    from loss.  Intermediate tensors get no ``.grad``.  Every leaf is kept,
    so every tensor on the tape is differentiated and the sweep skips the
    path marking that ``grad`` does.

    Gradients accumulate across calls; use ``zero_grad`` between steps.
    Once the leaf gradients are filled the tape is released: every tensor
    produced by an op drops its links to its inputs, and a later
    ``backward`` or ``grad`` that reaches one of those tensors raises
    ``RuntimeError``.  ``grad`` keeps its tape, so it can sweep one forward
    pass many times.  No tape is a reference cycle, so either kind is freed
    as soon as its last tensor is dropped.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    topo = _toposort(loss)
    leaves = [t for t in topo if not t._parents]
    grads = _Sweep(topo, leaves, marked=False).run(np.ones_like(loss.data), False)
    for leaf, g in zip(leaves, grads):
        if leaf._grad is None:
            leaf._grad = np.array(g, dtype=np.float64)
        else:
            leaf._grad += g
    _release(topo)


def _release(topo: list):
    # every op output drops the links to its inputs, so a later sweep that
    # reaches one of them raises instead of treating it as a leaf; it also
    # drops any sweep it kept, which would hold the released tape's vjps
    for node in topo:
        if node._parents:
            node._parents = ()
            node._released = True
            if node._sweep is not None:
                node._sweep = None
    _Releases.count += 1


def grad(loss: Tensor, wrt: Sequence[Tensor], create_graph: bool = False, grad_output=None) -> list:
    """Return d(loss)/d(w) for each w in ``wrt`` as tensors, without touching
    ``.grad`` buffers.  With ``create_graph`` the returned tensors stay on the
    tape, so expressions of them can be differentiated again.

    A scalar ``loss`` is seeded with one.  ``grad_output``, an array of
    ``loss``'s shape, seeds any root with itself, so the result is the
    vector-Jacobian product ``grad_output' d(loss)/d(w)``: the bits of
    ``grad(tsum(mul(loss, Tensor(grad_output))), wrt)``.  ``grad_output`` is
    a constant: a ``Tensor`` raises ``TypeError``, because no gradient would
    reach it even under ``create_graph``.

    Only tensors on a path from ``wrt`` to ``loss`` are differentiated: a vjp
    into any other tensor never runs.  Every gradient that is kept still gets
    all its contributions in the same order, so the values are the bits a
    sweep over the whole tape would give.  The sorted, path-marked sweep is
    kept on ``loss`` for the last ``wrt`` asked, so sweeping one root many
    times, with a new ``grad_output`` each time, sorts its tape once.
    """
    if grad_output is None:
        if loss.data.size != 1:
            raise ShapeError(f"grad: loss must be scalar, got shape {loss.shape}; pass grad_output to seed it")
        seed = np.ones_like(loss.data)
    else:
        if isinstance(grad_output, Tensor):
            raise TypeError("grad: grad_output is a constant array, not a Tensor; it is never differentiated")
        seed = np.array(grad_output, dtype=np.float64)
        if seed.shape != loss.shape:
            raise ShapeError(f"grad: grad_output of shape {seed.shape} does not match the root's {loss.shape}")
    wrt = tuple(wrt)  # read once: a generator would be empty after the first pass
    key = tuple(map(id, wrt))
    sweep = loss._sweep
    if sweep is None or sweep.key != key or sweep.releases != _Releases.count:
        sweep = loss._sweep = _Sweep(_toposort(loss), wrt, key=key)
    return [
        Tensor(np.zeros_like(w.data)) if g is None else g if create_graph else Tensor(g)
        for w, g in zip(wrt, sweep.run(seed, create_graph))
    ]
