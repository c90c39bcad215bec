"""The blocked convolution: ``conv2d`` splits a large batch into blocks of
whole samples, one per CPU, and each block must give the bits of one block.

The tests fake the CPU count, so they split on a one-CPU machine too."""

import glob
import json
import multiprocessing
import os
import threading
from queue import Empty

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nncompress import tensor as T
from nncompress.api import create_compressed_model
from nncompress.data import make_dataset
from nncompress.models import build_model
from nncompress.tensor import Tensor
from nncompress.train import evaluate

from test_api import REPO

CONFIGS = [None] + sorted(os.path.basename(p) for p in glob.glob(str(REPO / "configs" / "*.json")))


@pytest.fixture
def cpus(monkeypatch):
    """A setter of the CPU count conv2d sees; it returns the list of block
    counts conv2d has chosen in this test."""
    counts = []
    run_blocks = T._run_blocks

    def counting(fn, bounds, *args):
        counts.append(len(bounds) - 1)
        return run_blocks(fn, bounds, *args)

    monkeypatch.setattr(T, "_run_blocks", counting)

    def set_cpus(k):
        monkeypatch.setattr(T, "_cpus", lambda: k)
        return counts

    return set_cpus


def conv_bytes(x, w, b, stride, pad, recorded=False):
    """The output bytes of conv2d and, when recorded, of every gradient."""
    if not recorded:
        with T.no_grad():
            return [T.conv2d(x, w, b, stride, pad).data.tobytes()]
    leaves = [Tensor(a.data, requires_grad=True) for a in (x, w, b)]
    out = T.conv2d(*leaves, stride, pad)
    grads = T.grad(T.tsum(T.mul(out, out)), leaves)
    return [out.data.tobytes()] + [g.data.tobytes() for g in grads]


def preset_convs():
    """(C, H, W, O, kernel, stride, padding) of every preset convolution."""
    found = set()
    for preset in ("cnn-small", "cnn-residual"):
        g = build_model(preset, 0)
        shapes = g.infer_shapes()
        for node in g.nodes.values():
            if node.kind == "Conv2D":
                a = node.attrs
                found.add(shapes[node.inputs[0]] + (a["out_channels"], a["kernel"], a["stride"], a["padding"]))
    return sorted(found)


@pytest.mark.parametrize("shape", preset_convs())
def test_blocked_conv_matches_one_block_for_preset_shapes(shape, cpus):
    c, h, w, o, k, stride, pad = shape
    rng = np.random.default_rng(0)
    x_all = rng.normal(size=(300, c, h, w))
    wt, b = Tensor(rng.normal(size=(o, c, k, k))), Tensor(rng.normal(size=o))
    counts = []
    for n in range(1, 301):
        x = Tensor(x_all[:n])
        cpus(1)
        want = conv_bytes(x, wt, b, stride, pad)
        for k_cpus in (2, 4):
            counts = cpus(k_cpus)
            assert conv_bytes(x, wt, b, stride, pad) == want, f"batch {n} on {k_cpus} CPUs"
    if c == 8:  # cnn-residual's conv_a and conv_b split from 114 samples on
        assert max(counts) > 1


# Batches of 16·m samples and lower bounds that make many drawn examples
# split.  The explicit examples do not split: the unaligned edges and the
# small blocks that the alignment and the minimum rule out gave other bits
# than one block with OpenBLAS.
@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    n=st.integers(2, 32).map(lambda m: 16 * m),
    c=st.integers(4, 48),
    o=st.integers(4, 32),
    k=st.integers(1, 3),
    stride=st.integers(1, 2),
    pad=st.integers(0, 2),
    hw=st.tuples(st.integers(5, 12), st.integers(5, 12)),
    bias=st.booleans(),
    k_cpus=st.integers(2, 4),
    recorded=st.booleans(),
)
@example(n=151, c=4, o=16, k=3, stride=1, pad=0, hw=(9, 9), bias=True, k_cpus=2, recorded=False)
@example(n=14, c=43, o=5, k=3, stride=1, pad=1, hw=(8, 8), bias=True, k_cpus=4, recorded=False)
def test_blocked_conv_matches_one_block_property(n, c, o, k, stride, pad, hw, bias, k_cpus, recorded):
    oh, ow = ((d + 2 * pad - k) // stride + 1 for d in hw)
    n = max(1, min(n, 2**20 // (c * k * k * oh * ow)))  # at most 2^20 lowered entries
    rng = np.random.default_rng(n * 1000 + c * 100 + o)
    x = Tensor(rng.normal(size=(n, c) + hw))
    w = Tensor(rng.normal(size=(o, c, k, k)))
    b = Tensor(rng.normal(size=o) if bias else np.zeros(o))
    original = T._cpus
    try:
        T._cpus = lambda: 1
        want = conv_bytes(x, w, b, stride, pad, recorded)
        T._cpus = lambda: k_cpus
        assert conv_bytes(x, w, b, stride, pad, recorded) == want
    finally:
        T._cpus = original


def test_blocked_conv_without_bias_matches_one_block(cpus):
    rng = np.random.default_rng(1)
    x, w = Tensor(rng.normal(size=(128, 8, 8, 8))), Tensor(rng.normal(size=(8, 8, 3, 3)))
    outs = []
    for k in (1, 2):
        counts = cpus(k)
        with T.no_grad():
            outs.append(T.conv2d(x, w, None, 1, 1).data.tobytes())
    assert counts[-1] == 2 and outs[0] == outs[1]


def deploy_models(preset):
    x, y = make_dataset("stripes", 128, seed=5)
    batches = [(x[i : i + 32], y[i : i + 32]) for i in range(0, 128, 32)]
    for name in CONFIGS:
        model = build_model(preset, 3)
        if name is not None:
            config = json.loads((REPO / "configs" / name).read_text())
            _, model = create_compressed_model(model, config, batches)
        yield name, model


@pytest.mark.parametrize("preset", ["cnn-residual", "cnn-small"])
def test_evaluate_is_identical_with_and_without_blocks(preset, cpus):
    x, y = make_dataset("stripes", 1100, seed=6)
    for name, model in deploy_models(preset):
        seen = []
        for k in (1, 2):
            counts = cpus(k)
            with T.no_grad():
                logits = [model.run(Tensor(x[i : i + 1000]), mode="eval").data.tobytes() for i in (0, 1000)]
            seen.append((evaluate(model, x, y), evaluate(model, x, y, batch_size=1000), logits))
        assert seen[0] == seen[1], f"{preset} with {name}"
        assert max(counts) > 1, f"{preset} with {name} never split"


def test_worker_exception_reaches_the_caller(cpus, monkeypatch):
    cpus(2)
    lower = T._lower

    def failing(x, cols, *args):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("raised in a worker")
        return lower(x, cols, *args)

    rng = np.random.default_rng(2)
    x, w = Tensor(rng.normal(size=(128, 8, 8, 8))), Tensor(rng.normal(size=(8, 8, 3, 3)))
    monkeypatch.setattr(T, "_lower", failing)
    with pytest.raises(FloatingPointError, match="raised in a worker"):
        T.conv2d(x, w, None, 1, 1)
    monkeypatch.setattr(T, "_lower", lower)
    with T.no_grad():  # the pool still works
        assert T.conv2d(x, w, None, 1, 1).shape == (128, 8, 8, 8)


def _evaluate_in_child(queue):
    x, y = make_dataset("stripes", 256, seed=7)
    queue.put(evaluate(build_model("cnn-residual", 4), x, y))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_forked_child_evaluates_after_the_parent_made_its_worker(cpus):
    counts = cpus(2)
    x, y = make_dataset("stripes", 256, seed=7)
    want = evaluate(build_model("cnn-residual", 4), x, y)
    assert max(counts) > 1 and T._Workers.pid == os.getpid()
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_evaluate_in_child, args=(queue,))
    child.start()
    try:
        got = queue.get(timeout=60)  # drained before the join
    except Empty:
        child.kill()
        child.join()
        pytest.fail("the forked child hung in evaluate")
    child.join(timeout=10)
    assert not child.is_alive() and child.exitcode == 0
    assert got == want


def test_one_block_starts_no_thread(cpus):
    counts = cpus(1)
    rng = np.random.default_rng(3)
    before = threading.active_count()
    with T.no_grad():
        T.conv2d(Tensor(rng.normal(size=(300, 8, 8, 8))), Tensor(rng.normal(size=(8, 8, 3, 3))), None, 1, 1)
    assert counts == [1] and threading.active_count() == before


def test_sample_blocks_respect_the_minimum_and_the_alignment(cpus):
    cpus(4)
    # conv_a of cnn-residual: 64 columns a sample, 8 x 72 multiply-adds a column
    assert T._sample_blocks(128, 64, 576) == [0, 64, 128]
    assert T._sample_blocks(300, 64, 576) == [0, 75, 150, 225, 300]
    assert T._sample_blocks(102, 64, 576) == [0, 102]
    assert T._sample_blocks(32, 64, 576) == [0, 32]
    assert T._sample_blocks(128, 64, 0) == [0, 128]  # a convolution with no output channels
    # 16 columns a sample: edges every 4 samples, and no split off them
    assert T._sample_blocks(1000, 16, 288) == [0, 500, 1000]
    assert T._sample_blocks(1001, 16, 288) == [0, 1001]
    for n in (64, 300, 1000):
        for per in (1, 9, 64):
            for macs in (9, 576):
                bounds = T._sample_blocks(n, per, macs)
                if len(bounds) > 2:
                    assert min(np.diff(bounds)) * per * macs >= T._MIN_BLOCK_MACS
                    assert all(edge * per % 64 == 0 for edge in bounds)
