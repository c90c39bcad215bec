"""Release gate: nine numbered checks, one test per criterion.

Each test prints a single ``PASS criterion N`` line (visible with -s, or
kept in captured output); the pytest -v result line per test is the
pass/fail record. Criteria with runtime budgets assert them.
"""

import itertools
import math
import time

import numpy as np
import pytest

from helpers import check_grad
from topologies import TOPOLOGIES

from nncompress import tensor as T
from nncompress.api import create_compressed_model, export_model, scheduler_epoch_step
from nncompress.binarization import (
    binarization_stage_at,
    binarize_activations,
    binarize_weights,
)
from nncompress.data import make_dataset, train_val_split
from nncompress.mixed_precision import (
    LayerProfile,
    estimate_hessian_trace,
    select_bitwidth_config,
)
from nncompress.models import build_model
from nncompress.pruning import (
    apply_filter_masks,
    filter_importance,
    propagate_pruning_masks,
    strip_pruned_filters,
)
from nncompress.quantization import FakeQuantizer, quant_grid, tune_asymmetric_range
from nncompress.serialize import load_model, serialize_model
from nncompress.sparsity import (
    SparsityScheduleSpec,
    magnitude_masks,
    rb_regularizer_loss,
    sample_gates,
    sparsity_level_at_epoch,
)
from nncompress.tensor import Tensor
from nncompress.train import evaluate, train_model


def sym_q(scale, bits, grid="weight"):
    fq = FakeQuantizer(bits=bits, mode="symmetric", grid=grid)
    fq.scale.data[...] = scale
    fq.initialized = True
    return fq


def asym_q(rmin, rmax, bits):
    fq = FakeQuantizer(bits=bits, mode="asymmetric", grid="signed_act")
    fq.rmin.data[...] = rmin
    fq.rmax.data[...] = rmax
    fq.initialized = True
    return fq


def test_criterion_1_quantization_math():
    start = time.perf_counter()
    for bits in (2, 4, 8):
        assert quant_grid(bits, "weight") == (-(2 ** (bits - 1)) + 1, 2 ** (bits - 1) - 1)
        assert quant_grid(bits, "signed_act") == (-(2 ** (bits - 1)), 2 ** (bits - 1) - 1)
        assert quant_grid(bits, "unsigned_act") == (0, 2 ** bits - 1)
    assert quant_grid(8, "weight") == (-127, 127)
    assert quant_grid(8, "unsigned_act") == (0, 255)
    assert quant_grid(4, "signed_act") == (-8, 7)

    rng = np.random.default_rng(20)
    cases = 0
    for bits in (2, 4, 8):
        # 100 random quantizers x 100 random values = 10 000 cases per
        # invariant per width, split between the two modes
        for qi in range(100):
            scale = float(rng.uniform(0.05, 20.0))
            if qi % 2 == 0:
                fq = sym_q(scale, bits)
                span = scale
            else:
                lo = float(rng.uniform(-20.0, 5.0))
                hi = float(lo + rng.uniform(0.1, 25.0))
                fq = asym_q(lo, hi, bits)
                span = max(abs(lo), abs(hi))
            x = rng.uniform(-2.5 * span, 2.5 * span, size=100)
            with T.no_grad():
                y = fq(Tensor(x)).data
                # idempotence is exact: quantized values land on the grid
                np.testing.assert_array_equal(fq(Tensor(y.copy())).data, y)
                # monotonicity: sorted inputs give sorted outputs
                ys = fq(Tensor(np.sort(x))).data
                assert (np.diff(ys) >= 0).all()
                # level count never exceeds the integer grid size
                q_min, q_max = quant_grid(bits, fq.grid)
                dense = fq(Tensor(np.linspace(-2.5 * span, 2.5 * span, 997))).data
                assert np.unique(dense).size <= q_max - q_min + 1
                # zero maps to zero exactly in both modes
                assert fq(Tensor(np.zeros(3))).data.tolist() == [0.0, 0.0, 0.0]
            cases += 100

        lo = rng.uniform(-30.0, 10.0, size=10_000)
        hi = lo + rng.uniform(0.0, 40.0, size=10_000)
        lo2, hi2, z = tune_asymmetric_range(lo, hi, bits)
        np.testing.assert_array_equal(z, np.round(z))
        assert ((lo2 <= 1e-12) & (hi2 >= -1e-12)).all()  # zero stays in range

    lo2, hi2, z = tune_asymmetric_range(-1.0, 3.0, 8)
    assert float(z) == 64.0
    assert float(hi2) == 3.0
    np.testing.assert_allclose(float(lo2), -192.0 / 191.0, rtol=1e-12)
    lo2, hi2, z = tune_asymmetric_range(0.0, 1.0, 8)
    assert (float(lo2), float(hi2), float(z)) == (0.0, 1.0, 0.0)
    lo2, hi2, z = tune_asymmetric_range(-1.0, 0.0, 8)
    assert (float(lo2), float(hi2), float(z)) == (-1.0, 0.0, 255.0)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 1: grids exact, 5 invariants x {cases // 3} cases/bit-width, "
          f"(-1,3,8)->z=64 ({elapsed:.1f}s)")


def test_criterion_2_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(21)

    def c(shape, low=-2.0, high=2.0):
        return Tensor(rng.uniform(low, high, shape))

    w_cv = c((2, 2, 3, 3))
    b_cv = c((2,))
    x_cv = Tensor(rng.uniform(-2, 2, (1, 2, 4, 4)))
    # distinct pool entries keep the argmax fixed under FD perturbation
    pool_x = rng.permutation(32).astype(np.float64).reshape(1, 2, 4, 4) / 4.0

    # constants captured as default args so each builder is deterministic
    ops = [
        ("add", (3, 4), lambda x, k=c((3, 4)), m=c((3, 4)): T.tsum(T.mul(T.add(x, k), m))),
        ("sub", (3, 4), lambda x, k=c((3, 4)), m=c((3, 4)): T.tsum(T.mul(T.sub(k, x), m))),
        ("neg", (3, 4), lambda x, m=c((3, 4)): T.tsum(T.mul(T.neg(x), m))),
        ("mul", (3, 4), lambda x, m=c((3, 4)): T.tsum(T.mul(x, T.mul(x, m)))),
        ("div", (3, 4), lambda x, k=c((3, 4)): T.tsum(T.div(k, T.add(x, 4.0)))),
        ("exp", (3, 4), lambda x, m=c((3, 4)): T.tsum(T.mul(T.texp(x), m))),
        ("log", (3, 4), lambda x, m=c((3, 4)): T.tsum(T.mul(T.tlog(T.add(x, 4.0)), m))),
        ("sqrt", (3, 4), lambda x, m=c((3, 4)): T.tsum(T.mul(T.tsqrt(T.add(x, 4.0)), m))),
        ("sigmoid", (3, 4), lambda x, m=c((3, 4)): T.tsum(T.mul(T.sigmoid(x), m))),
        ("abs", (3, 4), lambda x, m=c((3, 4)): T.tsum(T.mul(T.tabs(T.add(x, 0.07)), m))),
        ("relu", (3, 4), lambda x, m=c((3, 4)): T.tsum(T.mul(T.relu(T.add(x, 0.07)), m))),
        ("maximum", (3, 4), lambda x, k=c((3, 4)), m=c((3, 4)): T.tsum(T.mul(T.maximum(x, k), m))),
        ("minimum", (3, 4), lambda x, k=c((3, 4)), m=c((3, 4)): T.tsum(T.mul(T.minimum(x, k), m))),
        ("clamp", (3, 4), lambda x, m=c((3, 4)): T.tsum(T.mul(T.clamp(T.mul(x, 0.4), -1.0, 1.0), m))),
        ("reshape", (3, 4), lambda x, m=c((2, 6)): T.tsum(T.mul(T.reshape(x, (2, 6)), m))),
        ("transpose", (3, 4), lambda x, m=c((4, 3)): T.tsum(T.mul(T.transpose(x), m))),
        ("broadcast_to", (1, 3, 1), lambda x, m=c((2, 3, 4)): T.tsum(T.mul(T.broadcast_to(x, (2, 3, 4)), m))),
        ("sum_axis", (3, 4), lambda x, m=c((3, 1)): T.tsum(T.mul(T.tsum(T.mul(x, x), axis=1, keepdims=True), m))),
        ("mean", (3, 4), lambda x, m=c((3, 4)): T.tmean(T.mul(x, T.mul(x, m)))),
        ("matmul", (2, 3), lambda x, k=c((3, 4)), m=c((2, 4)): T.tsum(T.mul(T.matmul(x, k), m))),
        ("linear", (2, 4), lambda x, w=c((3, 4)), b=c((3,)), m=c((2, 3)): T.tsum(T.mul(T.linear(x, w, b), m))),
        ("im2col_pad", (1, 2, 4, 4), lambda x, m=c((1, 18, 4)): T.tsum(T.mul(T.im2col(x, 3, 3, 2, 2, pad=1), m))),
        ("im2col", (1, 2, 4, 4), lambda x, m=c((1, 8, 4)): T.tsum(T.mul(T.im2col(x, 2, 2, 2, 2), m))),
        ("maxpool2d", None, lambda x, m=c((1, 2, 2, 2)): T.tsum(T.mul(T.maxpool2d(x, 2), m))),
        ("conv2d_x", None, lambda x, m=c((1, 2, 4, 4)): T.tsum(T.mul(T.conv2d(x, w_cv, b_cv, stride=1, padding=1), m))),
        ("conv2d_w", (2, 2, 3, 3), lambda w, m=c((1, 2, 2, 2)): T.tsum(T.mul(T.conv2d(x_cv, w, b_cv, stride=2, padding=1), m))),
        ("conv2d_b", (2,), lambda b, m=c((1, 2, 2, 2)): T.tsum(T.mul(T.conv2d(x_cv, w_cv, b), m))),
    ]
    for name, shape, build in ops:
        if name == "maxpool2d":
            x0 = pool_x
        elif name in ("conv2d_x",):
            x0 = rng.uniform(-2, 2, (1, 2, 4, 4))
        else:
            x0 = rng.uniform(-2, 2, shape)
        check_grad(build, x0, rtol=1e-5, atol=1e-6)

    # fake-quant scale gradient vs finite differences of the forward with
    # the rounding residual frozen at the base point
    r = np.array([0.31, -0.62, 1.8, -2.4, 0.05, 0.92])
    u = np.array([1.0, -2.0, 0.5, 4.0, 3.0, -1.5])
    s0, bits = 1.1, 8
    q_min, q_max = quant_grid(bits, "weight")
    v0 = np.clip(r * q_max / s0, q_min, q_max)
    resid = np.round(v0) - v0

    def relaxed(s):
        vc = np.clip(r * q_max / s, q_min, q_max)
        return (u * (s / q_max) * (vc + resid)).sum()

    eps = 1e-6
    fd = (relaxed(s0 + eps) - relaxed(s0 - eps)) / (2 * eps)
    fq = sym_q(s0, bits)
    T.backward(T.tsum(T.mul(fq(Tensor(r)), Tensor(u))))
    np.testing.assert_allclose(float(fq.scale.grad), fd, rtol=1e-4)

    # asymmetric bound gradients vs finite differences of the clamp, with
    # the quantization correction frozen (bound tuning is straight-through)
    fq = asym_q(-1.0, 3.0, 8)
    lo, hi, _ = tune_asymmetric_range(-1.0, 3.0, 8)
    xs = np.array([-2.0, 0.5, 4.0, -1.4, 2.0, 3.6])
    T.backward(T.tsum(T.mul(fq(Tensor(xs)), Tensor(u))))

    def clamp_sum(a, b):
        return (u * np.clip(xs, a, b)).sum()

    fd_lo = (clamp_sum(lo + eps, hi) - clamp_sum(lo - eps, hi)) / (2 * eps)
    fd_hi = (clamp_sum(lo, hi + eps) - clamp_sum(lo, hi - eps)) / (2 * eps)
    np.testing.assert_allclose(float(fq.rmin.grad), fd_lo, rtol=1e-4)
    np.testing.assert_allclose(float(fq.rmax.grad), fd_hi, rtol=1e-4)

    # straight-through contracts hold symbolically (exact equality)
    up = rng.uniform(-3, 3, 10)
    x = Tensor(rng.uniform(-4, 4, 10), requires_grad=True)
    y = T.round_ste(x)
    np.testing.assert_array_equal(y.data, np.round(x.data))
    T.backward(T.tsum(T.mul(y, Tensor(up))))
    np.testing.assert_array_equal(x.grad, up)
    x = Tensor(rng.uniform(-4, 4, 10), requires_grad=True)
    y = T.ste_apply(x, np.sign, name="sign_ste")
    np.testing.assert_array_equal(y.data, np.sign(x.data))
    T.backward(T.tsum(T.mul(y, Tensor(up))))
    np.testing.assert_array_equal(x.grad, up)
    x = Tensor(np.array([0.4, -1.5, 2.0]), requires_grad=True)
    T.backward(T.tsum(sym_q(1.0, 8)(x)))
    np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 2: {len(ops)} ops vs central differences at 1e-5, "
          f"quantizer ranges at 1e-4, STE symbolic ({elapsed:.1f}s)")


def test_criterion_3_hutchinson():
    start = time.perf_counter()
    # diagonal quadratic: v'Hv = sum(d * v^2) = trace for any sign pattern
    d = Tensor(np.array([1.0, 2.0, 3.0]))
    for seed in range(12):
        x = Tensor(np.array([0.7, -1.3, 0.2]), requires_grad=True)
        loss = T.mul(T.tsum(T.mul(d, T.mul(x, x))), 0.5)
        est = estimate_hessian_trace(loss, x, num_samples=1, rng=np.random.default_rng(seed))
        assert est == pytest.approx(6.0, abs=1e-10)

    rng = np.random.default_rng(33)
    r = rng.normal(size=(8, 8))
    a = 0.25 * (r + r.T) + np.diag(np.arange(3.0, 11.0))
    true_trace = float(np.trace(a))
    x = Tensor(rng.normal(size=8), requires_grad=True)
    ax = T.matmul(T.reshape(x, (1, 8)), Tensor(a.T))
    loss = T.mul(T.tsum(T.mul(T.reshape(ax, (8,)), x)), 0.5)
    est = estimate_hessian_trace(loss, x, num_samples=10_000, rng=np.random.default_rng(34))
    rel = abs(est - true_trace) / abs(true_trace)
    assert rel <= 0.02
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 3: diag(1,2,3) exact for 12 draws, 8-param quadratic "
          f"rel err {rel:.4f} at 10k samples ({elapsed:.1f}s)")


def oracle_bitwidths(profiles, target_ratio, choices, direction):
    """Brute force over the full product space, keeping only assignments that
    respect 'strictly smaller trace never gets more bits'."""
    order = sorted(range(len(profiles)), key=lambda i: (profiles[i].avg_trace, i))
    ordered = [profiles[i] for i in order]
    flops = np.array([p.flops for p in ordered], dtype=np.float64)
    base = float(np.sum(flops * 8))
    best_key, best = None, None
    for bits in itertools.product(sorted(set(choices)), repeat=len(ordered)):
        ok = all(
            bits[i] <= bits[j]
            for i in range(len(ordered))
            for j in range(len(ordered))
            if ordered[i].avg_trace < ordered[j].avg_trace
        )
        if not ok:
            continue
        ratio = base / float(np.sum(flops * np.array(bits, dtype=np.float64)))
        if direction == "at_least" and ratio < target_ratio:
            continue
        if direction == "at_most" and ratio > target_ratio:
            continue
        metric = sum(p.sensitivity(b) for p, b in zip(ordered, bits))
        key = (metric, -sum(bits), bits)
        if best_key is None or key < best_key:
            best_key = key
            best = {p.node_id: b for p, b in zip(ordered, bits)}
    return best


def test_criterion_4_bitwidth_search_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(44)
    choice_pool = [(2, 4, 8), (2, 4), (4, 8), (2, 8)]
    feasible = infeasible = 0
    for case in range(340):
        n = int(rng.integers(1, 7))
        traces = rng.uniform(0.01, 10.0, n)
        while np.unique(traces).size < n:
            traces = rng.uniform(0.01, 10.0, n)
        profiles = [
            LayerProfile(
                node_id=f"layer{i}",
                avg_trace=float(traces[i]),
                flops=int(rng.integers(1, 500)),
                errors={b: float(rng.uniform(0.01, 5.0)) for b in (2, 4, 8)},
            )
            for i in range(n)
        ]
        choices = choice_pool[case % len(choice_pool)]
        direction = "at_least" if case % 2 == 0 else "at_most"
        target = float(rng.uniform(0.3, 8.0 / min(choices) + 1.0))
        expected = oracle_bitwidths(profiles, target, choices, direction)
        if expected is None:
            infeasible += 1
            with pytest.raises(ValueError):
                select_bitwidth_config(profiles, target, choices, direction)
            continue
        feasible += 1
        plan = select_bitwidth_config(profiles, target, choices, direction)
        assert plan.assignment == expected
        got_ratio = sum(p.flops * 8 for p in profiles) / sum(
            p.flops * plan.assignment[p.node_id] for p in profiles
        )
        assert plan.achieved_ratio == pytest.approx(got_ratio, rel=1e-12)
    assert feasible >= 200
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 4: matched brute force on {feasible} feasible + "
          f"{infeasible} infeasible instances ({elapsed:.1f}s)")


def test_criterion_5_sparsity_suite():
    start = time.perf_counter()
    # regularizer value is analytic and exact; gradients within 1e-6
    rng = np.random.default_rng(55)
    s0 = rng.normal(size=12)
    s1 = rng.normal(size=8)
    level = 0.4
    a, b = Tensor(s0, requires_grad=True), Tensor(s1, requires_grad=True)
    loss = rb_regularizer_loss([a, b], level)
    probs = 1.0 / (1.0 + np.exp(-np.concatenate([s0, s1])))
    gap = probs.mean() - (1.0 - level)
    assert loss.item() == pytest.approx(gap * gap, rel=1e-14)
    T.backward(loss)
    expected = 2.0 * gap * probs * (1.0 - probs) / probs.size
    np.testing.assert_allclose(
        np.concatenate([a.grad, b.grad]), expected, rtol=1e-6, atol=1e-12
    )

    # sampled gate frequency tracks sigmoid(s) within Monte Carlo noise
    scores = np.array([-2.5, -1.0, -0.2, 0.4, 1.5, 3.0])
    draws = 20_000
    tiled = Tensor(np.tile(scores, (draws, 1)))
    with T.no_grad():
        gates = sample_gates(tiled, np.random.default_rng(56)).data
    assert set(np.unique(gates)) <= {0.0, 1.0}
    freq = gates.mean(axis=0)
    np.testing.assert_allclose(freq, 1.0 / (1.0 + np.exp(-scores)), atol=0.02)

    # magnitude masks hit the scheduled level within one weight
    wdict = {
        "a": rng.normal(size=(5, 3, 3, 3)),
        "b": rng.normal(size=(7, 5, 3, 3)) * 10.0,
        "c": rng.normal(size=(2, 63)),
    }
    total = sum(w.size for w in wdict.values())
    for sl in (0.1, 0.37, 0.5, 0.83):
        _, masks = magnitude_masks(wdict, sl)
        achieved = sum(int((m == 0).sum()) for m in masks.values()) / total
        assert abs(achieved - sl) <= 1.0 / total

    # all four schedule modes against their closed forms
    spec = SparsityScheduleSpec(mode="polynomial", init=0.1, target=0.6, epochs=5, power=2.0)
    for e in range(8):
        want = 0.6 if e >= 5 else 0.1 + 0.5 * (e / 5) ** 2
        assert sparsity_level_at_epoch(spec, e) == pytest.approx(want, rel=1e-12)
    spec = SparsityScheduleSpec(mode="exponential", init=0.1, target=0.6, epochs=5)
    for e in range(8):
        want = 0.6 if e >= 5 else 0.6 - 0.5 * math.exp(-e)
        assert sparsity_level_at_epoch(spec, e) == pytest.approx(want, rel=1e-12)
    spec = SparsityScheduleSpec(
        mode="multistep", init=0.0, target=0.5, steps=[(1, 0.2), (3, 0.4), (6, 0.5)]
    )
    staircase = [0.0, 0.2, 0.2, 0.4, 0.4, 0.4, 0.5, 0.5]
    assert [sparsity_level_at_epoch(spec, e) for e in range(8)] == staircase
    spec = SparsityScheduleSpec(
        mode="adaptive", init=0.2, target=0.5, patience=0.01, step=0.1
    )
    hist = [1.0, 0.5, 0.499, 0.498, 0.1, 0.0999, 0.0998]
    # bumps on the three sub-patience improvements, capped at the target
    walked = [sparsity_level_at_epoch(spec, e, hist[:e]) for e in range(8)]
    np.testing.assert_allclose(walked, [0.2, 0.2, 0.2, 0.3, 0.4, 0.4, 0.5, 0.5], atol=1e-12)

    elapsed = time.perf_counter() - start
    print(f"PASS criterion 5: regularizer exact, gate frequencies within 0.02, "
          f"magnitude within 1/{total}, 4 schedules ({elapsed:.1f}s)")


def test_criterion_6_pruning_soundness():
    start = time.perf_counter()
    assert len(TOPOLOGIES) >= 10
    worst = 0.0
    for name, build in TOPOLOGIES:
        rng = np.random.default_rng(hash(name) % 2**32)
        g, masks = build(rng)
        mm = propagate_pruning_masks(g, masks)
        masked = g.copy()
        apply_filter_masks(masked, mm)
        stripped = strip_pruned_filters(g.copy(), mm)
        x = Tensor(rng.normal(size=(100,) + g.input_shape))
        diff = float(np.abs(masked.run(x).data - stripped.run(x).data).max())
        worst = max(worst, diff)
        assert diff <= 1e-9, f"{name}: stripped deviates by {diff}"

    # importance scores vs an all-pairs distance oracle
    rng = np.random.default_rng(66)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        w = rng.normal(size=(n, int(rng.integers(1, 4)), 3, 3))
        scores = filter_importance(w, "geometric_median")
        flat = w.reshape(n, -1)
        oracle = np.array(
            [sum(np.linalg.norm(flat[i] - flat[j]) for j in range(n)) for i in range(n)]
        )
        np.testing.assert_allclose(scores, oracle, atol=1e-10)

    w = np.zeros((3, 2, 1, 1))
    w[0, :, 0, 0] = [0.0, 0.0]
    w[1, :, 0, 0] = [1.0, 0.0]
    w[2, :, 0, 0] = [0.0, 1.0]
    np.testing.assert_allclose(
        filter_importance(w, "geometric_median"),
        [2.0, 1.0 + math.sqrt(2.0), 1.0 + math.sqrt(2.0)],
        rtol=1e-12,
    )
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 6: {len(TOPOLOGIES)} topologies, worst strip "
          f"deviation {worst:.1e}, scores vs oracle ({elapsed:.1f}s)")


def test_criterion_7_binarization():
    start = time.perf_counter()
    w = np.array([1.0, -3.0, 2.0, -2.0]).reshape(2, 2, 1, 1)
    assert np.mean(np.abs(w)) == 2.0
    with T.no_grad():
        out = binarize_weights(Tensor(w), "dorefa").data
    np.testing.assert_array_equal(out.ravel(), [2.0, -2.0, 2.0, -2.0])
    assert set(np.unique(out)) <= {-2.0, 2.0}

    rng = np.random.default_rng(77)
    w = rng.normal(size=(4, 3, 3, 3))
    with T.no_grad():
        out = binarize_weights(Tensor(w), "xnor").data
    alpha = np.abs(w).mean(axis=(0, 2, 3))
    for cin in range(3):
        vals = set(np.unique(out[:, cin]))
        assert vals <= {-alpha[cin], alpha[cin]}

    s = Tensor(np.array(1.5))
    t = Tensor(np.array([0.2, -0.4]))
    x = rng.normal(size=(3, 2, 4, 4))
    x[0, 0, 0, 0] = 1.5 * 0.2  # exactly on the threshold -> off branch
    with T.no_grad():
        out = binarize_activations(Tensor(x), s, t).data
    assert set(np.unique(out)) <= {0.0, 1.5}
    assert out[0, 0, 0, 0] == 0.0

    stages = [binarization_stage_at(e, [2, 3, 4, 5]) for e in range(16)]
    flags = [(st.stage, st.activations_on, st.weights_on) for st in stages]
    assert flags[0] == flags[1] == (1, False, False)
    assert flags[2] == flags[4] == (2, True, False)
    assert flags[5] == flags[8] == (3, True, True)
    assert all(f == (4, True, True) for f in flags[9:])
    assert all(st.lr_scale == 1.0 and st.weight_decay_on for st in stages[:9])
    assert stages[9].lr_scale == 1.0 and not stages[9].weight_decay_on
    assert stages[11].lr_scale == pytest.approx((1 - 2 / 5) ** 2)
    assert stages[14].lr_scale == 0.0 == stages[15].lr_scale
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 7: mean|W|=2 worked case, two-level outputs, "
          f"stage flags ({elapsed:.1f}s)")


def paired_run(config, seed=0, epochs=10):
    g = build_model("cnn-small", seed)
    x, y = make_dataset("stripes", 512, seed)
    (xt, yt), (xv, yv) = train_val_split(x, y, seed=seed)
    init = [(xt[:64], yt[:64])]
    controllers, wrapped = create_compressed_model(g, config, init)
    t0 = time.perf_counter()
    history = train_model(
        wrapped, controllers, (xt, yt), (xv, yv),
        epochs=epochs, batch_size=32, lr=0.1, seed=seed,
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"run exceeded budget: {elapsed:.0f}s"
    return controllers, wrapped, history[-1]["val_accuracy"], elapsed


def test_criterion_8_paired_compression_runs(tmp_path):
    _, _, acc_fp32, t_a = paired_run({})
    assert acc_fp32 >= 0.95

    _, _, acc_int8, t_b = paired_run(
        {"compression": [{"algorithm": "quantization", "bits": 8}]}
    )
    assert acc_int8 >= acc_fp32 - 0.02

    _, _, acc_stack, t_c = paired_run(
        {
            "compression": [
                {
                    "algorithm": "magnitude_sparsity",
                    "schedule": {"mode": "polynomial", "init": 0.0, "target": 0.5, "epochs": 5},
                },
                {"algorithm": "quantization", "bits": 8},
            ]
        }
    )
    assert acc_stack >= acc_fp32 - 0.03

    controllers, wrapped, acc_gm, t_d = paired_run(
        {
            "compression": [
                {
                    "algorithm": "filter_pruning",
                    "criterion": "geometric_median",
                    "pruning_rate": 0.3,
                }
            ]
        }
    )
    assert acc_gm >= acc_fp32 - 0.03
    exported = export_model(controllers, wrapped, tmp_path / "gm30.nncm")
    # parameter arithmetic from the recorded masks, independent of the
    # slicing code: surviving channels decide every node's size
    mm = controllers[0].mask_map
    expected = 0
    for nid, node in wrapped.nodes.items():
        if node.kind == "Conv2D":
            ko = int(mm.output_masks[nid].sum())
            ki = int(mm.input_masks[nid][0].sum())
            k = node.attrs["kernel"]
            expected += ko * ki * k * k + ko
        elif node.kind == "BatchNorm":
            expected += 4 * int(mm.input_masks[nid][0].sum())
        elif node.kind == "FullyConnected":
            expected += node.attrs["out_features"] * (int(mm.input_masks[nid][0].sum()) + 1)
    assert exported.num_params() == expected
    assert exported.num_params() < wrapped.num_params()

    print(f"PASS criterion 8: fp32 {acc_fp32:.3f} ({t_a:.0f}s), int8 {acc_int8:.3f} "
          f"({t_b:.0f}s), int8+sp50 {acc_stack:.3f} ({t_c:.0f}s), gm30 {acc_gm:.3f} "
          f"({t_d:.0f}s) params {wrapped.num_params()}->{exported.num_params()}")


def quantized_pipeline(tmp_path, tag):
    g = build_model("cnn-small", 5)
    x, y = make_dataset("stripes", 256, 5)
    (xt, yt), (xv, yv) = train_val_split(x, y, seed=5)
    controllers, wrapped = create_compressed_model(
        g,
        {"compression": [{"algorithm": "quantization", "bits": 8}]},
        [(xt[:64], yt[:64])],
    )
    train_model(wrapped, controllers, (xt, yt), (xv, yv), epochs=2, batch_size=32, lr=0.1, seed=5)
    path = tmp_path / f"rt_{tag}.nncm"
    exported = export_model(controllers, wrapped, path)
    return exported, path, (xv, yv)


def test_criterion_9_round_trip(tmp_path):
    exported, path, (xv, yv) = quantized_pipeline(tmp_path, "a")
    loaded, _ = load_model(path)
    probe = Tensor(np.random.default_rng(9).normal(size=(100, 1, 8, 8)))
    with T.no_grad():
        a = exported.run(probe).data
        b = loaded.run(probe).data
    assert np.abs(a - b).max() <= 1e-9
    assert evaluate(loaded, xv, yv) == evaluate(exported, xv, yv)

    exported2, path2, _ = quantized_pipeline(tmp_path, "b")
    assert path.read_bytes() == path2.read_bytes()
    assert serialize_model(exported) == serialize_model(exported2)
    print("PASS criterion 9: export/load outputs within 1e-9, repeated runs bit-identical")
