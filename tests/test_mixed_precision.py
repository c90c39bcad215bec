import gc
import json
import weakref

import numpy as np
import pytest

from nncompress import tensor as T
from nncompress.api import create_compressed_model
from nncompress.data import make_dataset
from nncompress.graph import INPUT_ID, Hook, HookPosition
from nncompress.mixed_precision import (
    LayerProfile,
    estimate_hessian_trace,
    plan_mixed_precision,
    quantization_error,
    select_bitwidth_config,
)
from nncompress.models import build_model
from nncompress.quantization import (
    MixedPrecisionSpec, QuantizationController, QuantizationSpec, initialize_quantizer_ranges,
)
from nncompress.tensor import Tensor
from nncompress.util import cross_entropy

from test_api import REPO
from test_quantization import small_cnn


def quadratic_loss(diag, x):
    d = Tensor(np.asarray(diag, dtype=np.float64))
    return T.mul(T.tsum(T.mul(d, T.mul(x, x))), 0.5)


def test_trace_exact_for_diagonal_quadratic():
    # v'Hv = sum(d * v^2) = sum(d) for any sign vector, so one sample suffices
    x = Tensor(np.array([0.3, -1.2, 0.7]), requires_grad=True)
    loss = quadratic_loss([1.0, 2.0, 3.0], x)
    for seed in (0, 1, 99):
        est = estimate_hessian_trace(loss, x, num_samples=1, rng=np.random.default_rng(seed))
        assert est == pytest.approx(6.0, abs=1e-12)


def test_trace_converges_for_dense_quadratic():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 4))
    h = a @ a.T
    x = Tensor(rng.normal(size=4), requires_grad=True)
    xa = T.matmul(T.reshape(x, (1, 4)), Tensor(h))
    loss = T.mul(T.tsum(T.mul(xa, T.reshape(x, (1, 4)))), 0.5)
    est = estimate_hessian_trace(loss, x, num_samples=800, rng=np.random.default_rng(7))
    assert est == pytest.approx(np.trace(h), rel=0.15)


def test_trace_through_model_graph():
    g = small_cnn()
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 1, 8, 8)))
    out = g.run(x, mode="train")
    loss = T.tmean(T.mul(out, out))
    w1 = g.nodes["conv1"].params["weight"]
    t1 = estimate_hessian_trace(loss, w1, num_samples=4, rng=np.random.default_rng(0))
    t1_again = estimate_hessian_trace(loss, w1, num_samples=4, rng=np.random.default_rng(0))
    assert np.isfinite(t1)
    assert t1 == t1_again


def test_trace_probes_share_one_sort_of_their_root(monkeypatch):
    """All probes of one layer sweep the same gradient tape: the loss and the
    probe root are each sorted once, however many probes run."""
    g = small_cnn()
    out = g.run(Tensor(np.random.default_rng(3).normal(size=(4, 1, 8, 8))), mode="train")
    loss = T.tmean(T.mul(out, out))
    sorted_roots = []
    toposort = T._toposort

    def counting(root):
        sorted_roots.append(root)
        return toposort(root)

    monkeypatch.setattr(T, "_toposort", counting)
    w = g.nodes["conv1"].params["weight"]
    estimate_hessian_trace(loss, w, num_samples=32, rng=np.random.default_rng(0))
    assert len(sorted_roots) == 2 and sorted_roots[0] is loss
    assert sorted_roots[1] is not loss and sorted_roots[1].shape == w.shape


def test_quantization_error_shrinks_with_bits():
    from nncompress.quantization import FakeQuantizer

    rng = np.random.default_rng(4)
    w = rng.normal(size=(8, 4, 3, 3))
    fq = FakeQuantizer(bits=8, mode="symmetric", grid="weight")
    fq.init_from_array(w)
    errs = {b: quantization_error(w, fq, b) for b in (2, 4, 8)}
    assert errs[2] > errs[4] > errs[8] > 0
    assert fq.bits == 8  # restored after probing


def profiles(traces, flops, err_table):
    return [
        LayerProfile(node_id=f"l{i}", avg_trace=t, flops=f, errors=dict(err_table[i]))
        for i, (t, f) in enumerate(zip(traces, flops))
    ]


def test_selection_minimizes_sensitivity_under_ratio():
    # equal flops, ratio = 24/sum(bits) must be >= 2, so sum(bits) <= 12
    errs = {b: (8 / b) ** 2 for b in (2, 4, 8)}  # 16, 4, 1
    ps = profiles([3.0, 2.0, 1.0], [100, 100, 100], [errs, errs, errs])
    plan = select_bitwidth_config(ps, target_ratio=2.0, bit_choices=(2, 4, 8))
    assert plan.assignment == {"l0": 4, "l1": 4, "l2": 4}
    assert plan.achieved_ratio == pytest.approx(2.0)
    assert plan.metric == pytest.approx(4 * (3.0 + 2.0 + 1.0))


def test_selection_respects_monotone_order():
    # the most sensitive layer always holds the widest assignment
    errs = {b: (8 / b) ** 2 for b in (2, 4, 8)}
    ps = profiles([0.1, 5.0, 1.0], [10, 10, 10], [errs, errs, errs])
    plan = select_bitwidth_config(ps, target_ratio=3.0, bit_choices=(2, 4, 8))
    bits = plan.assignment
    assert bits["l1"] >= bits["l2"] >= bits["l0"]


def test_selection_tie_breaks_prefer_more_bits_then_lexicographic():
    zero = {2: 0.0, 4: 0.0, 8: 0.0}
    ps = profiles([1.0, 1.0, 1.0], [100, 100, 100], [zero, zero, zero])
    # all metrics are zero; sum(bits) <= 12 allows totals up to 12, where
    # (2,2,8) and (4,4,4) tie and the lexicographically smaller tuple wins
    plan = select_bitwidth_config(ps, target_ratio=2.0, bit_choices=(2, 4, 8))
    assert sorted(plan.assignment.values()) == [2, 2, 8]


def test_selection_weights_ratio_by_flops():
    zero = {4: 0.0, 8: 0.0}
    # layer l0 dominates the flop count; giving it 4 bits alone suffices
    ps = profiles([1.0, 2.0], [900, 100], [zero, zero])
    plan = select_bitwidth_config(ps, target_ratio=1.8, bit_choices=(4, 8))
    # ratio for (4 on l0, 8 on l1): 8000 / (3600 + 800) = 1.818...
    assert plan.assignment == {"l0": 4, "l1": 8}


def test_selection_direction_at_most():
    zero = {2: 0.0, 4: 0.0, 8: 0.0}
    ps = profiles([1.0, 1.0], [10, 10], [zero, zero])
    plan = select_bitwidth_config(ps, target_ratio=1.0, bit_choices=(2, 4, 8), direction="at_most")
    assert plan.assignment == {"l0": 8, "l1": 8}
    with pytest.raises(ValueError, match="direction must be one of"):
        select_bitwidth_config(ps, 1.0, (2, 4, 8), direction="sideways")


def test_selection_unreachable_target_raises():
    errs = {8: 0.0}
    ps = profiles([1.0], [10], [errs])
    with pytest.raises(ValueError, match="no bit assignment"):
        select_bitwidth_config(ps, target_ratio=2.0, bit_choices=(8,))


def test_plan_on_quantized_model():
    g = small_cnn()
    ctrl = QuantizationController(g, QuantizationSpec())
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8, 1, 8, 8))
    initialize_quantizer_ranges(g, [x])

    def loss_builder():
        out = g.run(Tensor(x), mode="train")
        return T.tmean(T.mul(out, out))

    spec = MixedPrecisionSpec(candidate_bits=(2, 4, 8), trace_samples=2, ratio_threshold=2.0)
    plan = plan_mixed_precision(g, ctrl.handles["weight"], loss_builder, spec, seed=11)
    assert set(plan.assignment) == {"conv1", "conv2", "fc"}
    assert plan.achieved_ratio >= 2.0
    # deterministic under the same seed
    plan2 = plan_mixed_precision(g, ctrl.handles["weight"], loss_builder, spec, seed=11)
    assert plan.assignment == plan2.assignment

    ctrl.apply_bit_config(plan.assignment)
    assert ctrl.handles["weight"]["conv1"].bits == plan.assignment["conv1"]


def test_plan_matches_recorded_bits():
    # cnn-residual, seed 0, configs/mixed_precision.json: the assignment and
    # per-layer traces, recorded as float hex before reverse sweeps were
    # pruned to the paths that reach the probed weight
    config = json.loads((REPO / "configs" / "mixed_precision.json").read_text())
    x, y = make_dataset("stripes", 128, seed=0)
    batches = [(x[i : i + 32], y[i : i + 32]) for i in range(0, 128, 32)]
    controllers, _ = create_compressed_model(build_model("cnn-residual", 0), config, batches)
    plan = controllers[0].mixed_precision_plan
    assert plan.assignment == {"conv_b": 4, "conv_a": 4, "stem": 8, "fc": 8}
    assert [(p.node_id, p.avg_trace.hex()) for p in plan.profiles] == [
        ("conv_b", "0x1.8ae006fa48e54p-7"),
        ("conv_a", "0x1.15c2c731797fcp-5"),
        ("stem", "0x1.9a1da2abdb959p-5"),
        ("fc", "0x1.16b925c50e009p-2"),
    ]


def test_plan_releases_its_loss_tape():
    """Once the plan returns, its loss tape is freed without the cyclic
    collector, although the loss's exp holds its own output."""
    g = small_cnn()
    ctrl = QuantizationController(g, QuantizationSpec())
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=(8, 1, 8, 8)), rng.integers(0, 2, 8)
    initialize_quantizer_ranges(g, [x])
    seen = []

    def probe(t, ctx):
        seen.append(weakref.ref(t))
        return t

    g.insert_hook(Hook("relu1", HookPosition.POST_OUTPUT, "probe", probe))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        plan_mixed_precision(
            g, ctrl.handles["weight"], lambda: cross_entropy(g.run(Tensor(x)), y),
            MixedPrecisionSpec(trace_samples=2, ratio_threshold=2.0), seed=0,
        )
        assert len(seen) == 1 and seen[0]() is None, "relu1's output outlived the plan"
    finally:
        if was_enabled:
            gc.enable()
