import math

import numpy as np
import pytest

from nncompress import tensor as T
from nncompress.api import export_graph
from nncompress.data import make_dataset
from nncompress.graph import Hook, HookPosition, INPUT_ID, ModelGraph, NodeSpec
from nncompress.models import build_model
from nncompress.pruning import (
    PruningBuilder,
    apply_filter_masks,
    filter_importance,
    filter_mask,
    installed_filter_masks,
    propagate_pruning_masks,
    pruning_rate_at_epoch,
    strip_pruned_filters,
    write_filter_masks,
)
from nncompress.quantization import FakeQuantizer, quant_grid
from nncompress.serialize import serialize_model
from nncompress.sparsity import MagnitudeSparsityBuilder, RBSparsityBuilder
from nncompress.tensor import Tensor
from nncompress.train import train_model

from topologies import TOPOLOGIES, chain_bn, chain_relu, drop, rand_conv, rand_fc, simple


# -- importance criteria ---------------------------------------------------


def as_filters(rows):
    # filters given flattened; shape them as 1x1 kernels with len(row) inputs
    arr = np.array(rows, dtype=np.float64)
    return arr.reshape(arr.shape[0], arr.shape[1], 1, 1)


def test_l1_importance_hand_value():
    w = as_filters([[-1.0, 2.0, -3.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(filter_importance(w, "l1"), [6.0, 1.0])


def test_l2_importance_hand_value():
    w = as_filters([[3.0, 4.0], [0.0, 1.0]])
    np.testing.assert_allclose(filter_importance(w, "l2"), [5.0, 1.0])


def test_geometric_median_worked_example():
    w = as_filters([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    scores = filter_importance(w, "geometric_median")
    np.testing.assert_allclose(scores, [2.0, 1.0 + math.sqrt(2), 1.0 + math.sqrt(2)], atol=1e-12)
    assert filter_mask(scores, 1.0 / 3.0).tolist() == [False, True, True]


def test_geometric_median_duplicates_least_important():
    w = as_filters([[1.0, 1.0], [1.0, 1.0], [5.0, -3.0], [-2.0, 4.0]])
    scores = filter_importance(w, "geometric_median")
    assert scores[0] == scores[1]
    assert scores[0] < scores[2] and scores[0] < scores[3]


def test_geometric_median_matches_brute_force():
    rng = np.random.default_rng(13)
    for n in (2, 5, 16):
        w = rng.normal(size=(n, 3, 2, 2))
        scores = filter_importance(w, "geometric_median")
        flat = w.reshape(n, -1)
        expect = [
            sum(np.linalg.norm(flat[i] - flat[j]) for j in range(n) if j != i) for i in range(n)
        ]
        np.testing.assert_allclose(scores, expect, atol=1e-10)


def test_geometric_median_single_filter_and_bad_criterion():
    with pytest.raises(ValueError):
        filter_importance(np.ones((1, 2, 3, 3)), "geometric_median")
    with pytest.raises(ValueError):
        filter_importance(np.ones((2, 2, 3, 3)), "linf")


# -- mask selection and schedule -------------------------------------------


def test_filter_mask_counts_and_ties():
    mask = filter_mask(np.array([5.0, 1.0, 1.0, 3.0]), 0.5)
    np.testing.assert_array_equal(mask, [True, False, False, True])
    # floor semantics survive float representation of the rate
    assert (~filter_mask(np.arange(10, dtype=float), 0.3)).sum() == 3
    assert (~filter_mask(np.arange(8, dtype=float), 0.3)).sum() == 2
    np.testing.assert_array_equal(filter_mask(np.arange(4, dtype=float), 0.0), True)
    with pytest.raises(ValueError):
        filter_mask(np.arange(4, dtype=float), 1.0)


def test_baseline_schedule_warmup_then_freeze():
    assert pruning_rate_at_epoch("baseline", 1, 0.4, warmup_epochs=2) == (0.0, False)
    assert pruning_rate_at_epoch("baseline", 2, 0.4, warmup_epochs=2) == (0.4, True)
    assert pruning_rate_at_epoch("baseline", 9, 0.4, warmup_epochs=2) == (0.4, True)


def test_exponential_schedule_profile():
    target, warm, span = 0.5, 2, 4
    rate, frozen = pruning_rate_at_epoch("exponential", 2, target, warm, span)
    assert rate == pytest.approx(0.0) and not frozen
    prev = -1.0
    for e in range(2, 6):
        rate, frozen = pruning_rate_at_epoch("exponential", e, target, warm, span)
        expect = target - target * math.exp(-5.0 * (e - warm) / span)
        if e < warm + span:
            assert rate == pytest.approx(expect) and not frozen
        assert rate >= prev
        prev = rate
    assert pruning_rate_at_epoch("exponential", 6, target, warm, span) == (0.5, True)


def test_schedule_validation():
    with pytest.raises(ValueError):
        pruning_rate_at_epoch("baseline", 0, 1.0)
    with pytest.raises(ValueError):
        pruning_rate_at_epoch("linear", 0, 0.5)


# -- propagation -----------------------------------------------------------


def test_propagation_through_bn_chain():
    g, _ = chain_bn(np.random.default_rng(0))
    masks = {"c1": drop(5, [1, 3])}
    mm = propagate_pruning_masks(g, masks)
    np.testing.assert_array_equal(mm.input_masks["c2"][0], masks["c1"])
    np.testing.assert_array_equal(mm.output_masks["bn1"], masks["c1"])
    assert mm.verdicts == {"c1": True}
    # flatten expands channel positions, fc consumes them
    assert mm.input_masks["fc"][0].sum() == 4 * 36


def test_propagation_flatten_expansion_order():
    g, _ = chain_relu(np.random.default_rng(1))
    mm = propagate_pruning_masks(g, {"c2": drop(4, [1])})
    expanded = mm.input_masks["fc"][0]
    expect = np.repeat(drop(4, [1]), 36)
    np.testing.assert_array_equal(expanded, expect)


def test_propagation_residual_mismatch_resets_both():
    from topologies import residual_mismatch

    g, masks = residual_mismatch(np.random.default_rng(2))
    mm = propagate_pruning_masks(g, masks)
    assert mm.verdicts == {"stem": True, "b1": False, "b2": False}
    np.testing.assert_array_equal(mm.output_masks["b1"], True)
    np.testing.assert_array_equal(mm.output_masks["b2"], True)
    np.testing.assert_array_equal(mm.output_masks["stem"], masks["stem"])


def test_propagation_blocks_mask_reaching_output():
    g = ModelGraph(input_shape=(1, 5, 5))
    rng = np.random.default_rng(3)
    g.add_node(rand_conv("c1", INPUT_ID, 1, 4, 3, rng, padding=1))
    g.add_node(simple("r", "ReLU", "c1"))
    mm = propagate_pruning_masks(g, {"c1": drop(4, [0])})
    assert mm.verdicts == {"c1": False}
    np.testing.assert_array_equal(mm.output_masks["c1"], True)


def test_propagation_input_validation():
    g, _ = chain_relu(np.random.default_rng(4))
    with pytest.raises(ValueError):
        propagate_pruning_masks(g, {"flat": np.ones(4, dtype=bool)})
    with pytest.raises(ValueError):
        propagate_pruning_masks(g, {"c1": np.ones(5, dtype=bool)})


# -- masking ---------------------------------------------------------------


def test_masked_channel_is_exactly_zero_through_bn():
    g, _ = chain_bn(np.random.default_rng(5))
    mm = propagate_pruning_masks(g, {"c1": drop(5, [2])})
    apply_filter_masks(g, mm)
    x = Tensor(np.random.default_rng(6).normal(size=(2, 1, 6, 6)))
    out_bn = None
    for nid in ("bn1",):
        sub = g  # full run; inspect by rebuilding a truncated graph instead
    # run the graph up to bn1 by making a copy whose output is bn1
    probe = ModelGraph(input_shape=(1, 6, 6))
    probe.add_node(g.nodes["c1"])
    probe.add_node(g.nodes["bn1"])
    probe.hooks = [h for h in g.hooks if h.node_id in ("c1", "bn1")]
    out = probe.run(x)
    np.testing.assert_array_equal(out.data[:, 2], 0.0)
    assert np.abs(out.data[:, 0]).max() > 0


def test_all_ones_masks_do_not_change_outputs():
    g, _ = chain_relu(np.random.default_rng(7))
    x = Tensor(np.random.default_rng(8).normal(size=(2, 1, 6, 6)))
    ref = g.run(x).data
    mm = propagate_pruning_masks(g, {"c1": np.ones(6, dtype=bool)})
    apply_filter_masks(g, mm)
    np.testing.assert_array_equal(g.run(x).data, ref)


def test_frozen_filters_untouched_by_sgd():
    g, _ = chain_relu(np.random.default_rng(9))
    ctrl = PruningBuilder({"pruning_rate": 0.5, "criterion": "l2"}).apply_to(g)
    ctrl.scheduler.epoch_step()  # baseline, no warmup: prune and freeze at once
    assert ctrl.frozen and ctrl.rate == 0.5
    pruned = ~ctrl.mask_map.output_masks["c1"]
    w = g.nodes["c1"].params["weight"]
    b = g.nodes["c1"].params["bias"]
    w_before, b_before = w.data[pruned].copy(), b.data[pruned].copy()
    x = Tensor(np.random.default_rng(10).normal(size=(2, 1, 6, 6)))
    for _ in range(3):
        out = g.run(x, mode="train")
        # the filter-mask hooks' vjps already zero the pruned filters' gradients
        T.backward(T.tsum(T.mul(out, out)))
        for _, _, p in g.parameters():
            if p.grad is not None:
                p.data = p.data - 0.05 * p.grad
                p.grad = None
    np.testing.assert_array_equal(w.data[pruned], w_before)
    np.testing.assert_array_equal(b.data[pruned], b_before)
    assert (w.data[~pruned] != 0).any()


# -- stripping -------------------------------------------------------------


@pytest.mark.parametrize("name,build", TOPOLOGIES)
def test_stripped_equals_masked(name, build):
    rng = np.random.default_rng(hash(name) % 2**32)
    g, masks = build(rng)
    mm = propagate_pruning_masks(g, masks)
    masked = g.copy()
    apply_filter_masks(masked, mm)
    stripped = strip_pruned_filters(g.copy(), mm)
    x = Tensor(rng.normal(size=(8,) + g.input_shape))
    a = masked.run(x).data
    b = stripped.run(x).data
    assert np.abs(a - b).max() <= 1e-9


def test_strip_reduces_parameter_count_exactly():
    g, _ = chain_relu(np.random.default_rng(11))
    masks = {"c1": drop(6, [0, 3])}
    mm = propagate_pruning_masks(g, masks)
    stripped = strip_pruned_filters(g.copy(), mm)
    c1 = stripped.nodes["c1"]
    assert c1.params["weight"].shape == (4, 1, 3, 3)
    assert c1.params["bias"].shape == (4,)
    assert c1.attrs["out_channels"] == 4
    c2 = stripped.nodes["c2"]
    assert c2.params["weight"].shape == (4, 4, 3, 3)
    assert stripped.nodes["fc"].params["weight"].shape == (3, 4 * 36)
    # c1 loses 2 filters and their biases; c2 loses 2 input channels
    expect = g.num_params() - 2 * 9 - 2 - 2 * 4 * 9
    assert stripped.num_params() == expect


def test_strip_with_all_ones_is_byte_identical():
    g, _ = chain_bn(np.random.default_rng(12))
    masks = {"c1": np.ones(5, dtype=bool), "c2": np.ones(4, dtype=bool)}
    mm = propagate_pruning_masks(g, masks)
    stripped = strip_pruned_filters(g.copy(), mm)
    assert serialize_model(stripped) == serialize_model(g)


def test_strip_rejects_mask_on_graph_output():
    g = ModelGraph(input_shape=(1, 5, 5))
    rng = np.random.default_rng(14)
    g.add_node(rand_conv("c1", INPUT_ID, 1, 4, 3, rng, padding=1))
    from nncompress.pruning import PruningMaskMap

    bad = PruningMaskMap(
        output_masks={"c1": drop(4, [0]), INPUT_ID: np.ones(1, dtype=bool)},
        input_masks={"c1": [np.ones(1, dtype=bool)]},
        verdicts={"c1": True},
    )
    with pytest.raises(ValueError):
        strip_pruned_filters(g.copy(), bad)


def test_strip_slices_per_channel_quantizer_state():
    g, _ = chain_relu(np.random.default_rng(15))
    fq = FakeQuantizer(bits=8, mode="symmetric", grid="weight", per_channel=True, channels=6)
    fq.init_from_array(g.nodes["c1"].params["weight"].data)
    g.insert_hook(Hook("c1", HookPosition.PRE_PARAM, "quantization", fq, param_name="weight"))
    full_scale = fq.scale.data.copy()
    masks = {"c1": drop(6, [2, 5])}
    mm = propagate_pruning_masks(g, masks)
    masked = g.copy()
    apply_filter_masks(masked, mm)
    stripped = strip_pruned_filters(g.copy(), mm)
    sliced_fq = [h for h in stripped.hooks if h.node_id == "c1"][0].transform
    np.testing.assert_array_equal(sliced_fq.scale.data.ravel(), full_scale.ravel()[drop(6, [2, 5])])
    x = Tensor(np.random.default_rng(16).normal(size=(4, 1, 6, 6)))
    assert np.abs(masked.run(x).data - stripped.run(x).data).max() <= 1e-9


def magnitude_masks_at_30(g):
    MagnitudeSparsityBuilder({}).apply_to(g).set_level(0.3)


def random_rb_gates(g):
    rng = np.random.default_rng(21)
    for gate in RBSparsityBuilder({}).apply_to(g).gates.values():
        gate.scores.data = rng.normal(size=gate.scores.shape)


@pytest.mark.parametrize("sparsify", [magnitude_masks_at_30, random_rb_gates],
                         ids=["magnitude_sparsity", "rb_sparsity"])
def test_strip_slices_elementwise_mask_hooks(sparsify):
    g, _ = chain_relu(np.random.default_rng(17))
    sparsify(g)
    # c2 feeds the fully connected layer through Flatten, so fc's hook loses columns
    masks = {"c1": drop(6, [1]), "c2": drop(4, [2])}
    mm = propagate_pruning_masks(g, masks)
    masked = g.copy()
    apply_filter_masks(masked, mm)
    stripped = strip_pruned_filters(g.copy(), mm)
    x = Tensor(np.random.default_rng(18).normal(size=(4, 1, 6, 6)))
    assert np.abs(masked.run(x).data - stripped.run(x).data).max() <= 1e-9
    shapes = {h.node_id: h.transform.eval_mask().shape for h in stripped.hooks}
    assert shapes == {"c1": (5, 1, 3, 3), "c2": (3, 5, 3, 3), "fc": (3, 3 * 36)}


# -- controller ------------------------------------------------------------


def test_exponential_reselects_bottom_k_each_change():
    g, _ = chain_relu(np.random.default_rng(19))
    ctrl = PruningBuilder(
        {
            "pruning_rate": 0.5,
            "criterion": "l1",
            "scheduler": {"mode": "exponential", "warmup_epochs": 0, "epochs": 3},
        }
    ).apply_to(g)
    for epoch in range(5):
        if epoch == 2:
            # reshuffle importances between rate changes
            w = g.nodes["c1"].params["weight"]
            w.data = w.data[::-1].copy()
        ctrl.scheduler.epoch_step()
        for nid in ctrl.prunable:
            scores = filter_importance(g.nodes[nid].params["weight"].data, "l1")
            np.testing.assert_array_equal(ctrl.conv_masks[nid], filter_mask(scores, ctrl.rate))
    assert ctrl.frozen and ctrl.rate == 0.5


def test_frozen_controller_stops_reselecting():
    g, _ = chain_relu(np.random.default_rng(20))
    ctrl = PruningBuilder({"pruning_rate": 0.5}).apply_to(g)
    ctrl.scheduler.epoch_step()
    frozen_masks = {nid: m.copy() for nid, m in ctrl.conv_masks.items()}
    g.nodes["c1"].params["weight"].data = g.nodes["c1"].params["weight"].data[::-1].copy()
    ctrl.scheduler.epoch_step()
    for nid, m in frozen_masks.items():
        np.testing.assert_array_equal(ctrl.conv_masks[nid], m)


def test_restored_scheduler_state_keeps_frozen_masks():
    # rate and frozen follow the scheduler's epoch, so a restored state resumes
    # a frozen run as frozen instead of re-selecting from the current weights
    x, y = make_dataset("stripes", 64, 0)
    a = PruningBuilder({"pruning_rate": 0.5}).apply_to(build_model("cnn-small", 0))
    train_model(a.graph, [a], (x, y), (x, y), epochs=1)
    assert a.frozen and a.rate == 0.5
    b = PruningBuilder({"pruning_rate": 0.5}).apply_to(build_model("cnn-small", 0))
    b.scheduler.load_state_dict(a.scheduler.state_dict())
    write_filter_masks(b.graph, b.hooks, a.mask_map)
    assert b.frozen and b.rate == 0.5
    for ctrl in (a, b):
        for nid in ctrl.prunable:
            w = ctrl.graph.nodes[nid].params["weight"]
            w.data = w.data[::-1] * np.arange(1, w.shape[0] + 1).reshape(-1, 1, 1, 1)
        ctrl.scheduler.epoch_step()
    masks_a, masks_b = installed_filter_masks(a.graph), installed_filter_masks(b.graph)
    assert masks_a.keys() == masks_b.keys()
    for nid in masks_a:
        np.testing.assert_array_equal(masks_a[nid], masks_b[nid])


def test_geometric_median_single_filter_skipped_with_warning():
    g = ModelGraph(input_shape=(1, 4, 4))
    rng = np.random.default_rng(21)
    g.add_node(rand_conv("c1", INPUT_ID, 1, 1, 3, rng, padding=1))
    g.add_node(rand_conv("c2", "c1", 1, 4, 3, rng, padding=1))
    g.add_node(simple("flat", "Flatten", "c2"))
    g.add_node(rand_fc("fc", "flat", 64, 2, rng))
    ctrl = PruningBuilder({"pruning_rate": 0.5, "criterion": "geometric_median"}).apply_to(g)
    with pytest.warns(UserWarning, match="c1"):
        ctrl.scheduler.epoch_step()
    np.testing.assert_array_equal(ctrl.conv_masks["c1"], True)
    assert (~ctrl.conv_masks["c2"]).sum() == 2


def test_exclude_patterns_and_unmatched_warning():
    g, _ = chain_relu(np.random.default_rng(22))
    ctrl = PruningBuilder({"pruning_rate": 0.5, "exclude": ["c1"]}).apply_to(g)
    assert ctrl.prunable == ["c2"]
    with pytest.warns(UserWarning, match="matches no node"):
        PruningBuilder({"pruning_rate": 0.5, "exclude": ["nope*"]}).apply_to(
            chain_relu(np.random.default_rng(23))[0]
        )


def test_controller_statistics_and_export(tmp_path):
    g, _ = chain_bn(np.random.default_rng(24))
    ctrl = PruningBuilder({"pruning_rate": 0.4, "criterion": "l2"}).apply_to(g)
    ctrl.scheduler.epoch_step()
    stats = ctrl.statistics()
    assert stats["rate"] == 0.4
    assert stats["per_layer"]["c1"] == {"pruned": 2, "total": 5}
    assert stats["per_layer"]["c2"] == {"pruned": 1, "total": 4}
    assert stats["prunable"] == {"c1": True, "c2": True}

    x = Tensor(np.random.default_rng(25).normal(size=(3, 1, 6, 6)))
    ref = g.run(x).data
    exported = export_graph(g, tmp_path / "pruned.nncm")
    assert exported.nodes["c1"].attrs["out_channels"] == 3
    assert np.abs(exported.run(x).data - ref).max() <= 1e-9


def test_missing_rate_rejected():
    with pytest.raises(ValueError):
        PruningBuilder({}).apply_to(chain_relu(np.random.default_rng(26))[0])
