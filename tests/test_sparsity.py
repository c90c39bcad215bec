import math
import re

import numpy as np
import pytest

from nncompress import tensor as T
from nncompress.api import ConfigError, create_compressed_model, export_graph
from nncompress.graph import ExecContext, INPUT_ID, ModelGraph, NodeSpec
from nncompress.serialize import deserialize_model, serialize_model
from nncompress.base import load_spec
from nncompress.sparsity import (
    MagnitudeSparsityController,
    MagnitudeSparsitySpec,
    ParamMask,
    RBGate,
    RBSparsityController,
    RBSparsitySpec,
    SparsityScheduleSpec,
    magnitude_masks,
    rb_eval_mask,
    rb_regularizer_loss,
    sample_gates,
    sparsity_level_at_epoch,
)
from nncompress.tensor import Tensor

from test_graph import bn_node, conv_node, fc_node


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


# -- schedules -------------------------------------------------------------


def test_polynomial_schedule_trajectory():
    spec = SparsityScheduleSpec(mode="polynomial", init=0.0, target=0.5, epochs=10, power=1.0)
    assert sparsity_level_at_epoch(spec, 0) == 0.0
    assert sparsity_level_at_epoch(spec, 5) == pytest.approx(0.25)
    assert sparsity_level_at_epoch(spec, 10) == 0.5
    assert sparsity_level_at_epoch(spec, 99) == 0.5
    quad = SparsityScheduleSpec(mode="polynomial", init=0.1, target=0.5, epochs=10, power=2.0)
    assert sparsity_level_at_epoch(quad, 5) == pytest.approx(0.1 + 0.4 * 0.25)


def test_exponential_schedule_trajectory():
    spec = SparsityScheduleSpec(mode="exponential", init=0.1, target=0.6, epochs=8)
    assert sparsity_level_at_epoch(spec, 0) == pytest.approx(0.1)
    for e in range(8):
        expect = 0.6 - 0.5 * math.exp(-5.0 * e / 8)
        assert sparsity_level_at_epoch(spec, e) == pytest.approx(expect)
    assert sparsity_level_at_epoch(spec, 8) == 0.6
    assert sparsity_level_at_epoch(spec, 50) == 0.6


def test_multistep_schedule():
    spec = SparsityScheduleSpec(
        mode="multistep", init=0.05, target=0.5, steps=[(2, 0.2), (5, 0.5)]
    )
    got = [sparsity_level_at_epoch(spec, e) for e in range(7)]
    assert got == [0.05, 0.05, 0.2, 0.2, 0.2, 0.5, 0.5]


def test_adaptive_schedule_reacts_to_stalls():
    spec = SparsityScheduleSpec(
        mode="adaptive", init=0.1, target=0.2, step=0.05, patience=1e-3
    )
    # no history yet, and a single measurement has nothing to compare against
    assert sparsity_level_at_epoch(spec, 0, []) == 0.1
    assert sparsity_level_at_epoch(spec, 1, [1.0]) == 0.1
    # two stalls in a row, then the cap holds
    assert sparsity_level_at_epoch(spec, 2, [1.0, 0.9995]) == pytest.approx(0.15)
    assert sparsity_level_at_epoch(spec, 3, [1.0, 0.9995, 0.9992]) == pytest.approx(0.2)
    assert sparsity_level_at_epoch(spec, 4, [1.0, 0.9995, 0.9992, 0.9990]) == pytest.approx(0.2)
    # a real improvement does not bump the level
    assert sparsity_level_at_epoch(spec, 2, [1.0, 0.5]) == 0.1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mode="polynomial", init=0.2, target=0.5, epochs=0),
        dict(mode="polynomial", init=0.6, target=0.5),
        dict(mode="polynomial", init=0.0, target=1.0),
        dict(mode="multistep", target=0.5, steps=[(5, 0.5), (2, 0.2)]),
        dict(mode="multistep", target=0.5, steps=[(2, 0.3), (5, 0.4)]),
        dict(mode="multistep", target=0.5, steps=None),
        dict(mode="warmup"),
    ],
)
def test_schedule_validation_errors(kwargs):
    with pytest.raises(ValueError):
        SparsityScheduleSpec(**kwargs)


# -- magnitude masks -------------------------------------------------------


def test_magnitude_masks_hand_example():
    # importances: a -> [.6, .8], b -> [1/3, 2/3, 2/3]; two smallest are b[0], a[0]
    weights = {"a": np.array([3.0, 4.0]), "b": np.array([1.0, 2.0, 2.0])}
    threshold, masks = magnitude_masks(weights, 2.0 / 5.0)
    np.testing.assert_array_equal(masks["a"], [0.0, 1.0])
    np.testing.assert_array_equal(masks["b"], [0.0, 1.0, 1.0])
    assert threshold == pytest.approx(0.6)


def test_magnitude_masks_tie_break_earlier_first():
    weights = {"a": np.full(4, 2.0)}
    _, masks = magnitude_masks(weights, 0.5)
    np.testing.assert_array_equal(masks["a"], [0.0, 0.0, 1.0, 1.0])


def test_magnitude_masks_per_layer_normalization_matters():
    # raw magnitudes would zero both entries of the small layer; normalized
    # importances put one big-layer weight below the small layer's survivor
    weights = {"big": np.array([100.0, 1.0]), "small": np.array([0.3, 0.4])}
    _, masks = magnitude_masks(weights, 0.5)
    np.testing.assert_array_equal(masks["big"], [1.0, 0.0])
    np.testing.assert_array_equal(masks["small"], [0.0, 1.0])


@pytest.mark.parametrize("level", [0.3, 0.5, 0.7])
def test_magnitude_masks_exact_count(level):
    rng = np.random.default_rng(7)
    weights = {
        "c1": rng.normal(size=(4, 3, 3, 3)),
        "c2": rng.normal(size=(8, 4, 3, 3)),
        "fc": rng.normal(size=(10, 32)),
    }
    n = sum(w.size for w in weights.values())
    _, masks = magnitude_masks(weights, level)
    zeros = sum(int((m == 0).sum()) for m in masks.values())
    assert zeros == round(level * n)
    achieved = zeros / n
    assert abs(achieved - level) <= 1.0 / n


def test_magnitude_masks_zero_level_and_bad_level():
    weights = {"a": np.array([1.0, -2.0])}
    _, masks = magnitude_masks(weights, 0.0)
    np.testing.assert_array_equal(masks["a"], [1.0, 1.0])
    with pytest.raises(ValueError):
        magnitude_masks(weights, 1.0)


def test_magnitude_masks_match_brute_force():
    rng = np.random.default_rng(3)
    weights = {"a": rng.normal(size=(5, 4)), "b": rng.normal(size=17)}
    level = 0.4
    _, masks = magnitude_masks(weights, level)
    pairs = []
    for nid in weights:
        norm = np.linalg.norm(weights[nid])
        for idx, v in enumerate(weights[nid].ravel()):
            pairs.append((abs(v) / norm, len(pairs), nid, idx))
    pairs.sort(key=lambda p: (p[0], p[1]))
    k = round(level * len(pairs))
    expect = {nid: np.ones(weights[nid].size) for nid in weights}
    for _, _, nid, idx in pairs[:k]:
        expect[nid][idx] = 0.0
    for nid in weights:
        np.testing.assert_array_equal(masks[nid].ravel(), expect[nid])


# -- magnitude controller --------------------------------------------------


def tiny_net():
    g = ModelGraph(input_shape=(1, 4, 4))
    rng = np.random.default_rng(0)
    g.add_node(conv_node("conv", INPUT_ID, 1, 2, 3, padding=1, w=rng.normal(size=(2, 1, 3, 3))))
    g.add_node(bn_node("bn", "conv", 2))
    g.add_node(NodeSpec(id="relu", kind="ReLU", inputs=["bn"]))
    g.add_node(NodeSpec(id="flat", kind="Flatten", inputs=["relu"]))
    g.add_node(fc_node("fc", "flat", 32, 2, w=rng.normal(size=(2, 32))))
    return g


def test_magnitude_hooks_weights_only():
    g = tiny_net()
    ctrl = MagnitudeSparsityController(g, MagnitudeSparsitySpec())
    assert set(ctrl.hooks) == {"conv", "fc"}
    for h in g.hooks:
        assert h.param_name == "weight"


def test_magnitude_masked_forward_and_blocked_grads():
    g = tiny_net()
    ctrl = MagnitudeSparsityController(g, MagnitudeSparsitySpec())
    ctrl.set_level(0.5)
    x = np.random.default_rng(1).normal(size=(3, 1, 4, 4))

    masked = g.run(Tensor(x))
    plain = tiny_net()
    for nid in ("conv", "fc"):
        mask = ctrl.hooks[nid].mask.data
        plain.nodes[nid].params["weight"].data = g.nodes[nid].params["weight"].data * mask
    np.testing.assert_array_equal(masked.data, plain.run(Tensor(x)).data)

    T.backward(T.tsum(T.mul(masked, masked)))
    for nid in ("conv", "fc"):
        grad = g.nodes[nid].params["weight"].grad
        dead = ctrl.hooks[nid].mask.data == 0
        assert dead.any()
        np.testing.assert_array_equal(grad[dead], 0.0)
        assert np.abs(grad[~dead]).max() > 0


def test_magnitude_achieved_level_and_stats():
    g = tiny_net()
    ctrl = MagnitudeSparsityController(g, MagnitudeSparsitySpec())
    ctrl.set_level(0.5)
    stats = ctrl.statistics()
    n = 18 + 64
    assert stats["achieved_sparsity"] == pytest.approx(round(0.5 * n) / n)
    assert stats["scheduled_level"] == 0.5
    assert set(stats["per_layer"]) == {"conv", "fc"}


def test_magnitude_scheduler_ramps_and_recomputes():
    g = tiny_net()
    schedule = SparsityScheduleSpec(mode="polynomial", init=0.0, target=0.5, epochs=2)
    ctrl = MagnitudeSparsityController(g, MagnitudeSparsitySpec(schedule))
    ctrl.scheduler.epoch_step()
    assert ctrl.level == 0.0
    ctrl.scheduler.epoch_step()
    assert ctrl.level == pytest.approx(0.25)
    before = ctrl.hooks["fc"].mask.data.copy()
    # shrinking one surviving weight makes it the next victim at a higher level
    alive = np.argwhere(before.ravel() == 1.0).ravel()
    wflat = g.nodes["fc"].params["weight"].data.ravel()
    wflat[alive[0]] = 1e-9
    ctrl.scheduler.epoch_step()
    assert ctrl.level == 0.5
    assert ctrl.hooks["fc"].mask.data.ravel()[alive[0]] == 0.0


@pytest.mark.parametrize("controller", [MagnitudeSparsityController, RBSparsityController], ids=["magnitude", "rb"])
def test_magnitude_adaptive_uses_reported_metric(controller):
    def build():
        schedule = {"mode": "adaptive", "init": 0.1, "target": 0.3, "step": 0.1}
        return controller(tiny_net(), load_spec(controller.spec_class, {"schedule": schedule}))

    ctrl = build()
    ctrl.scheduler.epoch_step()
    assert ctrl.level == pytest.approx(0.1)
    ctrl.scheduler.epoch_step(metric=1.0)
    assert ctrl.level == pytest.approx(0.1)
    ctrl.scheduler.epoch_step(metric=0.99995)  # stalled
    assert ctrl.level == pytest.approx(0.2)
    ctrl.scheduler.epoch_step(metric=0.5)  # improved
    assert ctrl.level == pytest.approx(0.2)
    # the loss history is part of the scheduler state: a fresh controller
    # restored from it takes the same level at the next epoch
    restored = build()
    restored.scheduler.load_state_dict(ctrl.scheduler.state_dict())
    for c in (ctrl, restored):
        c.scheduler.epoch_step(metric=0.49999)  # stalled again
    assert restored.level == ctrl.level == pytest.approx(0.3)


def test_magnitude_export_bakes_masks(tmp_path):
    g = tiny_net()
    ctrl = MagnitudeSparsityController(g, MagnitudeSparsitySpec())
    ctrl.set_level(0.4)
    x = np.random.default_rng(2).normal(size=(2, 1, 4, 4))
    ref = g.run(Tensor(x)).data

    exported = export_graph(g, tmp_path / "magnitude.nncm")
    assert not exported.hooks
    w = exported.nodes["conv"].params["weight"].data
    assert (w == 0).sum() == (ctrl.hooks["conv"].mask.data == 0).sum()
    np.testing.assert_array_equal(exported.run(Tensor(x)).data, ref)


def test_magnitude_hooks_survive_serialization():
    g = tiny_net()
    ctrl = MagnitudeSparsityController(g, MagnitudeSparsitySpec())
    ctrl.set_level(0.5)
    x = np.random.default_rng(3).normal(size=(2, 1, 4, 4))
    ref = g.run(Tensor(x)).data
    loaded, _ = deserialize_model(serialize_model(g))
    np.testing.assert_array_equal(loaded.run(Tensor(x)).data, ref)
    hook = [h for h in loaded.hooks if h.node_id == "fc"][0]
    np.testing.assert_array_equal(hook.transform.mask.data, ctrl.hooks["fc"].mask.data)


# -- stochastic gates ------------------------------------------------------


def test_sample_gates_are_binary_and_match_probabilities():
    rng = np.random.default_rng(11)
    scores = Tensor(np.array([0.0, 3.0, -3.0]), requires_grad=True)
    draws = np.stack([sample_gates(scores, rng).data for _ in range(4000)])
    assert set(np.unique(draws)) <= {0.0, 1.0}
    freq = draws.mean(axis=0)
    np.testing.assert_allclose(freq, sigmoid(scores.data), atol=0.03)


def test_sample_gates_gradient_carries_sigmoid_slope():
    # z = step(sigmoid(s + c) - 1/2) straight-through => dz/ds = sigmoid'(s + c)
    rng = np.random.default_rng(5)
    scores = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    seed_state = rng.bit_generator.state
    z = sample_gates(scores, rng)
    up = np.array([1.0, 2.0, 3.0])
    T.backward(T.tsum(T.mul(z, Tensor(up))))

    replay = np.random.default_rng(5)
    replay.bit_generator.state = seed_state
    u = np.clip(replay.uniform(size=3), 1e-12, 1 - 1e-12)
    q = sigmoid(scores.data + np.log(u) - np.log1p(-u))
    np.testing.assert_allclose(scores.grad, up * q * (1 - q), atol=1e-12)


def test_gates_resample_each_call():
    rng = np.random.default_rng(0)
    scores = Tensor(np.zeros(64))
    a = sample_gates(scores, rng).data
    b = sample_gates(scores, rng).data
    assert (a != b).any()


def test_rb_regularizer_exact_value_and_grad():
    s1 = Tensor(np.array([0.0, 2.0]), requires_grad=True)
    s2 = Tensor(np.array([-1.0]), requires_grad=True)
    level = 0.5
    loss = rb_regularizer_loss([s1, s2], level)
    probs = np.concatenate([sigmoid(s1.data), sigmoid(s2.data)])
    gap = probs.mean() - (1 - level)
    assert loss.item() == pytest.approx(gap * gap, abs=1e-15)

    T.backward(loss)
    for s in (s1, s2):
        p = sigmoid(s.data)
        np.testing.assert_allclose(s.grad, 2 * gap * p * (1 - p) / 3.0, atol=1e-12)


def test_rb_regularizer_zero_at_matching_density():
    # mean sigmoid = 3/4 exactly when half the scores sit at +logit offsets
    s = Tensor(np.array([2.0, -2.0, 2.0, -2.0]), requires_grad=True)
    loss = rb_regularizer_loss([s], 1.0 - float(sigmoid(np.array([2.0, -2.0])).mean()))
    assert loss.item() == pytest.approx(0.0, abs=1e-15)


def test_eval_mask_thresholds_at_zero():
    scores = Tensor(np.array([0.3, -0.2, 0.0, 5.0]))
    np.testing.assert_array_equal(rb_eval_mask(scores), [1.0, 0.0, 0.0, 1.0])


def test_rb_gate_needs_rng_in_train_mode():
    gate = RBGate(np.zeros((2, 2)))
    with pytest.raises(RuntimeError):
        gate(Tensor(np.ones((2, 2))), ExecContext(mode="train", rng=None))


# -- rb controller ---------------------------------------------------------


def test_rb_hooks_and_extra_params():
    g = tiny_net()
    ctrl = RBSparsityController(g, RBSparsitySpec(score_lr_multiplier=8.0))
    assert set(ctrl.gates) == {"conv", "fc"}
    np.testing.assert_array_equal(ctrl.gates["conv"].scores.data, np.full((2, 1, 3, 3), 3.0))
    params = ctrl.extra_params()
    names = {n for n, _, _ in params}
    assert names == {"rb_sparsity:conv:pre_param:weight:0:scores", "rb_sparsity:fc:pre_param:weight:0:scores"}
    assert all(mult == 8.0 for _, _, mult in params)


def test_rb_train_forward_samples_eval_is_deterministic():
    g = tiny_net()
    ctrl = RBSparsityController(g, RBSparsitySpec())
    x = np.random.default_rng(4).normal(size=(2, 1, 4, 4))
    a = g.run(Tensor(x), mode="train", rng=np.random.default_rng(9)).data
    b = g.run(Tensor(x), mode="train", rng=np.random.default_rng(9)).data
    c = g.run(Tensor(x), mode="train", rng=np.random.default_rng(10)).data
    np.testing.assert_array_equal(a, b)
    assert (a != c).any()
    e1 = g.run(Tensor(x)).data
    e2 = g.run(Tensor(x)).data
    np.testing.assert_array_equal(e1, e2)


def test_rb_loss_drives_density_to_target():
    g = tiny_net()
    ctrl = RBSparsityController(g, load_spec(RBSparsitySpec, {"schedule": {"target": 0.5}}))
    ctrl.scheduler.epoch_step()
    assert ctrl.level == 0.5
    scores = [t for _, t, _ in ctrl.extra_params()]
    for _ in range(400):
        loss = ctrl.loss()
        T.backward(loss)
        for s in scores:
            s.data = s.data - 200.0 * s.grad
            s.grad = None
    probs = np.concatenate([sigmoid(s.data.ravel()) for s in scores])
    assert abs(probs.mean() - 0.5) < 0.01


# (schedule section, levels at epochs 0-12, or None where the section is refused)
RB_SCHEDULES = [
    ({}, [0.5] * 13),
    ({"target": 0.3}, [0.3] * 13),
    ({"mode": "polynomial", "target": 0.3}, [0.3 * (e / 10) for e in range(10)] + [0.3] * 3),
    ({"init": 0.0, "target": 0.3}, [0.3 * (e / 10) for e in range(10)] + [0.3] * 3),
    ({"target": 0.3, "epochs": 0}, None),  # checked as a ramp from 0 before the hold applies
]


@pytest.mark.parametrize("schedule, levels", RB_SCHEDULES, ids=["default", "target", "mode", "init", "zero-epochs"])
def test_rb_schedule_holds_the_target_unless_mode_or_init_is_given(schedule, levels):
    config = {"compression": [{"algorithm": "rb_sparsity", "schedule": schedule}]}
    if levels is None:
        with pytest.raises(ConfigError, match=re.escape("'compression[0].schedule.epochs' is out of range")):
            create_compressed_model(tiny_net(), config)
        return
    (ctrl,), _ = create_compressed_model(tiny_net(), config)
    seen = []
    for _ in range(13):
        ctrl.scheduler.epoch_step()
        seen.append(ctrl.level)
    assert seen == levels


def test_rb_export_bakes_eval_mask(tmp_path):
    g = tiny_net()
    ctrl = RBSparsityController(g, RBSparsitySpec())
    ctrl.gates["conv"].scores.data[:] = -1.0  # prune the whole conv
    x = np.random.default_rng(6).normal(size=(2, 1, 4, 4))
    ref = g.run(Tensor(x)).data
    exported = export_graph(g, tmp_path / "rb.nncm")
    assert not exported.hooks
    np.testing.assert_array_equal(exported.nodes["conv"].params["weight"].data, 0.0)
    np.testing.assert_array_equal(exported.run(Tensor(x)).data, ref)


def test_rb_statistics_and_serialization():
    g = tiny_net()
    ctrl = RBSparsityController(g, RBSparsitySpec())
    ctrl.gates["fc"].scores.data.reshape(-1)[:5] = -2.0
    stats = ctrl.statistics()
    assert stats["eval_sparsity"] == pytest.approx(5 / (18 + 64))
    x = np.random.default_rng(8).normal(size=(1, 1, 4, 4))
    loaded, _ = deserialize_model(serialize_model(g))
    np.testing.assert_array_equal(loaded.run(Tensor(x)).data, g.run(Tensor(x)).data)
    hook = [h for h in loaded.hooks if h.node_id == "fc"][0]
    assert hook.transform.scores.requires_grad
