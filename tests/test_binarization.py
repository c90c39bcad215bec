import numpy as np
import pytest

from nncompress import serialize as S
from nncompress import tensor as T
from nncompress.binarization import (
    ActivationBinarizer,
    BinarizationController,
    BinarizationSpec,
    WeightBinarizer,
    apply_binarization,
    binarization_stage_at,
    binarize_activations,
    binarize_weights,
    default_denylist,
    select_binarized_layers,
)
from nncompress.graph import HookPosition, INPUT_ID, ModelGraph, NodeSpec
from nncompress.models import build_model
from nncompress.tensor import ShapeError, Tensor

from test_graph import conv_node, fc_node


# -- weight binarization ---------------------------------------------------


def test_dorefa_hand_example():
    w = Tensor(np.array([[[[1.0, -3.0], [2.0, -2.0]]]]))
    out = binarize_weights(w, "dorefa")
    np.testing.assert_array_equal(out.data, [[[[2.0, -2.0], [2.0, -2.0]]]])


def test_constant_positive_weights_are_fixed_point():
    w = Tensor(np.full((2, 1, 2, 2), 0.7))
    np.testing.assert_array_equal(binarize_weights(w, "dorefa").data, w.data)
    np.testing.assert_array_equal(binarize_weights(w, "xnor").data, w.data)


def test_xnor_scales_per_input_channel():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 2, 2, 2))
    out = binarize_weights(Tensor(w), "xnor").data
    for c in range(2):
        alpha = np.abs(w[:, c]).mean()
        np.testing.assert_allclose(np.unique(np.abs(out[:, c])), [alpha], rtol=1e-12)
        np.testing.assert_array_equal(np.sign(out[:, c]), np.where(w[:, c] >= 0, 1.0, -1.0))


def test_binarized_weights_take_two_values_per_group():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(4, 3, 3, 3))
    out = binarize_weights(Tensor(w), "dorefa").data
    alpha = np.abs(w).mean()
    assert set(np.round(np.unique(out), 12)) == {round(-alpha, 12), round(alpha, 12)}


def test_sign_of_zero_is_positive():
    w = Tensor(np.array([[[[0.0, -1.0], [1.0, 2.0]]]]))
    out = binarize_weights(w, "dorefa")
    assert out.data[0, 0, 0, 0] > 0


def test_weight_binarization_rejects_non_conv_weight():
    with pytest.raises(ShapeError, match="4-D"):
        binarize_weights(Tensor(np.zeros((3, 3))), "dorefa")
    with pytest.raises(ValueError, match="scheme must be one of"):
        binarize_weights(Tensor(np.zeros((1, 1, 1, 1))), "binary")


def test_weight_binarization_backward_scales_upstream():
    w = Tensor(np.array([[[[1.0, -3.0], [2.0, -2.0]]]]), requires_grad=True)
    u = np.array([[[[1.0, 10.0], [100.0, 1000.0]]]])
    T.backward(T.tsum(T.mul(binarize_weights(w, "dorefa"), Tensor(u))))
    np.testing.assert_allclose(w.grad, 2.0 * u)  # alpha = 2, sign is straight-through

    w2 = Tensor(np.stack([np.full((2, 1, 1), 1.0), np.full((2, 1, 1), -4.0)], axis=1)[None][0:1].reshape(1, 2, 2, 1) if False else np.zeros((1, 2, 2, 1)), requires_grad=True)
    w2.data[0, 0] = [[1.0], [-1.0]]
    w2.data[0, 1] = [[4.0], [-4.0]]
    T.backward(T.tsum(binarize_weights(w2, "xnor")))
    np.testing.assert_allclose(w2.grad[0, 0], 1.0)
    np.testing.assert_allclose(w2.grad[0, 1], 4.0)


# -- activation binarization -----------------------------------------------


def test_activation_hand_examples():
    s = Tensor(np.asarray(2.0))
    t = Tensor(np.array([0.25]))
    x = Tensor(np.array(0.7).reshape(1, 1, 1, 1))
    assert binarize_activations(x, s, t).data.item() == 2.0
    x_edge = Tensor(np.array(0.5).reshape(1, 1, 1, 1))  # x == s*t lands on H(0) = 0
    assert binarize_activations(x_edge, s, t).data.item() == 0.0


def test_activation_saturates_when_threshold_very_low():
    s = Tensor(np.asarray(2.0))
    t = Tensor(np.array([-1e9]))
    x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 3, 3)))
    np.testing.assert_array_equal(binarize_activations(x, s, t).data, np.full((2, 1, 3, 3), 2.0))


def test_activation_output_is_two_valued():
    rng = np.random.default_rng(2)
    s = Tensor(np.asarray(1.3))
    t = Tensor(rng.normal(size=4))
    x = Tensor(rng.normal(size=(2, 4, 5, 5)))
    out = binarize_activations(x, s, t).data
    assert set(np.unique(out)) <= {0.0, 1.3}


def test_activation_threshold_length_checked():
    with pytest.raises(ShapeError, match="thresholds"):
        binarize_activations(Tensor(np.zeros((1, 3, 2, 2))), Tensor(np.asarray(1.0)), Tensor(np.zeros(2)))


def test_activation_gradients_match_surrogate_contracts():
    rng = np.random.default_rng(3)
    x_data = rng.normal(size=(2, 3, 2, 2))
    u = rng.normal(size=(2, 3, 2, 2))
    s0 = 1.7
    t0 = rng.normal(size=3) * 0.3

    s = Tensor(np.asarray(s0), requires_grad=True)
    t = Tensor(t0.copy(), requires_grad=True)
    x = Tensor(x_data, requires_grad=True)
    T.backward(T.tsum(T.mul(binarize_activations(x, s, t), Tensor(u))))

    z = x_data - s0 * t0.reshape(1, 3, 1, 1)
    h = (z > 0).astype(float)
    expected_ds = (u * (h - s0 * t0.reshape(1, 3, 1, 1))).sum()
    expected_dt = (-(s0**2) * u).sum(axis=(0, 2, 3))
    np.testing.assert_allclose(float(s.grad), expected_ds, rtol=1e-12)
    np.testing.assert_allclose(t.grad, expected_dt, rtol=1e-12)
    np.testing.assert_allclose(x.grad, s0 * u, rtol=1e-12)


def test_activation_gradients_match_relaxed_fd():
    # freeze the step offset at the base point, replace H by an identity
    # slope, and central differences reproduce the surrogate gradients
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 2, 2, 2))
    u = rng.normal(size=(1, 2, 2, 2))
    s0, t0 = 1.2, rng.normal(size=2) * 0.4
    z0 = x - s0 * t0.reshape(1, 2, 1, 1)
    c0 = (z0 > 0).astype(float) - z0

    def relaxed(sv, tv):
        z = x - sv * tv.reshape(1, 2, 1, 1)
        return (u * sv * (z + c0)).sum()

    eps = 1e-6
    fd_s = (relaxed(s0 + eps, t0) - relaxed(s0 - eps, t0)) / (2 * eps)
    fd_t0 = (relaxed(s0, t0 + np.array([eps, 0.0])) - relaxed(s0, t0 - np.array([eps, 0.0]))) / (2 * eps)

    s = Tensor(np.asarray(s0), requires_grad=True)
    t = Tensor(t0.copy(), requires_grad=True)
    T.backward(T.tsum(T.mul(binarize_activations(Tensor(x), s, t), Tensor(u))))
    np.testing.assert_allclose(float(s.grad), fd_s, atol=1e-4)
    np.testing.assert_allclose(t.grad[0], fd_t0, atol=1e-4)


# -- stage schedule --------------------------------------------------------


def test_stage_schedule_follows_durations():
    d = (2, 2, 2, 4)
    for epoch, stage in [(0, 1), (1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4), (9, 4)]:
        assert binarization_stage_at(epoch, d).stage == stage
    assert binarization_stage_at(0, d).activations_on is False
    assert binarization_stage_at(3, d).activations_on is True
    assert binarization_stage_at(3, d).weights_on is False
    s5 = binarization_stage_at(5, d)
    assert s5.weights_on and s5.lr_scale == 1.0 and s5.weight_decay_on


def test_stage_four_polynomial_lr_decay():
    d = (2, 2, 2, 4)
    assert binarization_stage_at(6, d).lr_scale == pytest.approx(1.0)
    assert binarization_stage_at(7, d).lr_scale == pytest.approx(0.5625)
    assert binarization_stage_at(9, d).lr_scale == pytest.approx(0.0625)
    assert binarization_stage_at(10, d).lr_scale == 0.0
    assert binarization_stage_at(50, d).lr_scale == 0.0
    assert binarization_stage_at(7, d).weight_decay_on is False


def test_stage_flags_monotone_in_epoch():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = rng.integers(0, 5, size=4)
        prev = (False, False)
        for epoch in range(int(d.sum()) + 3):
            st = binarization_stage_at(epoch, d)
            cur = (st.activations_on, st.weights_on)
            assert cur >= prev
            prev = cur


def test_stage_rejects_bad_durations():
    with pytest.raises(ValueError, match="negative"):
        binarization_stage_at(0, (1, -1, 1, 1))
    with pytest.raises(ValueError, match="stage durations must be four non-negative integers"):
        binarization_stage_at(0, (1, 2, 3))


# -- layer selection -------------------------------------------------------


def three_conv_net():
    g = ModelGraph(input_shape=(1, 6, 6))
    rng = np.random.default_rng(6)
    g.add_node(conv_node("conv1", INPUT_ID, 1, 2, 3, padding=1, w=rng.normal(size=(2, 1, 3, 3))))
    g.add_node(conv_node("conv2", "conv1", 2, 2, 3, padding=1, w=rng.normal(size=(2, 2, 3, 3))))
    g.add_node(conv_node("conv3", "conv2", 2, 2, 3, padding=1, w=rng.normal(size=(2, 2, 3, 3))))
    g.add_node(NodeSpec(id="flat", kind="Flatten", inputs=["conv3"]))
    g.add_node(fc_node("fc", "flat", 72, 2, w=rng.normal(size=(2, 72))))
    return g


def test_default_denylist_guards_network_ends():
    g = three_conv_net()
    assert sorted(default_denylist(g)) == ["conv1", "conv3"]
    assert select_binarized_layers(g) == ["conv2"]


def test_explicit_lists_override_defaults():
    g = three_conv_net()
    assert select_binarized_layers(g, denylist=["conv*"]) == []
    assert select_binarized_layers(g, allowlist=["conv2"]) == ["conv2"]
    # an explicit denylist replaces the default exclusions entirely
    with pytest.warns(UserWarning, match="denylist"):
        assert select_binarized_layers(g, denylist=["nothing"]) == ["conv1", "conv2", "conv3"]


def test_unmatched_patterns_warn():
    g = three_conv_net()
    with pytest.warns(UserWarning, match="allowlist"):
        select_binarized_layers(g, allowlist=["dense*"])
    with pytest.warns(UserWarning, match="denylist"):
        select_binarized_layers(g, denylist=["dense*"])


def test_each_unmatched_pattern_warns():
    """A typo beside a matching pattern warns too, and names the typo."""
    with pytest.warns(UserWarning) as record:
        ctrl = BinarizationController(build_model("cnn-small"), BinarizationSpec(denylist=["conv1", "cnov2"]))
    assert [str(w.message) for w in record] == ["binarization denylist pattern 'cnov2' matches no convolution"]
    assert list(ctrl.handles) == ["conv2"]


def test_apply_binarization_places_both_hooks():
    g = three_conv_net()
    handles = apply_binarization(g, BinarizationSpec())
    assert set(handles) == {"conv2"}
    kinds = {(h.node_id, h.position) for h in g.hooks}
    assert kinds == {("conv2", HookPosition.PRE_PARAM), ("conv2", HookPosition.PRE_INPUT)}
    _, ab = handles["conv2"]
    assert ab.thresholds.shape == (2,)  # channels of conv2's input


# -- controller ------------------------------------------------------------


def test_controller_stages_gate_the_hooks():
    g = three_conv_net()
    ctrl = BinarizationController(g, BinarizationSpec(stage_epochs=(1, 1, 1, 1)))
    x = Tensor(np.random.default_rng(7).normal(size=(2, 1, 6, 6)))
    plain = three_conv_net().run(x).data

    ctrl.scheduler.epoch_step()  # epoch 0: stage 1, hooks inert
    np.testing.assert_array_equal(g.run(x).data, plain)
    assert ctrl.statistics()["stage"] == 1

    ctrl.scheduler.epoch_step()  # epoch 1: activations only
    wb, ab = ctrl.handles["conv2"]
    assert ab.enabled and not wb.enabled
    out_act = g.run(x).data
    assert not np.array_equal(out_act, plain)

    ctrl.scheduler.epoch_step()  # epoch 2: both
    assert wb.enabled
    stats = ctrl.statistics()
    assert stats["weights_on"] and stats["activations_on"]
    assert ctrl.lr_scale == 1.0

    ctrl.scheduler.epoch_step()  # epoch 3: stage 4 starts at full lr
    assert ctrl.statistics()["stage"] == 4
    assert ctrl.lr_scale == pytest.approx(1.0)
    assert not ctrl.weight_decay_on


def test_binarized_training_reaches_scale_and_thresholds():
    g = three_conv_net()
    ctrl = BinarizationController(g, BinarizationSpec(stage_epochs=(0, 0, 4, 0)))
    ctrl.scheduler.epoch_step()
    x = Tensor(np.random.default_rng(8).normal(size=(2, 1, 6, 6)))
    out = g.run(x, mode="train")
    T.backward(T.tsum(T.mul(out, out)))
    _, ab = ctrl.handles["conv2"]
    assert ab.scale.grad is not None and np.isfinite(ab.scale.grad)
    assert ab.thresholds.grad.shape == (2,)
    assert g.nodes["conv2"].params["weight"].grad is not None
    names = [n for n, _, _ in ctrl.extra_params()]
    assert {"binarization:conv2:pre_input:None:0:scale", "binarization:conv2:pre_input:None:0:thresholds"} <= set(names)


def test_binarization_round_trips_through_file(tmp_path):
    g = three_conv_net()
    ctrl = BinarizationController(g, BinarizationSpec(weight_scheme="dorefa", stage_epochs=(0, 0, 1, 0)))
    ctrl.scheduler.epoch_step()
    _, ab = ctrl.handles["conv2"]
    ab.scale.data[...] = 1.5
    ab.thresholds.data[...] = [0.1, -0.2]
    path = tmp_path / "bin.nncm"
    S.save_model(g, path)
    g2, _ = S.load_model(path)
    x = Tensor(np.random.default_rng(9).normal(size=(2, 1, 6, 6)))
    np.testing.assert_array_equal(g.run(x).data, g2.run(x).data)
    restored = [h.transform for h in g2.hooks if isinstance(h.transform, ActivationBinarizer)]
    assert restored[0].enabled and float(restored[0].scale.data) == 1.5
