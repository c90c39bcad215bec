import numpy as np
import pytest

from nncompress import serialize as S
from nncompress import tensor as T
from nncompress.api import create_compressed_model, export_graph, validate_config
from nncompress.graph import FUSED_CHAINS, Hook, HookPosition, INPUT_ID, ModelGraph, NodeSpec
from nncompress.models import build_model
from nncompress.quantization import (
    FakeQuantizer,
    QuantizationController,
    QuantizationSpec,
    initialize_quantizer_ranges,
    insert_quantizers,
    quant_grid,
    tune_asymmetric_range,
)
from nncompress.tensor import Tensor

from test_graph import bn_node, conv_node, fc_node


# -- integer grids ---------------------------------------------------------


@pytest.mark.parametrize(
    "bits,kind,expected",
    [
        (8, "weight", (-127, 127)),
        (8, "signed_act", (-128, 127)),
        (8, "unsigned_act", (0, 255)),
        (4, "weight", (-7, 7)),
        (4, "signed_act", (-8, 7)),
        (4, "unsigned_act", (0, 15)),
        (2, "weight", (-1, 1)),
        (2, "signed_act", (-2, 1)),
        (2, "unsigned_act", (0, 3)),
    ],
)
def test_quant_grid_table(bits, kind, expected):
    assert quant_grid(bits, kind) == expected


def test_quant_grid_rejects_bad_inputs():
    with pytest.raises(ValueError, match="at least 2"):
        quant_grid(1, "weight")
    with pytest.raises(ValueError, match="grid must be one of"):
        quant_grid(8, "int8")


# -- symmetric forward -----------------------------------------------------


def make_sym(scale, bits=8, grid="weight"):
    fq = FakeQuantizer(bits=bits, mode="symmetric", grid=grid)
    fq.scale.data[...] = scale
    fq.initialized = True
    return fq


def test_symmetric_forward_values():
    fq = make_sym(1.0)
    x = Tensor(np.array([0.0, 0.5, 1.0, -1.0, 2.0, -3.0]))
    out = fq(x).data
    step = 1.0 / 127
    np.testing.assert_allclose(
        out, [0.0, 64 * step, 127 * step, -127 * step, 127 * step, -127 * step], atol=1e-15
    )


def test_symmetric_rounds_half_to_even():
    fq = make_sym(127.0)  # step size exactly 1
    x = Tensor(np.array([0.5, 1.5, 2.5, -0.5, -2.5]))
    np.testing.assert_array_equal(fq(x).data, [0.0, 2.0, 2.0, 0.0, -2.0])


def test_symmetric_idempotent():
    rng = np.random.default_rng(0)
    fq = make_sym(1.7, bits=4)
    x = Tensor(rng.normal(size=64))
    once = fq(Tensor(fq(x).data.copy())).data
    np.testing.assert_allclose(once, fq(x).data, atol=1e-12)


def test_symmetric_zero_maps_to_zero():
    fq = make_sym(0.73, bits=3)
    assert fq(Tensor(np.zeros(5))).data.tolist() == [0.0] * 5


def test_symmetric_scale_gradient_branches():
    # elements chosen to exercise in-range, clamped-low, clamped-high paths
    r = np.array([0.3, -0.62, 1.8, -2.4])
    u = np.array([1.0, 2.0, 3.0, 4.0])  # upstream weights
    s0 = 1.0
    bits = 8
    q_min, q_max = quant_grid(bits, "weight")
    fq = make_sym(s0, bits=bits)
    x = Tensor(r)
    loss = T.tsum(T.mul(fq(x), Tensor(u)))
    T.backward(loss)

    v = r * q_max / s0
    expected = np.where(
        v < q_min, q_min / q_max, np.where(v > q_max, 1.0, (np.round(v) - v) / q_max)
    )
    np.testing.assert_allclose(fq.scale.grad, np.array([(u * expected).sum()]).reshape(()), rtol=1e-12)


def test_symmetric_scale_gradient_matches_relaxed_fd():
    # the straight-through gradient equals finite differences of the forward
    # with the rounding residual frozen at the base point
    r = np.array([0.3, -0.62, 1.8, -2.4, 0.05])
    u = np.array([1.0, -2.0, 0.5, 4.0, 3.0])
    s0, bits = 1.0, 8
    q_min, q_max = quant_grid(bits, "weight")
    v0 = np.clip(r * q_max / s0, q_min, q_max)
    resid = np.round(v0) - v0

    def relaxed(s):
        vc = np.clip(r * q_max / s, q_min, q_max)
        return (u * (s / q_max) * (vc + resid)).sum()

    eps = 1e-6
    fd = (relaxed(s0 + eps) - relaxed(s0 - eps)) / (2 * eps)

    fq = make_sym(s0, bits=bits)
    loss = T.tsum(T.mul(fq(Tensor(r)), Tensor(u)))
    T.backward(loss)
    np.testing.assert_allclose(float(fq.scale.grad), fd, rtol=1e-6)


def test_symmetric_input_gradient_cut_outside_range():
    fq = make_sym(1.0)
    r = Tensor(np.array([0.4, -1.5, 2.0, 0.9]), requires_grad=True)
    T.backward(T.tsum(fq(r)))
    np.testing.assert_allclose(r.grad, [1.0, 0.0, 0.0, 1.0], atol=1e-15)


def test_per_channel_scales_apply_independently():
    fq = FakeQuantizer(bits=8, mode="symmetric", grid="weight", per_channel=True, channels=2)
    fq.scale.data[...] = [1.0, 10.0]
    fq.initialized = True
    w = Tensor(np.array([[[[0.5]]], [[[5.0]]]]), requires_grad=True)  # shape [2,1,1,1]
    out = fq(w)
    step = np.array([1.0, 10.0]) / 127
    np.testing.assert_allclose(out.data.reshape(2), [64 * step[0], np.round(5.0 / step[1]) * step[1]])
    T.backward(T.tsum(out))
    assert fq.scale.grad.shape == (2,)


def test_weight_quantizer_initializes_from_tensor_per_channel():
    fq = FakeQuantizer(bits=8, mode="symmetric", grid="weight", per_channel=True, channels=2)
    w = np.stack([np.full((1, 2, 2), 0.25), np.full((1, 2, 2), -3.0)])
    fq(Tensor(w))
    np.testing.assert_allclose(fq.scale.data, [0.25, 3.0])
    assert fq.initialized


def test_all_zero_weights_hit_range_floor():
    fq = FakeQuantizer(bits=8, mode="symmetric", grid="weight")
    out = fq(Tensor(np.zeros(6)))
    assert fq.scale.data == pytest.approx(1e-8)
    assert np.all(out.data == 0.0)
    assert np.all(np.isfinite(out.data))


# -- asymmetric range tuning ----------------------------------------------


def test_tuning_worked_example():
    lo, hi, z = tune_asymmetric_range(-1.0, 3.0, 8)
    assert z == 64
    assert hi == 3.0
    np.testing.assert_allclose(lo, -192.0 / 191.0, rtol=1e-12)
    # the zero point is exactly integral: -lo / step == z
    step = (hi - lo) / 255
    np.testing.assert_allclose(-lo / step, 64.0, rtol=1e-12)


def test_tuning_one_sided_ranges_untouched():
    lo, hi, z = tune_asymmetric_range(0.5, 4.0, 8)
    assert (lo, hi, z) == (0.0, 4.0, 0.0)
    lo, hi, z = tune_asymmetric_range(-4.0, -0.5, 8)
    assert (lo, hi, z) == (-4.0, 0.0, 255.0)


def test_tuning_never_shrinks_and_keeps_zero_inside():
    rng = np.random.default_rng(5)
    for _ in range(200):
        rmin = rng.uniform(-10, 1)
        rmax = rmin + rng.uniform(1e-4, 20)
        for bits in (2, 4, 8):
            lo, hi, z = tune_asymmetric_range(rmin, rmax, bits)
            levels = 2**bits - 1
            l1, h1 = min(rmin, 0), max(rmax, 0)
            assert lo <= l1 + 1e-12 and hi >= h1 - 1e-12
            assert lo <= 0.0 <= hi
            assert z == np.round(z) and 0 <= z <= levels
            if 0 < z < levels:
                step = (hi - lo) / levels
                np.testing.assert_allclose(-lo / step, z, atol=1e-9)


def test_tuning_vectorized_per_channel():
    lo, hi, z = tune_asymmetric_range(np.array([-1.0, 0.5]), np.array([3.0, 4.0]), 8)
    np.testing.assert_allclose(lo, [-192.0 / 191.0, 0.0])
    np.testing.assert_allclose(hi, [3.0, 4.0])
    np.testing.assert_allclose(z, [64.0, 0.0])


# -- asymmetric forward ----------------------------------------------------


def make_asym(rmin, rmax, bits=8):
    fq = FakeQuantizer(bits=bits, mode="asymmetric", grid="signed_act")
    fq.rmin.data[...] = rmin
    fq.rmax.data[...] = rmax
    fq.initialized = True
    return fq


def test_asymmetric_zero_exactly_representable():
    fq = make_asym(-1.0, 3.0)
    out = fq(Tensor(np.array([0.0, 0.0])))
    assert np.all(np.abs(out.data) < 1e-9)


def test_asymmetric_zero_exact_when_tuning_keeps_raw_range():
    # (-18.11, 1.036) at 2 bits rounds the zero point to the top level, so
    # tuning keeps the raw bounds; quantization must anchor at the integer
    # zero point, not at r_min, for 0 -> 0 to survive that branch
    fq = make_asym(-18.11025069422366, 1.0362822493047794, bits=2)
    assert fq(Tensor(np.zeros(3))).data.tolist() == [0.0, 0.0, 0.0]
    fq = make_asym(-0.1, 25.0, bits=2)  # zero point rounds to 0
    assert fq(Tensor(np.zeros(3))).data.tolist() == [0.0, 0.0, 0.0]


def test_asymmetric_forward_clamps_to_tuned_bounds():
    fq = make_asym(-1.0, 3.0)
    lo, hi, _ = tune_asymmetric_range(-1.0, 3.0, 8)
    out = fq(Tensor(np.array([-5.0, 10.0]))).data
    np.testing.assert_allclose(out, [float(lo), float(hi)], atol=1e-12)


def test_asymmetric_idempotent():
    rng = np.random.default_rng(3)
    fq = make_asym(-0.7, 2.1, bits=4)
    x = Tensor(rng.uniform(-2, 3, size=64))
    once = fq(x).data.copy()
    twice = fq(Tensor(once.copy())).data
    np.testing.assert_allclose(twice, once, atol=1e-12)


def test_asymmetric_boundary_gradients_route_to_bounds():
    fq = make_asym(-1.0, 3.0)
    lo, hi, _ = tune_asymmetric_range(-1.0, 3.0, 8)
    x = np.array([-2.0, 0.5, 4.0, -1.5, 2.0])
    u = np.array([1.0, 10.0, 2.0, 3.0, 20.0])
    xt = Tensor(x, requires_grad=True)
    T.backward(T.tsum(T.mul(fq(xt), Tensor(u))))
    below = x < lo
    above = x > hi
    assert float(fq.rmin.grad) == pytest.approx(u[below].sum())
    assert float(fq.rmax.grad) == pytest.approx(u[above].sum())
    np.testing.assert_allclose(xt.grad, np.where(below | above, 0.0, u), atol=1e-12)


# -- range initialization --------------------------------------------------


def test_percentile_init_ignores_outliers():
    rng = np.random.default_rng(1)
    data = rng.uniform(-1, 1, size=2000)
    data[7] = 100.0
    plain = FakeQuantizer(bits=8, mode="symmetric", grid="signed_act", init_scheme="minmax")
    robust = FakeQuantizer(bits=8, mode="symmetric", grid="signed_act", init_scheme="percentile", percentiles=(0.5, 99.5))
    plain.observe(data)
    plain.finalize()
    robust.observe(data)
    robust.finalize()
    assert plain.scale.data == pytest.approx(100.0)
    assert float(robust.scale.data) < 2.0


def test_lazy_init_uses_first_batch():
    fq = FakeQuantizer(bits=8, mode="asymmetric", grid="signed_act")
    first = np.array([-0.5, 2.0])
    fq(Tensor(first))
    assert fq.initialized
    assert fq.rmin.data == pytest.approx(-0.5)
    assert fq.rmax.data == pytest.approx(2.0)
    # later batches no longer move the ranges
    fq(Tensor(np.array([-100.0, 100.0])))
    assert fq.rmax.data == pytest.approx(2.0)


def _range_bits(fq: FakeQuantizer) -> bytes:
    return b"".join(getattr(fq, name).data.tobytes() for name in fq.codec_params)


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
@pytest.mark.parametrize("init_scheme", ["minmax", "percentile"])
def test_batched_observation_matches_one_concatenated_batch(mode, init_scheme):
    rng = np.random.default_rng(4)
    batches = [scale * rng.normal(size=(n, 3, 4, 4)) for n, scale in ((5, 1.0), (2, 3.0), (7, 0.5))]

    def quantizer():
        return FakeQuantizer(
            bits=8, mode=mode, grid="signed_act", init_scheme=init_scheme, percentiles=(1.0, 99.0)
        )

    split, whole = quantizer(), quantizer()
    for b in batches:
        split.observe(b)
    split.finalize()
    whole.observe(np.concatenate(batches))
    whole.finalize()
    assert _range_bits(split) == _range_bits(whole)
    values = np.concatenate([b.ravel() for b in batches])
    lo = np.quantile(values, 0.01) if init_scheme == "percentile" else values.min()
    hi = np.quantile(values, 0.99) if init_scheme == "percentile" else values.max()
    if mode == "symmetric":
        absmax = max(abs(lo), abs(hi)) if init_scheme == "percentile" else np.abs(values).max()
        assert split.scale.data.tobytes() == np.float64(absmax).tobytes()
    else:
        assert split.rmin.data.tobytes() == np.float64(lo).tobytes()
        assert split.rmax.data.tobytes() == np.float64(hi).tobytes()


@pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
def test_lazy_per_channel_weight_init_matches_init_from_array(mode):
    spread = np.array([0.1, 1.0, 3.0, 0.0]).reshape(4, 1, 1, 1)  # the last channel hits the range floor
    w = spread * np.random.default_rng(5).normal(size=(4, 3, 3, 3))
    lazy = FakeQuantizer(bits=4, mode=mode, grid="weight", per_channel=True, channels=4)
    eager = FakeQuantizer(bits=4, mode=mode, grid="weight", per_channel=True, channels=4)
    eager.init_from_array(w)
    out = lazy(Tensor(w))
    assert lazy.initialized
    assert _range_bits(lazy) == _range_bits(eager)
    assert out.data.tobytes() == eager(Tensor(w)).data.tobytes()


# -- insertion policy ------------------------------------------------------


def small_cnn():
    g = ModelGraph(input_shape=(1, 8, 8))
    rng = np.random.default_rng(0)
    g.add_node(conv_node("conv1", INPUT_ID, 1, 4, 3, padding=1, w=rng.normal(size=(4, 1, 3, 3), scale=0.5)))
    g.add_node(bn_node("bn1", "conv1", 4))
    g.add_node(NodeSpec(id="relu1", kind="ReLU", inputs=["bn1"]))
    g.add_node(NodeSpec(id="pool1", kind="MaxPool2D", inputs=["relu1"], attrs={"kernel": 2}))
    g.add_node(conv_node("conv2", "pool1", 4, 8, 3, padding=1, w=rng.normal(size=(8, 4, 3, 3), scale=0.5)))
    g.add_node(NodeSpec(id="relu2", kind="ReLU", inputs=["conv2"]))
    g.add_node(NodeSpec(id="pool2", kind="MaxPool2D", inputs=["relu2"], attrs={"kernel": 2}))
    g.add_node(NodeSpec(id="flat", kind="Flatten", inputs=["pool2"]))
    g.add_node(fc_node("fc", "flat", 32, 2, w=rng.normal(size=(2, 32), scale=0.5)))
    return g


def residual_tail():
    g = ModelGraph(input_shape=(1, 4, 4))
    rng = np.random.default_rng(1)
    g.add_node(conv_node("conv1", INPUT_ID, 1, 2, 3, padding=1, w=rng.normal(size=(2, 1, 3, 3))))
    g.add_node(bn_node("bn1", "conv1", 2))
    g.add_node(NodeSpec(id="relu1", kind="ReLU", inputs=["bn1"]))
    g.add_node(conv_node("conv2", "relu1", 2, 2, 3, padding=1, w=rng.normal(size=(2, 2, 3, 3))))
    g.add_node(bn_node("bn2", "conv2", 2))
    g.add_node(NodeSpec(id="add", kind="Add", inputs=["bn2", "relu1"]))
    g.add_node(NodeSpec(id="relu2", kind="ReLU", inputs=["add"]))
    return g


def _fused(g):
    return {nid: [n.id for n in chain] for nid, chain in g.chains(FUSED_CHAINS).items()}


def test_fusion_patterns_detected():
    assert _fused(small_cnn()) == {"conv1": ["conv1", "bn1", "relu1"], "conv2": ["conv2", "relu2"]}
    # conv2 feeds a BatchNorm whose consumer is Add, so the pattern does not close
    assert _fused(residual_tail()) == {"conv1": ["conv1", "bn1", "relu1"]}


def test_insertion_policy_on_fused_cnn():
    g = small_cnn()
    h = insert_quantizers(g, QuantizationSpec())
    assert set(h["weight"]) == {"conv1", "conv2", "fc"}
    assert set(h["activation"]) == {INPUT_ID, "relu1", "relu2", "fc"}
    assert h["activation"]["relu1"].grid == "unsigned_act"
    assert h["activation"]["relu2"].grid == "unsigned_act"
    assert h["activation"][INPUT_ID].grid == "signed_act"
    assert h["activation"]["fc"].grid == "signed_act"
    assert h["mirror"] == {"conv1": "relu1", "conv2": "relu2", "fc": "fc"}
    # per-channel on conv weights only
    assert h["weight"]["conv1"].per_channel
    assert not h["weight"]["fc"].per_channel


def test_insertion_policy_on_residual_tail():
    g = residual_tail()
    h = insert_quantizers(g, QuantizationSpec())
    assert set(h["weight"]) == {"conv1", "conv2"}
    assert set(h["activation"]) == {INPUT_ID, "relu1", "conv2", "bn2", "add", "relu2"}
    assert h["mirror"] == {"conv1": "relu1", "conv2": "conv2"}


def test_initialize_ranges_from_data():
    g = small_cnn()
    h = insert_quantizers(g, QuantizationSpec())
    rng = np.random.default_rng(2)
    batches = [rng.normal(size=(4, 1, 8, 8)) for _ in range(3)]
    initialize_quantizer_ranges(g, batches)
    for q in h["weight"].values():
        assert q.initialized
    for q in h["activation"].values():
        assert q.initialized
    observed_absmax = max(np.abs(b).max() for b in batches)
    assert float(h["activation"][INPUT_ID].scale.data) == pytest.approx(observed_absmax)
    # conv1 weight scales match per-channel magnitudes
    w = g.nodes["conv1"].params["weight"].data
    np.testing.assert_allclose(h["weight"]["conv1"].scale.data, np.abs(w).max(axis=(1, 2, 3)))


def test_num_init_samples_caps_observation():
    g = small_cnn()
    h = insert_quantizers(g, QuantizationSpec())
    big = np.full((4, 1, 8, 8), 50.0)
    batches = [np.ones((4, 1, 8, 8)), big]
    initialize_quantizer_ranges(g, batches, num_batches=1)
    assert float(h["activation"][INPUT_ID].scale.data) == pytest.approx(1.0)


def test_num_batches_beyond_any_stream_is_every_batch():
    # a cap above sys.maxsize validates, so it must build, and cap nothing
    rng = np.random.default_rng(5)
    batches = [rng.normal(size=(4, 1, 8, 8)) for _ in range(3)]
    ranges = []
    for init in ({}, {"num_batches": 2**64}):
        config = {"compression": {"algorithm": "quantization", "init": init}}
        validate_config(config)
        _, g = create_compressed_model(build_model("cnn-small", 0), config, batches)
        ranges.append([getattr(h.transform, n).data for h in g.hooks for n in h.transform.codec_params])
    assert len(ranges[0]) == len(ranges[1]) > 0
    for a, b in zip(*ranges):
        np.testing.assert_array_equal(a, b)


def test_quantized_graph_round_trips_through_file(tmp_path):
    g = small_cnn()
    insert_quantizers(g, QuantizationSpec())
    rng = np.random.default_rng(4)
    initialize_quantizer_ranges(g, [rng.normal(size=(8, 1, 8, 8))])
    x = rng.normal(size=(3, 1, 8, 8))
    before = g.run(Tensor(x)).data
    path = tmp_path / "q.nncm"
    S.save_model(g, path)
    g2, _ = S.load_model(path)
    assert len(g2.hooks) == len(g.hooks)
    after = g2.run(Tensor(x)).data
    np.testing.assert_array_equal(before, after)


def test_controller_flow():
    g = small_cnn()
    ctrl = QuantizationController(g, QuantizationSpec(bits=8, mode="symmetric"))
    rng = np.random.default_rng(6)
    initialize_quantizer_ranges(g, [rng.normal(size=(4, 1, 8, 8))])
    names = [n for n, _, _ in ctrl.extra_params()]
    assert "quantization:conv1:pre_param:weight:0:scale" in names
    assert "quantization:relu1:post_output:None:0:scale" in names
    stats = ctrl.statistics()
    assert stats["weight_quantizers"]["conv1"]["bits"] == 8
    assert stats["activation_quantizers"]["relu1"]["grid"] == "unsigned_act"
    # compression loss defaults to zero
    assert float(ctrl.loss()) == 0.0

    ctrl.apply_bit_config({"conv1": 4, "conv2": 2})
    assert ctrl.handles["weight"]["conv1"].bits == 4
    assert ctrl.handles["activation"]["relu1"].bits == 4
    assert ctrl.handles["activation"]["relu2"].bits == 2
    assert ctrl.statistics()["bit_config"] == {"conv1": 4, "conv2": 2}
    with pytest.raises(KeyError):
        ctrl.apply_bit_config({"missing": 8})


def test_export_rejects_uninitialized_quantizers(tmp_path):
    g = small_cnn()
    QuantizationController(g, QuantizationSpec())
    with pytest.raises(S.SerializationError, match="uninitialized"):
        export_graph(g, tmp_path / "q.nncm")


def test_quantization_trains_end_to_end():
    # gradients reach the underlying weights through the fake quantizer
    g = small_cnn()
    insert_quantizers(g, QuantizationSpec())
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 1, 8, 8))
    initialize_quantizer_ranges(g, [x])
    out = g.run(Tensor(x), mode="train")
    T.backward(T.tsum(T.mul(out, out)))
    w = g.nodes["conv1"].params["weight"]
    assert w.grad is not None and np.abs(w.grad).max() > 0
