"""Quantization-aware training via fake-quantize hooks.

Weights and activations pass through simulated integer grids during
training.  The rounding is non-differentiable, so each quantizer mode is
one engine op (``fake_quant``, ``fake_quant_asymmetric``) whose
straight-through backward yields the standard gradient contracts:
range parameters learn from the rounding residual (symmetric) or from
boundary clipping (asymmetric), and the input gradient is passed inside
the representable range and cut outside it.

Activation quantizers skip the interior of the fused chains that
``graph.FUSED_CHAINS`` declares; ``ModelGraph.chains`` finds them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from . import serialize, tensor as T
from .base import CompressionBuilder, CompressionController, ConfigError, Spec, SpecError, setting
from .graph import FUSED_CHAINS, WEIGHTED_KINDS, Hook, HookPosition, INPUT_ID, ModelGraph
from .mixed_precision import DIRECTION, plan_mixed_precision
from .tensor import Tensor
from .util import BOOL, COUNT, FINITE_POSITIVE, INTEGER, LIST, PERCENT, POSITIVE, check, cross_entropy, one_of

FAMILY = "quantization"
RANGE_FLOOR = 1e-8
MIN_BITS = 2
MAX_BITS = 32  # the widest integer grid; it bounds the 2 ** bits that a model file can ask for
# each grid's (lowest, highest) integer level, from half = 2 ** (bits - 1):
# weights drop the lowest level so zero sits exactly in the middle; signed
# activations keep the full two's-complement range; unsigned ones start at 0
_GRID_LEVELS = {
    "weight": lambda half: (-(half - 1), half - 1),
    "signed_act": lambda half: (-half, half - 1),
    "unsigned_act": lambda half: (0, 2 * half - 1),
}
# each quantizer setting's kind, shared by the config specs, FakeQuantizer and the model-file reader
MODE = one_of(("symmetric", "asymmetric"))
BITS = (lambda v: INTEGER[0](v) and MIN_BITS <= v <= MAX_BITS,
        f"an integer of at least {MIN_BITS} and at most {MAX_BITS}")
CANDIDATE_BITS = (
    lambda v: LIST[0](v) and len(v) > 0 and all(BITS[0](b) for b in v),
    f"a non-empty list of integers of at least {MIN_BITS} and at most {MAX_BITS}",
)
GRID = one_of(_GRID_LEVELS)
INIT_SCHEME = one_of(("minmax", "percentile"))
PERCENTILES = (
    lambda v: LIST[0](v) and len(v) == 2 and all(PERCENT[0](p) for p in v) and v[0] <= v[1],
    "two numbers in [0, 100], the first not above the second",
)

VALUE_PRODUCING_KINDS = ("Conv2D", "FullyConnected", "BatchNorm", "ReLU", "Add")


def quant_grid(bits: int, kind: str) -> Tuple[int, int]:
    """Integer level range of grid ``kind`` (a value ``GRID`` passes) at a bit width."""
    check(BITS, bits, "bit width")
    check(GRID, kind, "grid")
    return _GRID_LEVELS[kind](2 ** (bits - 1))


def tune_asymmetric_range(rmin, rmax, bits: int):
    """Nudge raw bounds so the zero point lands on an integer level.

    Returns ``(low, high, zero_point)``.  Zero is always inside [low, high];
    one of the bounds is stretched (never shrunk) whenever the rounded zero
    point would otherwise fall between levels.
    """
    l1 = np.minimum(np.asarray(rmin, dtype=np.float64), 0.0)
    h1 = np.maximum(np.asarray(rmax, dtype=np.float64), 0.0)
    h1 = np.maximum(h1, l1 + RANGE_FLOOR)
    levels = float(2**bits - 1)
    z = np.round(-l1 * levels / (h1 - l1))
    untuned = (z == 0.0) | (z == levels)
    zsafe = np.where(untuned, 1.0, z)
    t = (zsafe - levels) / zsafe
    h2 = t * l1
    l2 = h1 / t
    widen_high = (h2 - l1) > (h1 - l2)
    lo = np.where(untuned | widen_high, l1, l2)
    hi = np.where(untuned, h1, np.where(widen_high, h2, h1))
    return lo, hi, z


@serialize.register_hook_codec
class FakeQuantizer:
    """Quantize-dequantize transform with trainable range parameters.

    Ranges are set by ``observe`` and ``finalize``: over an explicit
    initialization pass, or lazily from the first tensor seen.
    """

    codec_kind = "fake_quant"
    codec_attrs = {
        "mode": MODE,
        "bits": BITS,
        "grid": GRID,
        "per_channel": BOOL,
        "initialized": BOOL,
        "init_scheme": INIT_SCHEME,
        "percentiles": PERCENTILES,
    }
    # runtime state, never saved: whether an initialization pass is collecting, and what it saw
    collecting = False
    _samples: Tuple[np.ndarray, ...] = ()

    def __init__(
        self,
        bits: int = 8,
        mode: str = "symmetric",
        grid: str = "signed_act",
        per_channel: bool = False,
        channels: Optional[int] = None,
        init_scheme: str = "minmax",
        percentiles: Tuple[float, float] = (0.1, 99.9),
    ):
        # the model-file reader's kinds, so that what is built can be saved and loaded
        for name, value in zip(("mode", "bits", "grid", "per_channel", "init_scheme", "percentiles"),
                               (mode, bits, grid, per_channel, init_scheme, percentiles)):
            check(self.codec_attrs[name], value, name)
        if per_channel and not channels:
            raise ValueError("per-channel quantizer needs a channel count")
        self.bits = bits
        self.mode = mode
        self.grid = grid
        self.per_channel = per_channel
        shape = (int(channels),) if per_channel else ()
        if mode == "symmetric":
            self.scale = Tensor(np.ones(shape), requires_grad=True)
        else:
            self.rmin = Tensor(np.full(shape, -1.0), requires_grad=True)
            self.rmax = Tensor(np.full(shape, 1.0), requires_grad=True)
        self.initialized = False
        self.init_scheme = init_scheme
        self.percentiles = (float(percentiles[0]), float(percentiles[1]))

    # -- range initialization ---------------------------------------------

    def observe(self, arr: np.ndarray):
        """Keep a tensor's values: one row per output channel, or one row in all."""
        arr = np.asarray(arr, dtype=np.float64)
        self._samples += (arr.reshape(arr.shape[0] if self.per_channel else 1, -1),)

    def finalize(self):
        """Set ranges from every observed value, by min/max or the configured percentiles."""
        if not self._samples:
            raise RuntimeError("quantizer saw no data during range initialization")
        values = np.concatenate(self._samples, axis=1)
        if self.init_scheme == "percentile":
            lo, hi = np.quantile(values, [p / 100.0 for p in self.percentiles], axis=1)
            am = np.maximum(np.abs(lo), np.abs(hi))
        else:
            lo, hi, am = values.min(axis=1), values.max(axis=1), np.abs(values).max(axis=1)
        if not self.per_channel:
            lo, hi, am = lo[0], hi[0], am[0]
        self._set_range(lo, hi, am)
        self.collecting = False
        self._samples = ()

    def init_from_array(self, arr: np.ndarray):
        """Set ranges straight from one array's values."""
        self.observe(arr)
        self.finalize()

    def _set_range(self, lo, hi, absmax):
        if self.mode == "symmetric":
            self.scale.data[...] = np.maximum(absmax, RANGE_FLOOR)
        else:
            self.rmin.data[...] = lo
            self.rmax.data[...] = np.maximum(hi, lo + RANGE_FLOOR)
        self.initialized = True

    # -- forward -----------------------------------------------------------

    def __call__(self, t: Tensor, ctx=None) -> Tensor:
        if self.collecting:
            self.observe(t.data)
            return t
        if not self.initialized:
            self.init_from_array(t.data)
        if self.mode == "symmetric":
            return self._quantize_symmetric(t)
        return self._quantize_asymmetric(t)

    def _quantize_symmetric(self, t: Tensor) -> Tensor:
        q_min, q_max = quant_grid(self.bits, self.grid)
        return T.fake_quant(t, self.scale, float(q_min), float(q_max), RANGE_FLOOR)

    def _quantize_asymmetric(self, t: Tensor) -> Tensor:
        levels = float(2**self.bits - 1)
        lo, hi, z = tune_asymmetric_range(self.rmin.data, self.rmax.data, self.bits)
        # tuned bounds ride on the raw trainables so boundary gradients land on
        # them; anchoring at the integer zero point (not at lo) keeps 0 -> 0
        # exact even when range tuning leaves the raw bounds untouched
        return T.fake_quant_asymmetric(
            t, self.rmin, self.rmax, lo - self.rmin.data, hi - self.rmax.data, (hi - lo) / levels, z
        )

    # -- bookkeeping -------------------------------------------------------

    @property
    def codec_params(self) -> Tuple[str, ...]:
        return ("scale",) if self.mode == "symmetric" else ("rmin", "rmax")

    def describe(self) -> str:
        span = "per-channel" if self.per_channel else "per-tensor"
        return f"fake-quant {self.mode} {self.grid} {self.bits}b {span}"

    def select_channels(self, keep_out: np.ndarray, keep_in: np.ndarray):
        """Drop the per-channel range entries of removed filters."""
        if self.per_channel:
            for p in [getattr(self, name) for name in self.codec_params]:
                p.data = p.data[keep_out].copy()

    def fits(self, shape) -> bool:  # 0-d ranges, or one per filter of a conv weight (an activation's axis 0: the batch)
        want = tuple(shape[:1]) if self.per_channel else ()
        ranges = [getattr(self, name) for name in self.codec_params]
        return (len(shape) == 4 or not self.per_channel) and all(p.shape == want for p in ranges)


# -- insertion policy ------------------------------------------------------


def insert_quantizers(graph: ModelGraph, spec: QuantizationSpec) -> dict:
    """Attach fake quantizers per the standard placement policy.

    Every convolution and fully connected layer gets a weight quantizer.
    Activation quantizers go on the network input and on each
    value-producing node that is not inside a fused chain
    (``graph.FUSED_CHAINS``: only a chain's last node keeps its output
    quantizer); outputs of ReLU use an unsigned grid, everything else a
    signed one.
    """
    chains = graph.chains(FUSED_CHAINS)
    hidden = {node.id for chain in chains.values() for node in chain[:-1]}
    weights: Dict[str, FakeQuantizer] = {}
    activations: Dict[str, FakeQuantizer] = {}

    def act_quantizer(grid: str) -> FakeQuantizer:
        return FakeQuantizer(
            bits=spec.bits,
            mode=spec.mode,
            grid=grid,
            init_scheme=spec.init.type,
            percentiles=(spec.init.min_percentile, spec.init.max_percentile),
        )

    fq_in = act_quantizer("signed_act")
    graph.insert_hook(Hook(INPUT_ID, HookPosition.POST_OUTPUT, FAMILY, fq_in))
    activations[INPUT_ID] = fq_in

    for node in graph.nodes.values():
        if node.kind in WEIGHTED_KINDS:
            per_ch = spec.per_channel and node.kind == "Conv2D"
            fq = FakeQuantizer(
                bits=spec.bits,
                mode=spec.mode,
                grid="weight",
                per_channel=per_ch,
                channels=node.attrs["out_channels"] if per_ch else None,
            )
            graph.insert_hook(Hook(node.id, HookPosition.PRE_PARAM, FAMILY, fq, param_name="weight"))
            weights[node.id] = fq
        if node.kind in VALUE_PRODUCING_KINDS and node.id not in hidden:
            fq = act_quantizer("unsigned_act" if node.kind == "ReLU" else "signed_act")
            graph.insert_hook(Hook(node.id, HookPosition.POST_OUTPUT, FAMILY, fq))
            activations[node.id] = fq

    # each weighted layer's output reaches the activation quantizer at the end of its chain, or its own
    ends = {nid: chains[nid][-1].id if nid in chains else nid for nid in weights}
    mirror = {nid: end if end in activations else None for nid, end in ends.items()}
    return {"weight": weights, "activation": activations, "mirror": mirror}


def initialize_quantizer_ranges(graph: ModelGraph, batches=None, num_batches: Optional[int] = None):
    """Set quantizer ranges: weights from their tensors, activations from data.

    Activation ranges are observed over the first ``num_batches`` batches
    (all of them when None).  With no batches, activation quantizers stay
    lazy and adopt ranges from the first batch they see.
    """
    act_qs = []
    for h in graph.hooks:
        if h.family != FAMILY or not isinstance(h.transform, FakeQuantizer):
            continue
        if h.position is HookPosition.PRE_PARAM:
            h.transform.init_from_array(graph.nodes[h.node_id].params[h.param_name].data)
        else:
            act_qs.append(h.transform)
    if batches is None or not act_qs:
        return
    for q in act_qs:
        q.collecting = True
    for batch in itertools.islice(batches, num_batches):
        graph.run(Tensor(np.asarray(batch, dtype=np.float64)), mode="eval")
    for q in act_qs:
        q.finalize()


# -- algorithm wiring ------------------------------------------------------


@dataclass
class QuantizationInitSpec(Spec):
    num_batches: Optional[int] = setting(POSITIVE, None)  # None: every init batch
    type: str = setting(INIT_SCHEME, "minmax")
    min_percentile: float = setting(PERCENT, 0.1)
    max_percentile: float = setting(PERCENT, 99.9)

    def __post_init__(self):
        super().__post_init__()
        if not PERCENTILES[0]((self.min_percentile, self.max_percentile)):
            raise SpecError("min_percentile", f"must not exceed max_percentile {self.max_percentile}, "
                            f"got {self.min_percentile}")


@dataclass
class MixedPrecisionSpec(Spec):
    candidate_bits: Tuple[int, ...] = setting(CANDIDATE_BITS, (2, 4, 8))
    ratio_threshold: float = setting(FINITE_POSITIVE, 1.5)
    trace_samples: int = setting(POSITIVE, 32)
    seed: Optional[int] = setting(COUNT, None)  # None: the config's top-level seed
    direction: str = setting(DIRECTION, "at_least")


@dataclass
class QuantizationSpec(Spec):
    mode: str = setting(MODE, "symmetric")
    bits: int = setting(BITS, 8)
    per_channel: bool = True
    init: QuantizationInitSpec = field(default_factory=QuantizationInitSpec)
    mixed_precision: Optional[MixedPrecisionSpec] = None  # None: one bit width everywhere


class QuantizationController(CompressionController):
    name = FAMILY

    def __init__(self, graph: ModelGraph, handles: dict, spec: QuantizationSpec):
        super().__init__(graph)
        self.handles = handles
        self.spec = spec
        self.bit_config: Optional[Dict[str, int]] = None
        self.mixed_precision_plan = None

    def initialize(self, batches, seed):
        """Set ranges from the init batches, then, with a ``mixed_precision``
        section, plan bit widths on the first labeled batch."""
        initialize_quantizer_ranges(self.graph, [x for x, _ in batches] or None, self.spec.init.num_batches)
        mp = self.spec.mixed_precision
        if mp is None:
            return
        labeled = [(x, y) for x, y in batches if y is not None]
        if not labeled:
            raise ConfigError("mixed precision search needs labeled init data")
        x, y = labeled[0]
        xt = Tensor(x)
        plan = plan_mixed_precision(
            self.graph, self.handles["weight"], lambda: cross_entropy(self.graph.run(xt), y), mp,
            seed=seed if mp.seed is None else mp.seed,
        )
        self.apply_bit_config(plan.assignment)
        self.mixed_precision_plan = plan

    def apply_bit_config(self, plan: Dict[str, int]):
        """Assign per-layer weight bit widths; output quantizers follow."""
        for nid, bits in plan.items():
            if nid not in self.handles["weight"]:
                raise KeyError(f"no weight quantizer on layer {nid!r}")
            self.handles["weight"][nid].bits = int(bits)
            mirrored = self.handles["mirror"].get(nid)
            if mirrored is not None:
                self.handles["activation"][mirrored].bits = int(bits)
        self.bit_config = {k: int(v) for k, v in plan.items()}

    def statistics(self) -> dict:
        def describe(q: FakeQuantizer) -> dict:
            d = {"bits": q.bits, "mode": q.mode, "grid": q.grid, "per_channel": q.per_channel,
                 "initialized": q.initialized}
            if q.initialized:
                if q.mode == "symmetric":
                    d["scale"] = np.asarray(q.scale.data).tolist()
                else:
                    d["range"] = [np.asarray(q.rmin.data).tolist(), np.asarray(q.rmax.data).tolist()]
            return d

        stats = {
            "weight_quantizers": {nid: describe(q) for nid, q in self.handles["weight"].items()},
            "activation_quantizers": {nid: describe(q) for nid, q in self.handles["activation"].items()},
        }
        if self.bit_config is not None:
            stats["bit_config"] = dict(self.bit_config)
        return stats


class QuantizationBuilder(CompressionBuilder):
    name = FAMILY
    spec_class = QuantizationSpec

    def apply_to(self, graph: ModelGraph) -> QuantizationController:
        return QuantizationController(graph, insert_quantizers(graph, self.spec), self.spec)
