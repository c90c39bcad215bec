"""Per-layer bit width selection driven by Hessian sensitivity.

Layers whose loss curvature is high keep more bits.  Curvature is measured
with a stochastic trace estimator (random probe vectors through a double
backward pass), sensitivity couples it to the quantization error at each
candidate width, and the final assignment is the cheapest one that honors
both a model-level compression ratio and the rule that a more sensitive
layer never gets fewer bits than a less sensitive one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

import numpy as np

from . import tensor as T
from .graph import ModelGraph
from .tensor import Tensor
from .util import INTEGER, check, derive_rng, one_of

if TYPE_CHECKING:  # quantization imports DIRECTION and TRACE_SAMPLES from here
    from .quantization import FakeQuantizer, MixedPrecisionSpec

BASELINE_BITS = 8
DIRECTION = one_of(("at_least", "at_most"))  # the ratio bound is a floor or a ceiling
# probes per layer, each a reverse sweep of the loss tape (2.4 ms on cnn-residual, batch 64, 2 CPUs): a plan
# there takes about 10 s at the ceiling, for 1/sqrt(32) of the default 32's standard error
MAX_TRACE_SAMPLES = 1024
TRACE_SAMPLES = (lambda v: INTEGER[0](v) and 1 <= v <= MAX_TRACE_SAMPLES,
                 f"an integer of at least 1 and at most {MAX_TRACE_SAMPLES}")


def estimate_hessian_trace(
    loss: Tensor, param: Tensor, num_samples: int = 32, rng: Optional[np.random.Generator] = None
) -> float:
    """Hutchinson estimate of tr(H) for the loss Hessian w.r.t. one parameter.

    Averages v'Hv over ``num_samples`` Rademacher probes; each Hv comes from
    differentiating the gradient a second time, seeded with v.  Every probe
    sweeps the same gradient tape, so all of them share one prepared sweep.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    (g,) = T.grad(loss, [param], create_graph=True)
    total = 0.0
    for _ in range(num_samples):
        v = rng.integers(0, 2, size=param.shape).astype(np.float64) * 2.0 - 1.0
        (hv,) = T.grad(g, [param], grad_output=v)
        total += float(np.sum(v * hv.data))
    return total / num_samples


def quantization_error(weight: np.ndarray, quantizer: FakeQuantizer, bits: int) -> float:
    """Squared distance between a weight tensor and its quantized image."""
    saved = quantizer.bits
    quantizer.bits = int(bits)
    try:
        with T.no_grad():
            q = quantizer(Tensor(weight)).data
    finally:
        quantizer.bits = saved
    return float(np.sum((q - weight) ** 2))


@dataclass
class LayerProfile:
    node_id: str
    avg_trace: float
    flops: int
    errors: Dict[int, float]  # candidate bits -> squared quantization error

    def sensitivity(self, bits: int) -> float:
        return self.avg_trace * self.errors[bits]


@dataclass
class MixedPrecisionPlan:
    assignment: Dict[str, int]
    achieved_ratio: float
    metric: float
    profiles: List[LayerProfile] = field(default_factory=list)


def select_bitwidth_config(
    profiles: List[LayerProfile],
    target_ratio: float,
    bit_choices: Iterable[int] = (2, 4, 8),
    direction: str = "at_least",
) -> MixedPrecisionPlan:
    """Pick per-layer bits minimizing total sensitivity under a ratio bound.

    The compression ratio is flop-weighted: ratio = sum(f*8) / sum(f*bits).
    Only monotone assignments are searched, so layers ordered by rising
    curvature receive non-decreasing bit widths.  Ties break toward the
    lower metric, then the higher total bit count, then the
    lexicographically smaller assignment.
    """
    check(DIRECTION, direction, "direction")
    if not profiles:
        raise ValueError("no quantized layers to assign bits to")
    choices = sorted(set(int(b) for b in bit_choices))
    order = sorted(range(len(profiles)), key=lambda i: (profiles[i].avg_trace, i))
    ordered = [profiles[i] for i in order]
    flops = np.array([p.flops for p in ordered], dtype=np.float64)
    base = float(np.sum(flops * BASELINE_BITS))

    best = None
    best_key = None
    for bits in combinations_with_replacement(choices, len(ordered)):
        ratio = base / float(np.sum(flops * np.array(bits, dtype=np.float64)))
        if direction == "at_least" and ratio < target_ratio:
            continue
        if direction == "at_most" and ratio > target_ratio:
            continue
        metric = sum(p.sensitivity(b) for p, b in zip(ordered, bits))
        key = (metric, -sum(bits), bits)
        if best_key is None or key < best_key:
            best_key = key
            best = (bits, ratio, metric)
    if best is None:
        bound = "at least" if direction == "at_least" else "at most"
        raise ValueError(
            f"no bit assignment from {choices} reaches a compression ratio {bound} {target_ratio}"
        )
    bits, ratio, metric = best
    assignment = {p.node_id: b for p, b in zip(ordered, bits)}
    return MixedPrecisionPlan(assignment=assignment, achieved_ratio=ratio, metric=metric, profiles=ordered)


def plan_mixed_precision(
    graph: ModelGraph,
    weight_quantizers: Dict[str, FakeQuantizer],
    loss_builder: Callable[[], Tensor],
    spec: MixedPrecisionSpec,
    seed: int,
) -> MixedPrecisionPlan:
    """Profile every weight-quantized layer and choose its bit width.

    Trace probes for layer k draw from an independent sub-stream of
    ``seed``, so the estimate for one layer is unaffected by how many
    samples the others used.
    """
    flops = graph.flops_per_node()
    loss = loss_builder()
    profiles = []
    for index, (nid, fq) in enumerate(weight_quantizers.items()):
        w = graph.nodes[nid].params["weight"]
        trace = estimate_hessian_trace(loss, w, num_samples=spec.trace_samples, rng=derive_rng(seed, index))
        errors = {int(b): quantization_error(w.data, fq, b) for b in spec.candidate_bits}
        profiles.append(LayerProfile(node_id=nid, avg_trace=trace / w.size, flops=flops[nid], errors=errors))
    return select_bitwidth_config(profiles, spec.ratio_threshold, spec.candidate_bits, spec.direction)
