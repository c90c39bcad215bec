"""Per-layer metrics, computed from the spans of the traced rounds.

Each span gets a phase from its nearest enclosing span that opens one:
set-up, fine-tuning (``train``), validation inside fine-tuning (``val``),
the timed evaluation of exported models (``eval``), planning (``plan``),
export round trips (``export``) or the benchmark's own checks.  A "step"
is one optimizer step of ``train_model``; an "eval batch" is one
eval-mode graph run of the timed evaluation.
"""

from __future__ import annotations

import numpy as np

# (name, unit, better); the order is the report's order
METRICS = [
    ("tensor.backward_ms_per_step", "ms", "lower"),
    ("tensor.tape_nodes_per_step", "count", "lower"),
    ("tensor.tape_mb_per_step", "MB", "lower"),
    ("tensor.matmul_self_ms_per_step", "ms", "lower"),
    ("tensor.im2col_self_ms_per_step", "ms", "lower"),
    ("tensor.broadcast_to_self_ms_per_step", "ms", "lower"),
    ("tensor.elementwise_self_ms_per_step", "ms", "lower"),
    ("tensor.matmul_self_ms_per_eval_batch", "ms", "lower"),
    ("tensor.im2col_self_ms_per_eval_batch", "ms", "lower"),
    ("tensor.broadcast_to_self_ms_per_eval_batch", "ms", "lower"),
    ("tensor.elementwise_self_ms_per_eval_batch", "ms", "lower"),
    ("tensor.grad_ms_per_probe", "ms", "lower"),
    ("tensor.create_graph_grad_ms_per_layer", "ms", "lower"),
    ("graph.run_train_ms_per_step", "ms", "lower"),
    ("graph.hook_calls_per_step", "count", "lower"),
    ("graph.run_eval_ms_per_batch", "ms", "lower"),
    ("graph.copy_ms_per_export", "ms", "lower"),
    ("quantization.act_hook_ms_per_step", "ms", "lower"),
    ("quantization.weight_hook_ms_per_step", "ms", "lower"),
    ("quantization.hook_ms_per_eval_batch", "ms", "lower"),
    ("quantization.init_ranges_ms", "ms", "lower"),
    ("sparsity.mask_hook_ms_per_step", "ms", "lower"),
    ("sparsity.schedule_ms_per_epoch", "ms", "lower"),
    ("pruning.propagate_ms", "ms", "lower"),
    ("pruning.strip_ms", "ms", "lower"),
    ("binarization.hook_ms_per_eval_batch", "ms", "lower"),
    ("mixed_precision.trace_s_per_layer", "s", "lower"),
    ("mixed_precision.probes_per_plan", "count", "lower"),
    ("mixed_precision.quant_error_ms_per_plan", "ms", "lower"),
    ("mixed_precision.search_ms_per_plan", "ms", "lower"),
    ("mixed_precision.sys_s_per_plan", "s", "lower"),
    ("mixed_precision.minor_faults_per_plan", "count", "lower"),
    ("serialize.serialize_ms", "ms", "lower"),
    ("serialize.deserialize_ms", "ms", "lower"),
    ("serialize.manifest_bytes", "bytes", "lower"),
    ("serialize.blob_bytes", "bytes", "lower"),
    ("api.create_compressed_model_ms", "ms", "lower"),
    ("api.export_model_ms", "ms", "lower"),
    ("api.export_graph_ms", "ms", "lower"),
    ("api.compression_loss_ms_per_step", "ms", "lower"),
    ("train.sgd_step_ms_per_step", "ms", "lower"),
    ("train.schedulers_ms_per_step", "ms", "lower"),
    ("train.loss_ms_per_step", "ms", "lower"),
    ("train.validation_ms_per_epoch", "ms", "lower"),
    ("train.step_ms_p50", "ms", "lower"),
    ("train.step_ms_p90", "ms", "lower"),
    ("train.minor_faults_per_step", "count", "lower"),
    ("train.sys_ms_per_step", "ms", "lower"),
    ("train.gc_ms_per_step", "ms", "lower"),
    ("train.gc_objects_per_step", "count", "lower"),
    ("data.make_dataset_ms", "ms", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
]

PHASE_SPANS = {
    "bench.setup": "setup",
    "bench.checks": "checks",
    "bench.roundtrip": "export",
    "bench.eval": "eval",
    "bench.plan": "plan_op",
    "train.train_model": "train",
    "mixed_precision.plan_mixed_precision": "plan",
}

ELEMENTWISE = ("add", "sub", "mul", "div", "maximum", "minimum", "round_ste")


class Spans:
    """Span table of one trace with phase and enclosing eval batch per span."""

    def __init__(self, tracer):
        self.names = tracer.names
        self.name, self.parent, self.dur, self.self_time = tracer.table()
        self.start = np.frombuffer(tracer.start, dtype=np.float64)
        n = len(self.name)
        phase_ids = {"": 0}
        phase = np.zeros(n, dtype=np.int32)
        batch = np.full(n, -1, dtype=np.int64)
        defines = {}
        for i, nm in enumerate(self.names):
            if nm in PHASE_SPANS:
                defines[i] = phase_ids.setdefault(PHASE_SPANS[nm], len(phase_ids))
        val = phase_ids.setdefault("val", len(phase_ids))
        train = phase_ids.setdefault("train", len(phase_ids))
        evaluate = self.names.index("train.evaluate") if "train.evaluate" in self.names else -1
        eval_run = self.names.index("graph.run[eval]") if "graph.run[eval]" in self.names else -1
        for i in range(n):
            p = self.parent[i]
            nid = self.name[i]
            inherited = phase[p] if p >= 0 else 0
            if nid in defines:
                phase[i] = defines[nid]
            elif nid == evaluate and inherited == train:
                phase[i] = val
            else:
                phase[i] = inherited
            batch[i] = i if nid == eval_run else (batch[p] if p >= 0 else -1)
        self.phase, self.batch, self.phase_ids = phase, batch, phase_ids

    def select(self, name, *phases):
        """Spans of one name, within any of the given phases (all phases if none)."""
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        mask = self.name == self.names.index(name)
        if phases:
            mask &= np.isin(self.phase, [self.phase_ids.get(p, -1) for p in phases])
        return mask

    def prefixed(self, prefix, phase):
        ids = [i for i, nm in enumerate(self.names) if nm.startswith(prefix)]
        return np.isin(self.name, ids) & (self.phase == self.phase_ids.get(phase, -1))

    def count(self, name, *phases) -> int:
        return int(self.select(name, *phases).sum())

    def total_ms(self, name, *phases, self_only=False) -> float:
        values = self.self_time if self_only else self.dur
        return 1e3 * float(values[self.select(name, *phases)].sum())

    def mean_ms(self, name, *phases) -> float:
        return self.total_ms(name, *phases) / max(1, self.count(name, *phases))


def _per(num, den):
    return num / den if den else 0.0


def compute(tracer, ops, rounds: int, overhead_pct: float) -> dict:
    """Every per-layer metric from a tracer and the operation results of its ``rounds`` traced rounds."""
    s = Spans(tracer)
    steps = s.count("train.SGD.step", "train")
    epochs = s.count("api.scheduler_epoch_step", "train")
    batches = s.count("graph.run[eval]", "eval")
    plans = s.count("mixed_precision.plan_mixed_precision", "plan")
    exports = s.count("api.export_model", "export") + s.count("api.export_graph", "export")
    m = {}

    backward = s.select("tensor.backward", "train")
    tape = np.array(tracer.tape, dtype=np.float64).reshape(-1, 2)
    m["tensor.backward_ms_per_step"] = _per(1e3 * s.dur[backward].sum(), steps)
    m["tensor.tape_nodes_per_step"] = _per(tape[:, 0].sum(), steps)
    m["tensor.tape_mb_per_step"] = _per(tape[:, 1].sum() / 1e6, steps)
    for phase, suffix, den in (("train", "per_step", steps), ("eval", "per_eval_batch", batches)):
        for op in ("matmul", "im2col", "broadcast_to"):
            m[f"tensor.{op}_self_ms_{suffix}"] = _per(s.total_ms(f"tensor.{op}", phase, self_only=True), den)
        elementwise = sum(s.total_ms(f"tensor.{op}", phase, self_only=True) for op in ELEMENTWISE)
        m[f"tensor.elementwise_self_ms_{suffix}"] = _per(elementwise, den)
    m["tensor.grad_ms_per_probe"] = s.mean_ms("tensor.grad", "plan")
    m["tensor.create_graph_grad_ms_per_layer"] = s.mean_ms("tensor.grad[create_graph]", "plan")

    m["graph.run_train_ms_per_step"] = _per(s.total_ms("graph.run[train]", "train"), steps)
    hook_ids = [i for i, nm in enumerate(s.names) if ".hook" in nm]
    train_hooks = np.isin(s.name, hook_ids) & (s.phase == s.phase_ids["train"])
    m["graph.hook_calls_per_step"] = _per(int(train_hooks.sum()), steps)
    m["graph.run_eval_ms_per_batch"] = _per(s.total_ms("graph.run[eval]", "eval"), batches)
    m["graph.copy_ms_per_export"] = _per(s.total_ms("graph.copy", "export"), exports)

    def hook_ms(prefix, phase):
        return 1e3 * float(s.dur[s.prefixed(prefix, phase)].sum())

    def hooked_batches(prefix):
        sel = s.prefixed(prefix, "eval")
        return len(set(s.batch[sel].tolist()) - {-1})

    m["quantization.act_hook_ms_per_step"] = _per(hook_ms("quantization.hook.act", "train"), steps)
    m["quantization.weight_hook_ms_per_step"] = _per(hook_ms("quantization.hook.weight", "train"), steps)
    m["quantization.hook_ms_per_eval_batch"] = _per(hook_ms("quantization.hook", "eval"), hooked_batches("quantization.hook"))
    inits = s.select("quantization.initialize_quantizer_ranges", "setup", "", "plan_op")
    m["quantization.init_ranges_ms"] = _per(1e3 * float(s.dur[inits].sum()), int(inits.sum()))
    m["sparsity.mask_hook_ms_per_step"] = _per(hook_ms("sparsity.hook.mask", "train"), steps)
    m["sparsity.schedule_ms_per_epoch"] = _per(
        s.total_ms("sparsity.MagnitudeSparsityScheduler.epoch_step", "train"), epochs
    )
    m["pruning.propagate_ms"] = s.mean_ms("pruning.propagate_pruning_masks", "export")
    m["pruning.strip_ms"] = s.mean_ms("pruning.strip_pruned_filters", "export")
    m["binarization.hook_ms_per_eval_batch"] = _per(hook_ms("binarization.hook", "eval"), hooked_batches("binarization.hook"))

    plan_ops = [r for r in ops if r.plan_s is not None]
    m["mixed_precision.trace_s_per_layer"] = s.mean_ms("mixed_precision.estimate_hessian_trace", "plan") / 1e3
    m["mixed_precision.probes_per_plan"] = _per(s.count("tensor.grad", "plan"), plans)
    m["mixed_precision.quant_error_ms_per_plan"] = _per(s.total_ms("mixed_precision.quantization_error", "plan"), plans)
    m["mixed_precision.search_ms_per_plan"] = _per(s.total_ms("mixed_precision.select_bitwidth_config", "plan"), plans)
    m["mixed_precision.sys_s_per_plan"] = _per(sum(r.sys_s for r in plan_ops), len(plan_ops))
    m["mixed_precision.minor_faults_per_plan"] = _per(sum(r.faults for r in plan_ops), len(plan_ops))

    m["serialize.serialize_ms"] = s.mean_ms("serialize.serialize_model", "export")
    m["serialize.deserialize_ms"] = s.mean_ms("serialize.deserialize_model", "export")
    m["serialize.manifest_bytes"] = _per(sum(r.manifest_bytes for r in ops), rounds)
    m["serialize.blob_bytes"] = _per(sum(r.blob_bytes for r in ops), rounds)

    creates = s.select("api.create_compressed_model", "setup", "")
    m["api.create_compressed_model_ms"] = _per(1e3 * float(s.dur[creates].sum()), int(creates.sum()))
    m["api.export_model_ms"] = s.mean_ms("api.export_model", "export")
    m["api.export_graph_ms"] = s.mean_ms("api.export_graph", "export")
    m["api.compression_loss_ms_per_step"] = _per(s.total_ms("api.total_compression_loss", "train"), steps)

    train_ops = [r for r in ops if r.steps]
    op_steps = sum(r.steps for r in train_ops)
    m["train.sgd_step_ms_per_step"] = _per(s.total_ms("train.SGD.step", "train"), steps)
    m["train.schedulers_ms_per_step"] = _per(
        s.total_ms("api.scheduler_step", "train") + s.total_ms("api.scheduler_epoch_step", "train"), steps
    )
    m["train.loss_ms_per_step"] = _per(s.total_ms("util.cross_entropy", "train"), steps)
    m["train.validation_ms_per_epoch"] = _per(s.total_ms("train.evaluate", "val"), s.count("train.evaluate", "val"))
    step_ms = _step_times(s)
    m["train.step_ms_p50"] = float(np.percentile(step_ms, 50)) if len(step_ms) else 0.0
    m["train.step_ms_p90"] = float(np.percentile(step_ms, 90)) if len(step_ms) else 0.0
    m["train.minor_faults_per_step"] = _per(sum(r.faults for r in train_ops), op_steps)
    m["train.sys_ms_per_step"] = _per(1e3 * sum(r.sys_s for r in train_ops), op_steps)
    in_training = {s.phase_ids["train"], s.phase_ids["val"]}
    gc_train = [(sec, n) for sec, n, span in tracer.gc_events if span >= 0 and s.phase[span] in in_training]
    m["train.gc_ms_per_step"] = _per(1e3 * sum(sec for sec, _ in gc_train), steps)
    m["train.gc_objects_per_step"] = _per(sum(n for _, n in gc_train), steps)
    m["data.make_dataset_ms"] = s.mean_ms("data.make_dataset", "setup")
    m["bench.trace_overhead_pct"] = overhead_pct
    return m


def _step_times(s: Spans) -> np.ndarray:
    """Wall time of each training step: train-mode forward start to scheduler step end."""
    loops = np.nonzero(s.select("train.train_model"))[0]
    starts = np.nonzero(s.select("graph.run[train]") & np.isin(s.parent, loops))[0]
    ends = np.nonzero(s.select("api.scheduler_step") & np.isin(s.parent, loops))[0]
    if len(starts) != len(ends):
        return np.zeros(0)
    return 1e3 * (s.start[ends] + s.dur[ends] - s.start[starts])
