"""Operations, workloads and checks of the nncompress benchmark.

Every workload runs rounds of three kinds of operation, each ending with
the same deployment step (export through both export paths, reload,
evaluate on a held-out set):

* ``finetune``: compression-aware fine-tuning of ``cnn-residual`` under
  ``configs/int8_sparse50.json`` with ``train_model``'s defaults;
* ``plan``: one Hessian-guided bit-width plan under
  ``configs/mixed_precision.json``;
* ``deploy``: a model compressed by another config during set-up.

Each workload reports every end-to-end metric, so each runs every kind of
operation; they differ in how much of each a round holds, so that each is
dominated by the layer it is named after.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

import reference as ref

MODEL = "cnn-residual"
DATASET = "stripes"
JOB_SAMPLES = 512  # per fine-tune job, split 80/20 into train and validation
TRAIN_BATCH = 32  # train_model's default
INIT_BATCH = 32  # samples per range-initialization batch; four batches
CHECK_SAMPLES = 256  # held-out samples whose logits are checked one by one
SCHEDULE_EPOCHS = 12  # epoch steps that bring every config's schedule to its end
SETUP_REPEATS = 9
EXPORT_CYCLES = 5  # export -> write -> load through both paths, per exported model
QAT_CONFIG = "int8_sparse50"
PLAN_CONFIG = "mixed_precision"
MIN_ACCURACY = 0.9
REFERENCE_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: Tuple[Tuple[int, int], ...]  # (job seed, epochs) per fine-tune job
    plans: int  # plans per round, each with its own probe seed
    eval_samples: int  # held-out set every exported model is evaluated on


# Fine-tune jobs use fixed seeds, not the workload seed: job 0 collapses to
# chance on every run (output quantizer pinned at its clip bound), jobs 4 and
# 5 reach accuracy 1.0 in their first epoch.  The workload seed draws the
# held-out sets, the plan and deploy models, their data and the probe seeds.
WORKLOADS = {
    "qat_finetune": Workload("qat_finetune", jobs=((0, 4), (4, 4), (5, 4)), plans=2, eval_samples=1024),
    "mixed_precision_plan": Workload("mixed_precision_plan", jobs=((5, 1),), plans=2, eval_samples=1024),
    "deploy_inference": Workload("deploy_inference", jobs=((5, 3),), plans=2, eval_samples=8192),
}

SHORT = {"epochs": 1, "eval_samples": 128}


def rusage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_minflt, r.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- per-operation results ---------------------------------------------------


@dataclass
class OpResult:
    op: str
    failures: List[str] = field(default_factory=list)
    digest: str = ""
    train_samples: int = 0  # per epoch
    epoch_s: List[float] = field(default_factory=list)  # wall seconds per epoch, validation included
    evals: Tuple[int, float] = (0, 0.0)  # samples, seconds
    cycle_s: List[float] = field(default_factory=list)  # wall seconds per export cycle through both paths
    plan_s: Optional[float] = None
    model_bytes: int = 0
    manifest_bytes: int = 0
    blob_bytes: int = 0
    steps: int = 0
    faults: int = 0  # minor page faults during training or planning
    sys_s: float = 0.0

    def check(self, ok: bool, name: str):
        if not ok and name not in self.failures:
            self.failures.append(name)


class Bench:
    """State of one benchmark run: the program, its inputs and scratch files."""

    def __init__(self, nnc, root: str, workload: Workload, seed: int, workdir: str, short: bool = False, tracer=None):
        self.nnc = nnc
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.short = short
        self.tracer = tracer
        self.tracing = False
        self.first_round_rss_mb = None
        self.configs = {}
        for fname in sorted(os.listdir(os.path.join(root, "configs"))):
            if fname.endswith(".json"):
                with open(os.path.join(root, "configs", fname)) as fh:
                    self.configs[fname[:-5]] = json.load(fh)
        self._hessian = None
        self._macs = None

    # -- helpers ---------------------------------------------------------

    def span(self, name):
        return self.tracer.span(name) if self.tracing else nullcontext()

    def traced_hooks(self, graph):
        return self.tracer.hooks_traced(graph) if self.tracing else nullcontext()

    def epochs(self, epochs: int) -> int:
        return SHORT["epochs"] if self.short else epochs

    def init_batches(self, x, y):
        return [(x[i : i + INIT_BATCH], y[i : i + INIT_BATCH]) for i in range(0, 4 * INIT_BATCH, INIT_BATCH)]

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """Data sets and compressed models for every operation of a round."""
        nnc, seed = self.nnc, self.seed
        n_eval = SHORT["eval_samples"] if self.short else self.workload.eval_samples
        self.eval_x, self.eval_y = nnc.make_dataset(DATASET, n_eval, seed=10_000 + seed)
        self.check_x, self.check_y = self.eval_x[:CHECK_SAMPLES], self.eval_y[:CHECK_SAMPLES]
        self.jobs = {}
        for job_seed, _ in self.workload.jobs:
            x, y = nnc.make_dataset(DATASET, JOB_SAMPLES, seed=job_seed)
            train, val = nnc.train_val_split(x, y, seed=job_seed)
            self.jobs[job_seed] = (train, val, self.init_batches(*train))
        x, y = nnc.make_dataset(DATASET, JOB_SAMPLES, seed=seed)
        self.init = self.init_batches(x, y)
        self.plan_graph = nnc.build_model(MODEL, seed)
        self.deploy_models = []
        names = [n for n in self.configs if n != PLAN_CONFIG] + ["uncompressed"]
        for name in names:
            config = self.configs.get(name, {})
            controllers, model = nnc.create_compressed_model(nnc.build_model(MODEL, seed), config, self.init)
            rng = np.random.default_rng([seed, 7])
            for ctrl in controllers:
                if ctrl.name == "rb_sparsity":
                    # closes about half of the gates, as training to the 50% target would
                    for gate in ctrl.gates.values():
                        gate.scores.data = rng.normal(size=gate.scores.shape)
                if ctrl.name == "binarization":
                    # nonzero thresholds, as after training: at the initial zero
                    # thresholds, exact-zero ReLU outputs sit on the step's edge,
                    # where float summation order alone decides the output
                    for _, act in ctrl.handles.values():
                        act.thresholds.data = rng.uniform(0.25, 0.75, size=act.thresholds.shape)
            for _ in range(SCHEDULE_EPOCHS):
                nnc.scheduler_epoch_step(controllers)
            self.deploy_models.append((name, config, controllers, model))

    def round_ops(self):
        ops = [("finetune", job_seed, epochs) for job_seed, epochs in self.workload.jobs]
        ops += [("plan", 1000 * self.seed + k) for k in range(self.workload.plans)]
        ops += [("deploy", i) for i in range(len(self.deploy_models))]
        return ops

    def run_op(self, op) -> OpResult:
        kind = op[0]
        with self.span("bench." + kind):
            try:
                if kind == "finetune":
                    return self.finetune(*op[1:])
                if kind == "plan":
                    return self.plan(op[1])
                name, config, controllers, model = self.deploy_models[op[1]]
                res = OpResult(f"deploy:{name}")
                self.deploy(res, controllers, model, config)
                return res
            except Exception:  # an operation that raises has failed; the run goes on
                traceback.print_exc()
                res = OpResult(":".join(map(str, op)))
                res.check(False, "exception")
                return res

    # -- operations --------------------------------------------------------

    def finetune(self, job_seed: int, epochs: int) -> OpResult:
        nnc = self.nnc
        epochs = self.epochs(epochs)
        res = OpResult(f"finetune:{job_seed}")
        train, val, init = self.jobs[job_seed]
        config = self.configs[QAT_CONFIG]
        controllers, model = nnc.create_compressed_model(nnc.build_model(MODEL, job_seed), config, init)
        faults0, sys0 = rusage()
        stamps = [time.perf_counter()]
        try:
            with self.traced_hooks(model):
                history = nnc.train_model(model, controllers, train, val, epochs=epochs, seed=job_seed,
                                          on_epoch=lambda record: stamps.append(time.perf_counter()))
        except nnc.NumericError:
            res.check(False, "finite_loss")
            return res
        res.train_samples = len(train[0])
        res.epoch_s = list(np.diff(stamps))
        faults1, sys1 = rusage()
        res.faults, res.sys_s = faults1 - faults0, sys1 - sys0
        res.steps = epochs * math.ceil(len(train[0]) / TRAIN_BATCH)
        with self.span("bench.checks"):
            res.check(
                all(math.isfinite(r["task_loss"]) and math.isfinite(r["compression_loss"]) for r in history),
                "finite_loss",
            )
            sparsity = next(c for c in controllers if c.name == "magnitude_sparsity")
            quant = next(c for c in controllers if c.name == "quantization")
            res.check(self.sparsity_level_ok(model, sparsity, config, epochs - 1), "sparsity_level")
            res.check(weights_on_grid(nnc, model, quant), "weight_grid")
        logits = self.deploy(res, controllers, model, config, trained=model)
        acc, _ = ref.accuracy_and_loss(logits, self.check_y)
        res.check(acc >= MIN_ACCURACY, "accuracy")
        return res

    def plan(self, probe_seed: int) -> OpResult:
        nnc = self.nnc
        res = OpResult(f"plan:{probe_seed}")
        config = copy.deepcopy(self.configs[PLAN_CONFIG])
        section = config["compression"][0]
        section["mixed_precision"]["seed"] = probe_seed
        faults0, sys0 = rusage()
        start = time.perf_counter()
        controllers, model = nnc.create_compressed_model(self.plan_graph, config, self.init)
        res.plan_s = time.perf_counter() - start
        faults1, sys1 = rusage()
        res.faults, res.sys_s = faults1 - faults0, sys1 - sys0
        with self.span("bench.checks"):
            self.check_plan(res, controllers[0], section)
        self.deploy(res, controllers, model, config)
        return res

    def deploy(self, res: OpResult, controllers, model, config, trained=None) -> np.ndarray:
        """Export both ways, reload, evaluate; returns the reloaded model's check logits."""
        nnc = self.nnc
        path_a = os.path.join(self.workdir, "export.nncm")
        path_b = os.path.join(self.workdir, "from_checkpoint.nncm")
        path_c = os.path.join(self.workdir, "checkpoint.nncm")
        state = {"schedulers": {c.name: c.scheduler.state_dict() for c in controllers}}
        with self.span("bench.roundtrip"):
            for _ in range(EXPORT_CYCLES):
                start = time.perf_counter()
                exported = nnc.export_model(controllers, model, path_a)
                loaded, _ = nnc.load_model(path_a)
                nnc.save_checkpoint(model, path_c, config=config, epoch=0, state=state)
                restored, _ = nnc.load_checkpoint(path_c)
                nnc.export_graph(restored, path_b)
                nnc.load_model(path_b)
                res.cycle_s.append(time.perf_counter() - start)
        with self.span("bench.eval"), self.traced_hooks(loaded):
            start = time.perf_counter()
            acc, loss = nnc.evaluate(loaded, self.eval_x, self.eval_y)
            res.evals = (res.evals[0] + len(self.eval_x), res.evals[1] + time.perf_counter() - start)
        with self.span("bench.checks"):
            with open(path_a, "rb") as fh:
                data_a = fh.read()
            with open(path_b, "rb") as fh:
                data_b = fh.read()
            with open(path_c, "rb") as fh:
                checkpoint = ref.NNCMFile(fh.read())
            res.check(data_a == data_b, "export_paths")
            parsed = ref.NNCMFile(data_a)
            res.model_bytes += len(data_a)
            res.manifest_bytes += parsed.manifest_bytes
            res.blob_bytes += parsed.blob_bytes
            logits = batched_logits(nnc, loaded, self.check_x)
            res.check(np.array_equal(logits, batched_logits(nnc, exported, self.check_x)), "reload_logits")
            if trained is not None:
                res.check(np.array_equal(logits, batched_logits(nnc, trained, self.check_x)), "reload_logits")
            expected = ref.forward(parsed, self.check_x)
            res.check(np.max(np.abs(expected - logits)) <= REFERENCE_TOL * max(1.0, np.max(np.abs(logits))),
                      "reference_forward")
            got = nnc.evaluate(loaded, self.check_x, self.check_y)
            want = ref.accuracy_and_loss(logits, self.check_y)
            res.check(got[0] == want[0] and math.isclose(got[1], want[1], rel_tol=1e-12, abs_tol=1e-15), "evaluate")
            res.check(math.isfinite(loss) and 0.0 <= acc <= 1.0, "evaluate")
            for ctrl in controllers:
                if ctrl.name == "filter_pruning":
                    res.check(parsed.num_params() == ref.pruned_param_count(checkpoint), "pruned_params")
                if ctrl.name in ("magnitude_sparsity", "rb_sparsity"):
                    res.check(sparse_weights_match(parsed, ctrl), "sparse_zeros")
            res.digest = hashlib.sha256(
                data_a + logits.tobytes() + json.dumps([acc, loss]).encode() + res.digest.encode()
            ).hexdigest()
        return logits

    # -- checks --------------------------------------------------------------

    def sparsity_level_ok(self, model, ctrl, config, last_epoch: int) -> bool:
        sched = config["compression"][0]["schedule"]
        level = ref.polynomial_level(sched.get("init", 0.0), sched.get("target", 0.5), sched.get("epochs", 10),
                                     sched.get("power", 1.0), last_epoch)
        zeros = total = 0
        for nid, hook in ctrl.hooks.items():
            masked = model.nodes[nid].params["weight"].data * hook.mask.data
            zeros += int(np.count_nonzero(masked == 0))
            total += masked.size
        stats = ctrl.statistics()
        return (
            zeros == int(round(level * total))
            and math.isclose(stats["scheduled_level"], level, rel_tol=1e-12, abs_tol=1e-15)
            and stats["achieved_sparsity"] == zeros / total
        )

    def check_plan(self, res: OpResult, ctrl, section):
        mp = section["mixed_precision"]
        plan = ctrl.mixed_precision_plan
        choices = [int(b) for b in mp["candidate_bits"]]
        macs = self.plan_macs()
        layers = []
        errors_ok = True
        for prof in plan.profiles:
            w = self.plan_graph.nodes[prof.node_id].params["weight"].data
            scale = np.abs(w).max(axis=tuple(range(1, w.ndim))) if w.ndim == 4 else np.abs(w).max()
            for b in choices:
                mine = float(np.sum((ref.symmetric_fake_quant(w, scale, b, "weight") - w) ** 2))
                errors_ok &= math.isclose(prof.errors[b], mine, rel_tol=1e-12, abs_tol=1e-300)
            layers.append((prof.node_id, prof.avg_trace, macs[prof.node_id], prof.errors))
        res.check(errors_ok, "quant_errors")
        assignment = ref.best_monotone_assignment(
            layers, choices, float(mp["ratio_threshold"]), mp.get("direction", "at_least")
        )
        res.check(assignment == plan.assignment, "bit_assignment")
        base = sum(ref.BASELINE_BITS * macs[n] for n in plan.assignment)
        ratio = base / sum(b * macs[n] for n, b in plan.assignment.items())
        res.check(ratio >= float(mp["ratio_threshold"]) and math.isclose(ratio, plan.achieved_ratio, rel_tol=1e-12),
                  "ratio")
        hessian = self.stem_hessian(section)
        stem = next(p for p in plan.profiles if p.node_id == "stem")
        estimate = stem.avg_trace * hessian.shape[0]
        sd = ref.hutchinson_sd(hessian, int(mp["trace_samples"]))
        res.check(abs(estimate - np.trace(hessian)) <= 4.0 * sd, "hutchinson")
        res.digest = json.dumps([plan.assignment, [(p.node_id, p.avg_trace) for p in plan.profiles]], sort_keys=True)

    def plan_macs(self) -> Dict[str, int]:
        """Multiply-accumulates per layer of the planning model, from its saved file."""
        if self._macs is None:
            path = os.path.join(self.workdir, "plan_graph.nncm")
            self.nnc.save_model(self.plan_graph, path)
            self._macs = ref.layer_shapes(ref.NNCMFile.read(path))[2]
        return self._macs

    def stem_hessian(self, section) -> np.ndarray:
        """Exact Hessian of the planning loss w.r.t. the stem weights, one unit vector per row."""
        if self._hessian is not None:
            return self._hessian
        nnc, T = self.nnc, self.nnc.tensor
        plain = {k: v for k, v in section.items() if k != "mixed_precision"}
        _, g = nnc.create_compressed_model(self.plan_graph, {"compression": [plain]}, self.init)
        x, y = self.init[0]
        loss = nnc.util.cross_entropy(g.run(T.Tensor(x)), y)
        w = g.nodes["stem"].params["weight"]
        (gw,) = T.grad(loss, [w], create_graph=True)
        rows = []
        for i in range(w.size):
            e = np.zeros(w.size)
            e[i] = 1.0
            (hv,) = T.grad(T.tsum(T.mul(gw, T.Tensor(e.reshape(w.shape)))), [w])
            rows.append(hv.data.ravel())
        self._hessian = np.array(rows)
        return self._hessian


# -- check helpers -------------------------------------------------------------


def batched_logits(nnc, graph, x, batch: int = 128) -> np.ndarray:
    """Eval-mode logits in the batches ``evaluate`` uses."""
    out = []
    with nnc.no_grad():
        for i in range(0, len(x), batch):
            out.append(graph.run(nnc.Tensor(x[i : i + batch]), mode="eval").data)
    return np.concatenate(out)


def weights_on_grid(nnc, model, quant) -> bool:
    """Hooked weights equal our own symmetric fake quantization of the masked weights."""
    pre_param = nnc.HookPosition.PRE_PARAM
    ok = True
    with nnc.no_grad():
        for nid, fq in quant.handles["weight"].items():
            w = model.nodes[nid].params["weight"]
            value = w
            masked = w.data
            for h in model.hooks_at(nid, pre_param, param_name="weight"):
                value = h.transform(value, nnc.ExecContext(mode="eval"))
                if h.family == "magnitude_sparsity":
                    masked = masked * h.transform.mask.data
            _, q_max = ref.grid_bounds(fq.bits, "weight")
            mine = ref.symmetric_fake_quant(masked, fq.scale.data, fq.bits, "weight")
            step = np.maximum(fq.scale.data, ref.RANGE_FLOOR) / q_max
            levels = value.data / ref.per_channel(step, value.data)
            ok &= bool(
                np.array_equal(value.data, mine)
                and np.all(np.abs(levels - np.round(levels)) <= 1e-6)
                and np.all(np.abs(np.round(levels)) <= q_max)
            )
    return ok


def sparse_weights_match(parsed: "ref.NNCMFile", ctrl) -> bool:
    weights = {n["id"]: n["params"].get("weight") for n in parsed.nodes}
    if ctrl.name == "rb_sparsity":
        masks = {nid: gate.scores.data > 0 for nid, gate in ctrl.gates.items()}
    else:
        masks = {nid: hook.mask.data != 0 for nid, hook in ctrl.hooks.items()}
    return all(np.array_equal(weights[nid] != 0, keep) for nid, keep in masks.items())


# -- a whole run ------------------------------------------------------------------


def run_rounds(bench: Bench, seconds: float, trace: bool):
    """Whole rounds until ``seconds`` have passed.

    With ``trace``, rounds alternate between untraced and traced, starting
    untraced, and there are at least two.  Returns per round its results,
    its wall seconds and whether it was traced.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        bench.tracing = trace and len(rounds) % 2 == 1
        if bench.tracing:
            bench.tracer.install()
        try:
            t0 = time.perf_counter()
            results = [bench.run_op(op) for op in bench.round_ops()]
            rounds.append((results, time.perf_counter() - t0, bench.tracing))
            if len(rounds) == 1:
                bench.first_round_rss_mb = peak_rss_mb()
        finally:
            if bench.tracing:
                bench.tracer.uninstall()
            bench.tracing = False
        if time.perf_counter() - start >= seconds and (not trace or len(rounds) >= 2):
            return rounds


def export_rate(ops: List[OpResult]) -> float:
    """Round trips per second over the round's mix of models.

    Each model's cycle time is the median over its cycles in the run; a
    median over all cycles at once would jump between models of different
    cost.
    """
    per_model: Dict[str, List[float]] = {}
    for r in ops:
        per_model.setdefault(r.op, []).extend(r.cycle_s)
    return 2.0 * len(per_model) / sum(statistics.median(ts) for ts in per_model.values())


END_TO_END = [
    ("train_samples_per_s", "1/s"),
    ("eval_samples_per_s", "1/s"),
    ("export_roundtrips_per_s", "1/s"),
    ("plan_s", "s"),
    ("setup_s", "s"),
    ("model_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
]


def end_to_end(ops: List[OpResult], first_round: List[OpResult], setup_times, rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of a run.

    Medians over epochs, export cycles, plans and set-ups keep a single
    slow one (a collection of the garbage earlier operations left) from
    moving the run's figure; evaluation is timed as a whole.
    """
    epochs = [(r.train_samples, t) for r in ops for t in r.epoch_s]
    return {
        "train_samples_per_s": statistics.median(n / t for n, t in epochs),
        "eval_samples_per_s": sum(r.evals[0] for r in ops) / sum(r.evals[1] for r in ops),
        "export_roundtrips_per_s": export_rate(ops),
        "plan_s": statistics.median(r.plan_s for r in ops if r.plan_s is not None),
        "setup_s": statistics.median(setup_times),
        "model_bytes": float(sum(r.model_bytes for r in first_round)),
        "peak_rss_mb": rss_mb,
    }
