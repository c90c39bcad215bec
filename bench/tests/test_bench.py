"""Tests of the benchmark itself: report shape and that every check rejects a bad output.

    python3 -m pytest bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import layers  # noqa: E402
import nncompress  # noqa: E402
import pipeline  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_report(line, declared):
    report = json.loads(line)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True
    assert isinstance(report["attempted"], int) and report["attempted"] >= 1
    assert isinstance(report["failed"], int) and 0 <= report["failed"] <= report["attempted"]
    assert set(report["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = report["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float) and np.isfinite(entry["value"])
    return report


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_reports_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--short")
    assert proc.returncode == 0, proc.stderr
    report = check_report(proc.stdout.strip().splitlines()[-1], SPEC["end_to_end"])
    assert all(report["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    jobs = pipeline.WORKLOADS[workload].jobs
    # only the fine-tune job with seed 0 fails, on the output-quantizer collapse
    assert report["failed"] == sum(1 for seed, _ in jobs if seed == 0)


def test_short_traced_run_reports_every_per_layer_metric():
    proc = run_bench("--workload", "qat_finetune", "--seed", "3", "--seconds", "0", "--trace", "1", "--short")
    assert proc.returncode == 0, proc.stderr
    report = check_report(proc.stdout.strip().splitlines()[-1], SPEC["per_layer"])
    assert report["metrics"]["mixed_precision.probes_per_plan"]["value"] == 128
    assert report["metrics"]["tensor.tape_nodes_per_step"]["value"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "qat_finetune", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == layers.METRICS
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == pipeline.END_TO_END


# -- each check rejects a corrupted output -----------------------------------


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    b = pipeline.Bench(nncompress, ROOT, pipeline.WORKLOADS["qat_finetune"], 3,
                       str(tmp_path_factory.mktemp("work")), short=True)
    b.setup()
    return b


def deploy_model(bench, name):
    return next(m for m in bench.deploy_models if m[0] == name)


def test_deploy_checks_pass_on_every_config(bench):
    for name, config, controllers, model in bench.deploy_models:
        res = pipeline.OpResult(name)
        bench.deploy(res, controllers, model, config)
        assert res.failures == [], name


def test_perturbed_logit_is_rejected(bench, monkeypatch):
    load_model = nncompress.load_model

    def perturbed(path):
        graph, extra = load_model(path)
        bias = graph.nodes["fc"].params["bias"]
        bias.data = bias.data + np.array([1e-6, 0.0])
        return graph, extra

    monkeypatch.setattr(nncompress, "load_model", perturbed)
    # no output quantizer here, which would round the perturbation away
    name, config, controllers, model = deploy_model(bench, "uncompressed")
    res = pipeline.OpResult(name)
    bench.deploy(res, controllers, model, config)
    assert "reference_forward" in res.failures
    assert "reload_logits" in res.failures


def test_off_grid_weight_is_rejected():
    x, y = nncompress.make_dataset("stripes", 128, seed=1)
    config = {"compression": [{"algorithm": "magnitude_sparsity", "schedule": {"init": 0.3, "target": 0.3}},
                              {"algorithm": "quantization", "init": {"num_batches": 1}}]}
    controllers, model = nncompress.create_compressed_model(
        nncompress.build_model("cnn-residual", 1), config, [(x[:32], y[:32])]
    )
    nncompress.scheduler_epoch_step(controllers)
    quant = controllers[1]
    assert pipeline.weights_on_grid(nncompress, model, quant)
    hook = model.hooks_at("conv_a", nncompress.HookPosition.PRE_PARAM, param_name="weight")[-1]
    on_grid = hook.transform

    def off_grid(value, ctx=None):
        out = on_grid(value, ctx)
        out.data = out.data.copy()
        out.data.flat[5] += 1e-4
        return out

    hook.transform = off_grid
    assert not pipeline.weights_on_grid(nncompress, model, quant)


def test_swapped_bit_assignment_is_rejected(bench, monkeypatch):
    create = nncompress.create_compressed_model

    def swapped(graph, config, init_data=None):
        controllers, model = create(graph, config, init_data)
        plan = controllers[0].mixed_precision_plan
        names = sorted(plan.assignment, key=plan.assignment.get)
        low, high = names[0], names[-1]
        plan.assignment[low], plan.assignment[high] = plan.assignment[high], plan.assignment[low]
        return controllers, model

    res = bench.plan(0)
    assert res.failures == []
    monkeypatch.setattr(nncompress, "create_compressed_model", swapped)
    res = bench.plan(0)
    assert "bit_assignment" in res.failures


def test_differing_exports_are_rejected(bench, monkeypatch):
    export_graph = nncompress.export_graph

    def drifting(graph, path):
        bias = graph.nodes["fc"].params["bias"]
        bias.data = bias.data + 1e-12
        return export_graph(graph, path)

    monkeypatch.setattr(nncompress, "export_graph", drifting)
    name, config, controllers, model = deploy_model(bench, "uncompressed")
    res = pipeline.OpResult(name)
    bench.deploy(res, controllers, model, config)
    assert res.failures == ["export_paths"]
