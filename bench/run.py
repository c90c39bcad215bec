#!/usr/bin/env python3
"""Benchmark of nncompress: compression-aware fine-tuning, Hessian bit
planning and deployment of compressed models.

    python3 bench/run.py --workload qat_finetune --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20

Runs whole rounds of the workload's operations, one at a time, until
``--seconds`` have passed, checks every output, and prints one JSON line
last: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
rounds alternate between untraced and traced, and the metrics are the
per-layer metrics of the traced rounds.  ``--workload all`` runs every
workload in a fresh process.  The program is imported from ``src/`` next
to this directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("qat_finetune", "mixed_precision_plan", "deploy_inference")

# One BLAS thread: the program's matrices are small, and a second thread
# only adds CPU time and run-to-run spread.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true", help="one-epoch jobs and small eval sets, for tests")
    return p.parse_args(argv)


def run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--short"] if args.short else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        print(f"{name}: attempted {res['attempted']} failed {res['failed']} correct {res['correct']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:<45} {v['value']:>14.6g} {v['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "nncompress", "__init__.py")):
        print(f"error: the program's sources are missing: no {SRC}/nncompress", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import numpy as np

    import layers
    import nncompress
    import pipeline
    from tracer import Tracer

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = Tracer(nncompress) if args.trace else None
    bench = pipeline.Bench(nncompress, ROOT, pipeline.WORKLOADS[args.workload], args.seed, workdir,
                           short=args.short, tracer=tracer)
    try:
        setup_times = []
        for i in range(pipeline.SETUP_REPEATS):
            # the last set-up is traced, for the set-up layers' numbers
            bench.tracing = bool(args.trace) and i == pipeline.SETUP_REPEATS - 1
            if bench.tracing:
                tracer.install()
            start = time.perf_counter()
            with bench.span("bench.setup"):
                bench.setup()
            setup_times.append(time.perf_counter() - start)
            if bench.tracing:
                tracer.uninstall()
                bench.tracing = False
        rounds = pipeline.run_rounds(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [r for results, _, _ in rounds for r in results]
    first = rounds[0][0]
    for results, _, _ in rounds[1:]:
        for r, r0 in zip(results, first):
            r.check(r.digest == r0.digest and r.failures == r0.failures, "repeatable")
    failures = Counter(f"{r.op}:{f}" for r in ops for f in r.failures)
    # a fine-tune job that misses the accuracy bar is the program's known
    # fault; any other failed check means an output is wrong
    correct = all(set(r.failures) <= {"accuracy"} for r in ops)

    if args.trace:
        traced = [rnd for rnd in rounds if rnd[2]]
        untraced = [rnd for rnd in rounds if not rnd[2]]
        overhead = 100.0 * (
            sum(d for _, d, _ in traced) / len(traced) / (sum(d for _, d, _ in untraced) / len(untraced)) - 1.0
        )
        traced_ops = [r for results, _, _ in traced for r in results]
        values = layers.compute(tracer, traced_ops, len(traced), overhead)
        units = {name: unit for name, unit, _ in layers.METRICS}
        prefix = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}")
        tracer.write(prefix, {"metrics": values, "spans": tracer.summary()})
    else:
        values = pipeline.end_to_end(ops, first, setup_times, bench.first_round_rss_mb)
        units = dict(pipeline.END_TO_END)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": len(rounds), "ops_per_round": len(first), "round_s": [round(d, 3) for _, d, _ in rounds],
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "numpy": np.__version__,
        "python": sys.version.split()[0], "failures": failures,
        "user_s": usage.ru_utime, "sys_s": usage.ru_stime, "minor_faults": usage.ru_minflt,
        "ops": {r.op: {"model_bytes": r.model_bytes, "eval_samples_per_s": r.evals[0] / r.evals[1]} for r in first},
        "plan_s": [round(r.plan_s, 4) for r in ops if r.plan_s is not None],
        "setup_s": [round(t, 4) for t in setup_times],
    }
    print(json.dumps({"info": info}, sort_keys=True))
    for name, value in values.items():
        print(f"{name:<45} {value:>14.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(1 for r in ops if r.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
