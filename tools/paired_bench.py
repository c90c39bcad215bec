"""Paired benchmark runs of a parent revision against a change.

Copies the files of the parent revision (``git archive``) and the
working tree's tracked and unignored files, the change, into two
temporary directories, then runs each copy's ``bench/run.py`` one run at
a time.  The two runs of a pair use the same
seed and alternate which side goes first: the parent in even-numbered
pairs, the change in odd ones.  Every run's ``info`` line and result go
into ``BENCH_<n>.json`` at the repository root, rewritten after each run
(the script refuses to start if that file exists), with a summary per workload: for every end-to-end metric of
``BENCHMARK.json``, each side's values, median and quartiles, the pairs,
how many the change won, and whether it passes the gain rule (better in
at least nine of ten pairs, and in the median by more than the parent's
interquartile range) and stays inside the metric's bound.  A traced pair
(``--traced``) records the per-layer metrics of both sides.

    python tools/paired_bench.py --number 21 --seed 2101 --seconds 25 \\
        --pairs mixed_precision_plan=5 --pairs qat_finetune=3 --pairs deploy_inference=3 \\
        --traced mixed_precision_plan
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--number", type=int, required=True, help="write BENCH_<number>.json")
    p.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    p.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD=N",
                   help="N untraced pairs of WORKLOAD; repeat for several workloads")
    p.add_argument("--traced", action="append", default=[], metavar="WORKLOAD", help="one traced pair of WORKLOAD")
    p.add_argument("--seed", type=int, required=True, help="the first seed; each pair takes the next one")
    p.add_argument("--seconds", type=float, default=25.0)
    args = p.parse_args(argv)
    args.plan = []
    for item in args.pairs:
        workload, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 1:
            p.error(f"--pairs expects WORKLOAD=N with N >= 1, got {item!r}")
        args.plan.append((workload, int(count), 0))
    args.plan += [(workload, 1, 1) for workload in args.traced]
    if not args.plan:
        p.error("give at least one --pairs or --traced")
    return args


def git(*argv) -> str:
    return subprocess.run(["git", *argv], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def copy_revision(rev, dest) -> str:
    """The files of revision ``rev`` in ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return git("rev-parse", rev).strip()


def copy_working_tree(dest) -> str:
    """The working tree's tracked and unignored files in ``dest``."""
    for path in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        if path and os.path.isfile(os.path.join(ROOT, path)):
            os.makedirs(os.path.join(dest, os.path.dirname(path)), exist_ok=True)
            shutil.copy2(os.path.join(ROOT, path), os.path.join(dest, path))
    return "working tree over " + git("rev-parse", "HEAD").strip()


def run_bench(copy, workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    record = {"returncode": proc.returncode, "wall_s": round(time.perf_counter() - start, 2)}
    lines = proc.stdout.strip().splitlines()
    info = [json.loads(line)["info"] for line in lines if line.startswith('{"info"')]
    if proc.returncode != 0 or not info:
        record["stderr"] = proc.stderr[-2000:]
        return record
    record["info"], record["result"] = info[0], json.loads(lines[-1])
    return record


def quartiles(values) -> list:
    return [float(q) for q in np.percentile(values, [25, 75])]


def compare(spec, parent, change) -> dict:
    """One metric over the pairs: sides, medians, quartiles, wins, gain rule and bound."""
    higher = spec["better"] == "higher"
    pm, cm = float(np.median(parent)), float(np.median(change))
    pq = quartiles(parent)
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    worse_by = ((pm - cm) if higher else (cm - pm)) / pm if pm else 0.0
    gain = wins >= 0.9 * len(parent) and (cm - pm if higher else pm - cm) > pq[1] - pq[0]
    within = worse_by <= spec["bound"]
    return {
        "better": spec["better"], "bound": spec["bound"],
        "pairs_parent_change": [[p, c] for p, c in zip(parent, change)],
        "parent_median": pm, "change_median": cm, "parent_quartiles": pq, "change_quartiles": quartiles(change),
        "change_better_in": f"{wins} of {len(parent)}", "ratio_of_medians": cm / pm if pm else None,
        "worse_by": worse_by, "gain_rule": bool(gain), "within_bound": bool(within),
        "verdict": "gain" if gain else "within bound" if within else "worse than bound",
    }


def summarize(runs, bench) -> dict:
    summary = {}
    specs = {m["name"]: m for m in bench["end_to_end"]}
    for workload in sorted({r["workload"] for r in runs if not r["trace"]}):
        pairs = {}
        for r in runs:
            if r["workload"] == workload and not r["trace"] and "result" in r:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        done = [pairs[k] for k in sorted(pairs) if len(pairs[k]) == 2]
        if not done:
            continue
        out = {
            "seeds": [pair["parent"]["seed"] for pair in done],
            "correct": all(pair[s]["result"]["correct"] for pair in done for s in SIDES),
            "failed_share": {s: [f"{p[s]['result']['failed']}/{p[s]['result']['attempted']}" for p in done]
                             for s in SIDES},
            "failures": {s: [p[s]["info"]["failures"] for p in done] for s in SIDES},
            "minor_faults": {s: [p[s]["info"]["minor_faults"] for p in done] for s in SIDES},
            "metrics": {},
        }
        for name, spec in specs.items():
            values = {s: [p[s]["result"]["metrics"][name]["value"] for p in done] for s in SIDES}
            out["metrics"][name] = compare(spec, values["parent"], values["change"])
        summary[workload] = out
    return summary


def traced(runs) -> dict:
    out = {}
    for r in runs:
        if r["trace"] and "result" in r:
            entry = out.setdefault(r["workload"], {"seed": r["seed"], "metrics": {}})
            for name, v in r["result"]["metrics"].items():
                entry["metrics"].setdefault(name, {})[r["side"]] = v["value"]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    try:
        open(path, "x").close()
    except FileExistsError:
        print(f"{path} exists; remove it or choose another --number", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix="paired-bench-")
    try:
        copies = {side: os.path.join(workdir, side) for side in SIDES}
        for copy in copies.values():
            os.makedirs(copy)
        revs = {"parent": copy_revision(args.parent, copies["parent"]),
                "change": copy_working_tree(copies["change"])}
        doc = {
            "command": "python3 bench/run.py --workload <workload> --seed <seed> "
                       f"--seconds {args.seconds:g} --trace <0|1>",
            "paired_by": "tools/paired_bench.py " + " ".join(argv if argv is not None else sys.argv[1:]),
            "protocol": "each side runs from a copy of its own files; one run at a time; the runs of a pair "
                        "share a seed, and the parent goes first in even-numbered pairs, the change in odd ones",
            "parent": revs["parent"], "change": revs["change"], "seconds": args.seconds, "runs": [],
        }
        seed = args.seed
        for workload, count, trace in args.plan:
            for pair in range(count):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    record = {"side": side, "workload": workload, "seed": seed, "pair": pair,
                              "trace": trace, "first": order[0]}
                    record.update(run_bench(copies[side], workload, seed, args.seconds, trace))
                    doc["runs"].append(record)
                    status = "ok" if "result" in record else f"exit {record['returncode']}"
                    print(f"{workload} pair {pair} seed {seed} {side}: {status} in {record['wall_s']} s", flush=True)
                    doc["summary"], doc["traced"] = summarize(doc["runs"], bench), traced(doc["runs"])
                    with open(path, "w") as fh:
                        json.dump(doc, fh, indent=1, sort_keys=True)
                        fh.write("\n")
                seed += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [r for r in doc["runs"] if "result" not in r]
    print(f"wrote {path}: {len(doc['runs'])} runs, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
