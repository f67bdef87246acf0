"""Run the benchmark on several seeds and summarise it in one BENCH file.

Run from the root of a checkout:

    python3 perfbench/trajectory.py --label parent --seeds 1-10
    python3 perfbench/trajectory.py --label change --seeds 11-20

For each workload in BENCHMARK.json it runs ``perfbench/run.py`` once per
seed with tracing off, then once with tracing on (first seed), each for
the file's ``run_seconds``.  The output, ``.perfbench/BENCH_<label>.json``,
holds every run's result line and machine record, and for each end-to-end
metric, bounded or not, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (quartile distance
over median).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    path = os.path.join(".perfbench", "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    keep = ("record", "ops", "fail_frac", "ops_per_s", "failures", "setup_parts_s", "raw_metrics",
            "calibration_kernel_ms")
    return {"seed": seed, "result": result, **{k: summary[k] for k in keep}}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main(argv):
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = parser.parse_args(argv)
    out = os.path.join(".perfbench", f"BENCH_{args.label}.json")
    seconds = bench["run_seconds"]
    doc = {"label": args.label, "seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, s, seconds, 0) for s in args.seeds]
        traced = run_once(workload, args.seeds[0], seconds, 1)
        metrics = {m["name"]: spread([r["result"]["metrics"][m["name"]]["value"] for r in runs])
                   for m in bench["end_to_end"]}
        unbounded = {k: spread([r[k] for r in runs]) for k in ("ops_per_s", "fail_frac")}
        doc["workloads"][workload] = {"end_to_end": metrics, "not_bounded": unbounded,
                                      "runs": runs, "traced": traced}
        print(workload, "correct" if all(r["result"]["correct"] for r in runs) else "INCORRECT")
        for name, s in {**metrics, **unbounded}.items():
            print(f"  {name:<14} median {s['median']:<12.6g} spread {s['spread']:.4f}")
    os.makedirs(".perfbench", exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print("wrote", out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
