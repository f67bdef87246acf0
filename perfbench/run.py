"""Benchmark for maxentutil.

Run from the root of a checkout (the directory holding ``src/maxentutil``):

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``sweep-small``, ``interval-large``,
``assess`` and ``cli``.  Each run:

1. measures set-up SETUP_REPEATS times, each in a fresh interpreter
   (import maxentutil, build every Support and constraint, one warm-up
   op), each followed by a fresh interpreter that times a reference
   import, and reports the ratio of the two medians, in reference
   seconds, as ``setup_s`` (calibrate.py);
2. runs ops in a closed loop for ``--seconds`` seconds, and at least
   until the seed's counted problems are done, checking every result with
   the oracle in oracle.py;
3. checks that the oracle rejects a corrupted copy of one good result;
4. prints a summary, a machine record, and as its last line one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  Their times are
scaled to a reference machine speed by a calibration kernel timed after
every op (for cli, a fresh interpreter doing reference imports) and by a
reference import timed next to every set-up (calibrate.py); the raw wall
times are printed and kept in the result file.  Next to them the run prints and keeps, with no bound, ``fail_frac``
and ``ops_per_s``: ops that passed the oracle per second of attempted-op
time, failed ops' time included.  Most of that time goes to the few
failed ops that run 200 Newton iterations (about 90% of the loop on
sweep-small and 60% on interval-large), so the rate follows how many of
them a seed draws, by more than any bound the benchmark may set; the
bounded ``ok_frac`` counts the failures.

With ``--trace 1`` every other op runs with spans recorded around the
calls into each layer (spans.py) and the metrics are the per-layer ones
in raw wall time, plus the tracing overhead (traced minus untraced median
op time).  Layers that a workload's ops do not reach (the CLI for the
library workloads, assessed utilities for the moment workloads) are
measured after the timed loop by probes on the first of its problems
whose op passed.

An op that raises one of maxentutil's documented errors, or a CLI run that
exits non-zero as the in-process solve predicts, counts as failed.  A
result that fails the oracle, an undocumented exception, or a self-test
that does not catch a corrupted result makes ``correct`` false.
``attempted``, ``failed`` and ``ok_frac`` count the seed's first COUNTED
ops, a whole number of blocks of the workload's combinations
(workloads.py), so a seed fixes them however many ops the loop runs in its
time.  The times cover the ops of every whole block, so each run times the
same mix; the ops of a last, partial block are run and checked but not
timed.  The result file also keeps the counts over every op.

Everything runs in one process with one BLAS thread, and at most one
child process at a time.  Results, spans and scratch files go under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, fixed before numpy is imported here or in any child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import dataclasses
import glob
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
NAMES = ("sweep-small", "interval-large", "assess", "cli")
SETUP_REPEATS = 4
SETUP_PARTS = ("import", "build", "warmup")
IMPORT_REPEATS = 5
PROBE_PROBLEMS = 2
CHILD_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def run_child(prefix, argv=(), timeout=CHILD_TIMEOUT_S):
    """Run python with `prefix + argv`, output discarded; returns the exit
    code and the child's peak RSS in KiB.  The child is killed at the
    timeout and always reaped."""
    p = subprocess.Popen(
        [sys.executable, *prefix, *argv], env=child_env(), cwd=ROOT,
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage.ru_maxrss


def child_output(argv):
    """Run python with argv and return its last stdout line."""
    done = subprocess.run(
        [sys.executable, *argv], env=child_env(), cwd=ROOT, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return done.stdout.strip().splitlines()[-1]


def make_workload(name, seed):
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    wl.workdir = os.path.join(OUT, f"work-{name}-{seed}")
    wl.run_child = run_child
    os.makedirs(wl.workdir, exist_ok=True)
    return wl


# -- child modes ---------------------------------------------------------


def setup_probe(name, seed):
    """Time one set-up in this fresh interpreter; prints seconds as JSON."""
    t0 = time.perf_counter()
    import maxentutil as mx

    t_import = time.perf_counter() - t0
    wl = make_workload(name, seed)
    t0 = time.perf_counter()
    wl.build(mx)
    t_build = time.perf_counter() - t0
    wl.prepare()
    inp = wl.warmup()
    t0 = time.perf_counter()
    try:
        wl.op(inp)
    except mx.MaxentError:
        pass
    t_warm = time.perf_counter() - t0
    print(json.dumps({"import": t_import, "build": t_build, "warmup": t_warm}))


def cli_child(spans_path, argv):
    """`maxentutil` CLI with spans recorded; spans go to `spans_path`."""
    import spans

    tracer = spans.Tracer()
    import maxentutil as mx
    import maxentutil.cli

    tracer.enable(mx)
    try:
        code = mx.cli.main(argv)
    finally:
        tracer.disable()
        tracer.dump(spans_path)
    return code


# -- the run -------------------------------------------------------------


def quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def machine_record(name, seed, attempted):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "maxentutil", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "workload": name,
        "seed": seed,
        "ops": attempted,
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def layer_probes(mx, wl, inputs):
    """Reach every layer on the workload's own problems, after the loop.

    `inputs` are inputs whose op passed.  The CLI runs in-process on each
    until PROBE_PROBLEMS runs succeed.  Each continuous problem is turned
    into a utility (its own assessments, or three points of its generating
    distribution function), and its solution gets a curve and a risk
    profile.
    """
    import workloads

    spec = os.path.join(wl.workdir, "probe.txt")
    cli_ok = 0
    for inp in inputs:
        if cli_ok == PROBE_PROBLEMS:
            break
        with open(spec, "w", encoding="utf-8") as fh:
            fh.write(workloads.spec_text(inp))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = mx.cli.main(["solve", spec, "--out", os.path.join(wl.workdir, "probe.csv")])
        cli_ok += code == 0
    for inp in [inp for inp in inputs if inp["sup"]["continuous"]][:PROBE_PROBLEMS]:
        sup = inp["sup"]
        if "assessments" in inp:
            _, sol = mx.maxent_utility_from_assessments(sup["obj"], inp["assessments"])
        else:
            sol = wl.solve(sup["obj"], wl.specs(inp))
            cdf = (sup["weights"] * inp["p_gen"]).cumsum()
            picks = [int(cdf.searchsorted(q)) for q in (0.25, 0.5, 0.75)]
            for call, args in ((mx.density_to_curve, (sol.density, sol.support)),
                               (mx.maxent_utility_from_assessments,
                                (sup["obj"], [(float(sup["nodes"][i]), float(cdf[i])) for i in picks]))):
                try:
                    call(*args)
                except mx.ValidationError:
                    pass  # the curve guard's known rejections; counted in the spans
        mx.risk_aversion_analytic(sol)


def import_probes():
    package, bare = [], []
    code = ("import time; t = time.perf_counter(); import maxentutil; "
            "print(time.perf_counter() - t)")
    for _ in range(IMPORT_REPEATS):
        package.append(1e3 * float(child_output(["-c", code])))
        t0 = time.perf_counter()
        run_child(["-c", "pass"])
        bare.append(1e3 * (time.perf_counter() - t0))
    return {"import.package_ms": statistics.median(package),
            "import.interpreter_ms": statistics.median(bare)}


def run(name, seed, seconds, traced):
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    import calibrate

    setups = []
    for _ in range(SETUP_REPEATS):
        setup = json.loads(child_output([os.path.join(HERE, "run.py"), "--setup-probe",
                                         name, str(seed)]))
        setup["total"] = sum(setup[k] for k in SETUP_PARTS)
        setup["reference"] = float(child_output(["-c", calibrate.REFERENCE_IMPORT]))
        setups.append(setup)

    import maxentutil as mx
    import maxentutil.cli  # noqa: F401  (the CLI layer, for the tracer)
    import spans

    wl = make_workload(name, seed)
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.enable(mx)
    wl.build(mx)
    if tracer:
        tracer.disable()
    wl.prepare()
    wl.solve_references()
    try:
        wl.op(wl.warmup())  # timed only in the set-up probes
    except mx.MaxentError:
        pass

    counted = wl.BLOCKS * len(wl.combos)
    times = {True: [], False: []}
    counts = collections.Counter()
    reasons = collections.Counter()
    first_ok, ok_inputs, child_rss = None, [], 0
    passed = []
    spans_path = os.path.join(wl.workdir, "child-spans.json")
    cal = calibrate.ChildCalibration(run_child) if name == "cli" else calibrate.Calibration()
    cal.sample(calibrate.WINDOW)
    scaled = []
    t_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < t_end or i < counted:
        inp = wl.draw()
        on = traced and i % 2 == 1
        if on and name != "cli":
            tracer.op = i
            tracer.enable(mx)
        out, status = None, "ok"
        t0 = time.perf_counter()
        try:
            if on and name == "cli":
                out = wl.op(inp, [os.path.join(HERE, "run.py"), "--cli-child", spans_path])
            else:
                out = wl.op(inp)
        except mx.MaxentError as exc:
            status, why = "failed", f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # an undocumented error is a wrong result
            status, why = "incorrect", f"{type(exc).__name__}: {exc}"
        finally:
            dt = time.perf_counter() - t0
            if on and name != "cli":
                tracer.disable()
                tracer.op = spans.OP_NONE
        times[on].append(dt)
        cal.sample()
        scaled.append(dt * cal.scale())
        if status == "ok":
            why = wl.check(inp, out)
            if why:
                status = "incorrect"
            elif wl.refused(out):
                status, why = "failed", f"exit code {out[0]}"
        if name == "cli" and out is not None:
            child_rss = max(child_rss, out[2])
            if on and os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as fh:
                    tracer.adopt([json.loads(line) for line in fh], op=i)
                os.remove(spans_path)
        if status == "ok":
            if first_ok is None:
                first_ok = (inp, out)
            if len(ok_inputs) < 6 * PROBE_PROBLEMS:
                ok_inputs.append(inp)
        else:
            reasons[why.splitlines()[0][:90]] += 1
        counts[status] += 1
        passed.append(status == "ok")
        if i + 1 == counted:
            counted_ok = counts["ok"]
        if on:
            sol = inp["sol"] if name == "cli" else (wl.solution(out) if out is not None else None)
            if sol is not None:
                funcs = [s.function for s in sol.constraints]
                tracer.call("core.solution_check", dataclasses.replace, sol)
                tracer.call("solver.log_partition", mx.log_partition, sol.support, funcs, sol.multipliers)
                tracer.call("solver.hessian", mx.dual_hessian, sol.support, sol.constraints, sol.multipliers)
        i += 1

    ops = i
    attempted = counted
    ok = counted_ok
    self_test = first_ok is not None and wl.check(*first_ok, corrupt=True) is not None
    correct = counts["incorrect"] == 0 and self_test
    # Times cover whole blocks, so every run times the same mix of combinations.
    whole = ops - ops % len(wl.combos)
    all_times, scaled, ok_timed = times[False][:whole], scaled[:whole], sum(passed[:whole])
    if traced:
        tracer.enable(mx)
        layer_probes(mx, wl, ok_inputs)
        tracer.disable()
        metrics = spans.per_layer_metrics(tracer.spans, len(times[True]))
        metrics.update(import_probes())
        metrics["trace.overhead_ms"] = 1e3 * (
            statistics.median(times[True]) - statistics.median(times[False]))
        metrics = {k: metrics[k] for k in spans.UNITS}
        units = spans.UNITS
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + child_rss
        raw = {
            "setup_s": statistics.median(s["total"] for s in setups),
            "ops_per_s": ok_timed / sum(all_times),
            "op_ms_p50": 1e3 * statistics.median(all_times),
            "op_ms_p90": 1e3 * quantile(all_times, 90),
        }
        # Times in reference-machine units; see calibrate.py.
        metrics = {
            "setup_s": calibrate.REFERENCE_IMPORT_S * statistics.median(
                s["total"] for s in setups) / statistics.median(s["reference"] for s in setups),
            "op_ms_p50": 1e3 * statistics.median(scaled),
            "op_ms_p90": 1e3 * quantile(scaled, 90),
            "ok_frac": ok / attempted,
            "peak_rss_mb": peak_kib / 1024,
        }
        units = END_TO_END
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"metrics without a value: {bad}")

    record = machine_record(name, seed, ops)
    summary = {
        "record": record,
        "seconds": seconds,
        "trace": int(traced),
        "attempted": attempted,
        "ok": ok,
        "failed": attempted - ok,
        "fail_frac": (attempted - ok) / attempted,
        "ops": ops,
        "ops_ok": counts["ok"],
        "ops_timed": whole,
        "ops_per_s": None if traced else ok_timed / sum(scaled),
        "incorrect": counts["incorrect"],
        "self_test_rejects_corruption": self_test,
        "setup_parts_s": {k: statistics.median(s[k] for s in setups)
                          for k in SETUP_PARTS + ("reference",)},
        "calibration_kernel_ms": cal.kernel_ms(),
        "raw_metrics": {} if traced else raw,
        "failures": dict(reasons.most_common()),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    stem = os.path.join(OUT, "results", f"{name}-seed{seed}-trace{int(traced)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    if tracer:
        tracer.dump(stem + ".spans.jsonl")

    print(f"workload {name}  seed {seed}  {ops} ops in {seconds} s or more, "
          f"the first {attempted} counted (closed loop, 1 caller, trace {int(traced)})")
    for k, v in metrics.items():
        n = f"  n={whole}" if k.startswith("op_ms") else ""
        print(f"  {k:<30} {v:14.6g} {units[k]}{n}")
    if not traced:
        print("  raw wall times: " + "  ".join(f"{k} {v:.6g}" for k, v in raw.items())
              + f"  (calibration kernel {cal.kernel_ms():.4g} ms)")
        print(f"  ops_per_s {summary['ops_per_s']:.6g} 1/s (not bounded)")
    print(f"  fail_frac {summary['fail_frac']:.4f}  incorrect {counts['incorrect']}  "
          f"self-test {'ok' if self_test else 'FAILED'}")
    for why, n in reasons.most_common(6):
        print(f"    {n:5d} x {why}")
    print("record " + json.dumps(record))
    return {"correct": correct, "attempted": attempted, "failed": attempted - ok,
            "metrics": summary["metrics"]}


def run_all(seed, seconds, traced):
    """Every workload in turn, each in its own process."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        result["correct"] &= one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for k, v in one["metrics"].items():
            result["metrics"][f"{name}.{k}"] = v
    return result


def main(argv):
    if argv[:1] == ["--cli-child"]:
        sys.path.insert(0, SRC)
        return cli_child(argv[1], argv[2:])
    if not os.path.isfile(os.path.join(SRC, "maxentutil", "__init__.py")):
        print(f"error: no maxentutil sources under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if argv[:1] == ["--setup-probe"]:
        setup_probe(argv[1], int(argv[2]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
