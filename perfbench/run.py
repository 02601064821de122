#!/usr/bin/env python3
"""Closed-loop benchmark of the smtl compiler and simulator.

Run from the repository root:

    python3 perfbench/run.py --workload compile-ladder --seed 1 \
        --seconds 45 --trace 0

One client, one process, one thread (BLAS/OpenMP pinned to 1): each
operation starts when the previous one returns, with no pacing. After
set-up (repeated, median reported), whole passes over the workload's
operations run back to back until the next pass would end after
`--seconds`; at least one pass always runs. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json, measured untraced. With `--trace 1` the first half of the
time runs untraced and the second half under the tracer, and the metrics
are the per-layer ones, including the tracing overhead. Everything else
(netlist hashes, operation outcomes, per-pass figures, span summaries)
goes to `.bench_results/` in the checkout and a summary to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

SETUP_REPS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import smtl.cli; "
                "print(time.perf_counter() - t)")

# name -> (unit, better); the same lists as BENCHMARK.json
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_rate": ("ratio", "higher"),
    "mapped_nodes": ("count", "lower"),
    "buffers": ("count", "lower"),
    "stages": ("count", "lower"),
    "routed_links": ("count", "lower"),
    "area_um2": ("um2", "lower"),
    "energy_pj": ("pJ", "lower"),
}


def per_layer_units():
    """Per-layer metric -> (unit, better), in the tracer's naming."""
    out = {}
    for name, (stat, _) in tracing.SPAN_METRICS.items():
        if stat == "s":
            out[name] = ("s", "lower")
        elif stat == "calls":
            out[name] = ("count", "lower")
        else:
            out[name] = ("count", "higher")
    for layer in tracing.LAYERS + ("harness",):
        out[f"self.{layer}_s"] = ("s", "lower")
    out.update({
        "compile.gates_per_s": ("1/s", "higher"),
        "evaluate.mc_vectors_per_s": ("1/s", "higher"),
        "mapping.capacity_timeouts": ("count", "lower"),
        "compile.growth": ("slope", "lower"),
        "evaluate.sigma_star": ("sigma", "higher"),
        "devices.write_err_p95": ("fraction", "lower"),
        "run.fail_rate": ("ratio", "lower"),
        "trace.untraced_run_s": ("s", "lower"),
        "trace.traced_run_s": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
        "trace.self_share": ("ratio", "higher"),
    })
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("compile-ladder", "variation-mc",
                            "capacity-map"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds():
    """Import time of smtl.cli in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=120, cwd=ROOT)
    return float(out.stdout.strip())


def median(values):
    return statistics.median(values) if values else 0.0


def growth_slope(passes):
    """Least-squares slope of log(compile seconds) on log(gates) over the
    generated ladder rungs (mean per netlist, median over passes)."""
    rungs = {}
    for fig in passes:
        for gates, times in fig.get("rung_compile_s", {}).items():
            rungs.setdefault(int(gates), []).append(sum(times) / len(times))
    if len(rungs) < 2:
        return 0.0
    xs = [math.log(g) for g in sorted(rungs)]
    ys = [math.log(median(rungs[g])) for g in sorted(rungs)]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def run_passes(workload, ledger, budget_s, tracer=None):
    """Whole passes until the next one would end after `budget_s`.

    A pass's `run_s` is the host time inside its operations; the harness's
    own work between them (garbage collection, hashing, checks) is not in
    it, but does count against the budget.
    """
    passes = []
    start = perf_counter()
    while True:
        if tracer:
            tracer.reset()
        gc.collect()
        t0, busy0 = perf_counter(), ledger.busy_s
        fig = workload.run_pass(ledger)
        fig["run_s"] = ledger.busy_s - busy0
        if tracer:
            fig["layers"] = tracer.layer_metrics()
            fig["spans"] = tracer.by_name()
        passes.append(fig)
        now = perf_counter()
        if (now - start) + (now - t0) > budget_s:
            return passes


def throughputs(workload, passes):
    """Source gates through synth + map per second, and vectors simulated
    per second of simulating operations, over untraced passes."""
    if workload.setup_compile:
        # synth and map run only in set-up on this workload
        gates_per_s = median([g / t for g, t in workload.setup_compile])
    else:
        gates_per_s = median([p["gates"] / p["compile_s"] for p in passes
                              if p["compile_s"] > 0])
    return {
        "compile.gates_per_s": gates_per_s,
        "evaluate.mc_vectors_per_s": median([p["vectors"] / p["sim_s"]
                                             for p in passes
                                             if p["sim_s"] > 0]),
    }


def end_to_end(passes, setup_s, ledger):
    qor = passes[-1]["qor"]
    metrics = {
        "run_s": median([p["run_s"] for p in passes]),
        "setup_s": median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ok_rate": (ledger.attempted - ledger.failed) / ledger.attempted,
    }
    for key in ("mapped_nodes", "buffers", "stages", "routed_links",
                "area_um2", "energy_pj"):
        metrics[key] = qor.get(key, 0)   # 0 only if every design failed
    return metrics


def per_layer(workload, untraced, traced, ledger):
    per_pass = [p["layers"] for p in traced]
    metrics = {k: median([m[k] for m in per_pass]) for k in per_pass[0]}
    last = traced[-1]
    untraced_s = median([p["run_s"] for p in untraced])
    traced_s = median([p["run_s"] for p in traced])
    covered = sum(v for k, v in metrics.items()
                  if k.startswith("self.") and k != "self.harness_s")
    metrics.update(throughputs(workload, untraced))
    metrics.update({
        "mapping.capacity_timeouts": median([p["timeouts"] for p in traced]),
        "compile.growth": growth_slope(untraced),
        "evaluate.sigma_star": min(last.get("sigma_star", {}).values(),
                                   default=0.0),
        "devices.write_err_p95": max(last.get("write_p95", {}).values(),
                                     default=0.0),
        "run.fail_rate": ledger.failed / ledger.attempted,
        "trace.untraced_run_s": untraced_s,
        "trace.traced_run_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.self_share": covered / traced_s,
    })
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "smtl" / "__init__.py").is_file():
        print(f"error: smtl sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RESULTS / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = []
        for _ in range(1 if args.trace else SETUP_REPS):
            t_import = import_seconds()
            gc.collect()
            t0 = perf_counter()
            wl.setup()
            setup_s.append(t_import + perf_counter() - t0)

        ledger = workloads.Ledger()
        t0 = perf_counter()
        passes = run_passes(wl, ledger,
                            args.seconds / 2 if args.trace else args.seconds)
        traced, skipped = [], []
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            ledger.span = lambda key: tracer.span("harness.operation")
            try:
                traced = run_passes(wl, ledger,
                                    args.seconds - (perf_counter() - t0),
                                    tracer)
            finally:
                tracer.uninstall()
            skipped = tracer.skipped
    except workloads.SetupFailed as e:
        print(f"error: set-up failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if any(p["qor"] != passes[0]["qor"] for p in passes + traced):
        ledger.wrong.append("simulated-design figures changed between passes")
    if args.trace:
        metrics = per_layer(wl, passes, traced, ledger)
        units = per_layer_units()
    else:
        metrics = end_to_end(passes, setup_s, ledger)
        units = END_TO_END
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]}
                    for k in units},
    }
    details = {
        "args": vars(args),
        "inputs": wl.input_hashes(),
        "setup_s": setup_s,
        "throughput": throughputs(wl, passes),
        "outcomes": dict(ledger.outcomes),
        "wrong": ledger.wrong,
        "errors": ledger.errors,
        "passes": [{k: v for k, v in p.items() if k != "spans"}
                   for p in passes + traced],
        "traced_passes": len(traced),
        "skipped_trace_targets": skipped,
        "spans": traced[-1]["spans"] if traced else {},
        "result": result,
    }
    (RESULTS / f"{tag}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True, default=str) + "\n")
    print(f"{tag}: {ledger.attempted} operations, {ledger.failed} failed, "
          f"{len(passes)} untraced / {len(traced)} traced passes; "
          f"outcomes {dict(ledger.outcomes) if ledger.failed else 'all ok'}",
          file=sys.stderr)
    for line in ledger.wrong + ledger.errors:
        print(f"  {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
