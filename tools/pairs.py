#!/usr/bin/env python3
"""Alternating before/after runs of the benchmark in two checkouts.

    python tools/pairs.py PARENT_DIR CHANGE_DIR --workload variation-mc \\
        --seed 1 --pairs 10 --seconds 15

Each pair runs `python3 perfbench/run.py` once in each checkout, the
parent first in even pairs and the change first in odd ones, so a drift
in the machine's speed falls on both sides alike. A run that is not
`correct` or that has a failed operation stops the tool with exit 1.
At the end it prints, for every metric both sides report, the
q1/median/q3 of each side and the pairs in which the change was better
(in the direction BENCHMARK.json gives), and for each end-to-end metric
a verdict (see `verdict`). `--trace 1` compares the per-layer metrics
instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values):
    """(q1, median, q3) of `values`, by linear interpolation."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent, change, better):
    """Per metric: the parent's and the change's quartiles and the number
    of pairs the change won.

    `parent` and `change` are lists of metric dicts, pair i being
    (parent[i], change[i]); `better` maps a metric to "lower" or
    "higher". Metrics missing from `better` or from any run are left out.
    Returns {metric: {"parent": (q1, median, q3), "change": (...),
    "won": int}}.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, nonzero number of runs per side")
    rows = {}
    for name, direction in better.items():
        if not all(name in run for run in parent + change):
            continue
        before = [run[name] for run in parent]
        after = [run[name] for run in change]
        if direction == "lower":
            won = sum(a < b for b, a in zip(before, after))
        else:
            won = sum(a > b for b, a in zip(before, after))
        rows[name] = {"parent": quartiles(before), "change": quartiles(after),
                      "won": won}
    return rows


def verdict(before, after, direction, bound):
    """The change's verdict on one end-to-end metric, from its runs
    `before` (the parent's) and `after` (the change's), pair by pair.

    `bound` is a fraction of the parent's median. "better": the change
    wins at least 9/10 of the pairs and its median is better by more than
    the parent's interquartile range; "worse": its median is worse by
    more than the bound; "unresolved": the parent's interquartile range is
    wider than the bound and not every change run beats every parent run;
    "within bound" otherwise.
    """
    sign = 1 if direction == "lower" else -1  # sign * (a - b) < 0: a beats b
    q1, median, q3 = quartiles(before)
    gain = sign * (median - quartiles(after)[1])
    won = sum(sign * (a - b) < 0 for b, a in zip(before, after))
    if 10 * won >= 9 * len(before) and gain > q3 - q1:
        return "better"
    limit = bound * abs(median)
    if -gain > limit:
        return "worse"
    if q3 - q1 > limit and not all(sign * (a - b) < 0
                                   for a in after for b in before):
        return "unresolved"
    return "within bound"


def benchmark(checkout):
    """(metric -> better, end-to-end metric -> bound), from the checkout's
    BENCHMARK.json."""
    spec = json.loads((Path(checkout) / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}
    return better, {m["name"]: m["bound"] for m in spec["end_to_end"]}


def run_once(checkout, args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        sys.exit(f"error: {checkout}: exit {out.returncode}: "
                 f"{out.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] > 0:
        sys.exit(f"error: {checkout}: correct={result['correct']} "
                 f"failed={result['failed']} of {result['attempted']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    runs = {args.parent: [], args.change: []}
    for i in range(args.pairs):
        order = [args.parent, args.change]
        if i % 2:
            order.reverse()
        for checkout in order:
            runs[checkout].append(run_once(checkout, args))
        before, after = runs[args.parent][-1], runs[args.change][-1]
        key = "run_s" if "run_s" in after else "trace.untraced_run_s"
        print(f"pair {i + 1}/{args.pairs}: {key} {before.get(key)} -> "
              f"{after.get(key)}", file=sys.stderr, flush=True)
    better, bounds = benchmark(args.change)
    rows = summarize(runs[args.parent], runs[args.change], better)
    print(f"{args.workload} --seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s, trace {args.trace}: q1/median/q3")
    for name, row in rows.items():
        fmt = "/".join(f"{v:.6g}" for v in row["parent"])
        new = "/".join(f"{v:.6g}" for v in row["change"])
        line = (f"{name}: {fmt} -> {new}, change better in "
                f"{row['won']}/{args.pairs}")
        if name in bounds:
            line += ": " + verdict([run[name] for run in runs[args.parent]],
                                   [run[name] for run in runs[args.change]],
                                   better[name], bounds[name])
        print(line)


if __name__ == "__main__":
    main()
