#!/usr/bin/env python3
"""Wall time and peak memory of compiling one generated netlist.

    python tools/compile_scale.py --gates 20000 [--layers 40]

Generates a `perfbench/netgen.py` netlist with generator seed 1 (by
default gates/25 layers, the "deep" shape; 40 layers is the "wide" one)
and runs `smtl synth`, `smtl map` and `smtl evaluate --sigma 0` on it at
their default options, each in a fresh Python process that imports this
checkout's `src`, so that each command's peak RSS is its own. Prints one
JSON line: per command its wall time (process start included) and peak
RSS, the mapped nodes and path-balancing buffers, and the synth + map time
per 1,000 gates. A command that exits non-zero stops the tool with exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
XOR_SHARE = 0.1
SEED = 1


def run_command(args, workdir):
    """Run `smtl args` in a fresh process; returns (seconds, peak RSS in
    MB, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    with open(Path(workdir) / "out", "w+") as out, \
            open(Path(workdir) / "err", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "smtl.cli", *args],
                                cwd=workdir, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own peak
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            err.seek(0)
            raise RuntimeError(f"smtl {args[0]} exited {proc.returncode}: "
                               f"{err.read().strip()[-500:]}")
        out.seek(0)
        return seconds, usage.ru_maxrss / 1024.0, out.read()


def measure(gates, layers=None):
    """Compile a generated netlist in a temporary directory; returns the
    figures `main` prints."""
    sys.path.insert(0, str(REPO / "perfbench"))
    from netgen import generate

    layers = layers or max(1, gates // 25)
    result = {"gates": gates, "layers": layers, "seed": SEED}
    with tempfile.TemporaryDirectory() as d:
        Path(d, "net.bench").write_text(
            generate(gates, layers, XOR_SHARE, SEED))
        for name, args in (
                ("synth", ["synth", "--bench", "net.bench", "-o", "tln.json"]),
                ("map", ["map", "--tln", "tln.json", "-o", "mapped.json"]),
                ("evaluate", ["evaluate", "--mapped", "mapped.json",
                              "--sigma", "0", "--report", "report.json"])):
            seconds, rss, out = run_command(args, d)
            result[f"{name}_s"] = round(seconds, 3)
            result[f"{name}_rss_mb"] = round(rss, 1)
            if name == "map":  # "stages=.. nodes=N buffers=B .."
                result["mapped_nodes"] = int(out.split(" nodes=")[1].split()[0])
                result["buffers"] = int(out.split(" buffers=")[1].split()[0])
    result["compile_s_per_1k_gates"] = round(
        (result["synth_s"] + result["map_s"]) * 1000 / gates, 3)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--gates", type=int, required=True)
    ap.add_argument("--layers", type=int, default=None,
                    help="default: gates // 25")
    args = ap.parse_args(argv)
    if args.gates < 1 or (args.layers is not None and args.layers < 1):
        ap.error("--gates and --layers must be at least 1")
    try:
        result = measure(args.gates, args.layers)
    except RuntimeError as e:
        sys.exit(f"error: {e}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
