#!/usr/bin/env python3
"""Peak memory of one Monte-Carlo tolerance call on a generated design.

    python tools/mc_peak.py --gates 5000 [--layers 200]

Generates a `perfbench/netgen.py` design with generator seed 1 (by
default gates/25 layers, the "deep" shape), compiles it with `synth` and
`map` at their default options and runs `variation_tolerance` at 50,000
vectors, sigma 0.02, 0.04, 0.06 and 0.08 times 5 seeds, without early
stop. All of that runs in a fresh Python process, so that its peak RSS
belongs to this design alone. Prints one JSON line: the mapped nodes,
the call's time, sigma* and curve, and the process's peak RSS after
importing, after `synth`, after `map` (= before the call) and after the
call.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIGMA_GRID = (0.02, 0.04, 0.06, 0.08)
SEEDS = (0, 1, 2, 3, 4)
VECTORS = 50_000
XOR_SHARE = 0.1
SEED = 1


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(gates, layers):
    """Compile the design and run the tolerance call in this process."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]
    from netgen import generate
    from smtl.bench import parse_bench
    from smtl.evaluate import variation_tolerance
    from smtl.mapping import MappingConfig, map_design
    from smtl.synthesis import synthesize_tln

    imported = peak_rss_mb()
    net = parse_bench(generate(gates, layers, XOR_SHARE, SEED))
    tln = synthesize_tln(net)
    synthesized = peak_rss_mb()
    design = map_design(tln, net, MappingConfig())
    before = peak_rss_mb()
    start = time.perf_counter()
    sigma_star, curve = variation_tolerance(
        design, SIGMA_GRID, vectors_per_probe=VECTORS, seeds=SEEDS,
        early_stop=False)
    return {"gates": gates, "layers": layers, "seed": SEED,
            "mapped_nodes": len(design.tln.nodes),
            "tolerance_s": round(time.perf_counter() - start, 3),
            "sigma_star": sigma_star, "curve": curve,
            "rss_import_mb": round(imported, 1),
            "rss_synth_mb": round(synthesized, 1),
            "rss_before_mb": round(before, 1),
            "rss_after_mb": round(peak_rss_mb(), 1)}


def measure(gates, layers=None):
    """`run` in a fresh Python process; returns its result."""
    layers = layers or max(1, gates // 25)
    out = subprocess.run(
        [sys.executable, __file__, "--gates", str(gates), "--layers",
         str(layers), "--in-process"],
        capture_output=True, text=True)
    if out.returncode:
        raise RuntimeError(f"exit {out.returncode}: "
                           f"{out.stderr.strip()[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--gates", type=int, required=True)
    ap.add_argument("--layers", type=int, default=None,
                    help="default: gates // 25")
    ap.add_argument("--in-process", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.gates < 1 or (args.layers is not None and args.layers < 1):
        ap.error("--gates and --layers must be at least 1")
    if args.in_process:
        result = run(args.gates, args.layers)
    else:
        result = measure(args.gates, args.layers)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
