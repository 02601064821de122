"""Seeded layered `.bench` netlist generator for the benchmark workloads.

The same (gates, layers, xor_share, seed) always yields the same text, so
`netlist_hash` of the text identifies the inputs a run used. Every gate
that no other gate reads becomes a primary output, so synthesis prunes
nothing and the whole netlist is compiled. Inputs are kept above 20 so
the CLI's equivalence check samples vectors rather than enumerating 2^n.
"""

from __future__ import annotations

import hashlib
import random

KINDS = ("NAND", "NAND", "NOR", "AND", "OR", "NOT")
ARITIES = (2, 2, 2, 3, 3, 4, 5)
MIN_INPUTS = 24


def generate(gates, layers, xor_share, seed):
    """Return `.bench` text with `gates` gates in `layers` layers.

    `xor_share` of each layer's gates are 2-input XORs; `seed` may be any
    value whose str() is stable (the workloads pass "<seed>:<label>").
    """
    if gates < layers or layers < 2:
        raise ValueError("need layers >= 2 and at least one gate per layer")
    if not 0.0 <= xor_share <= 1.0:
        raise ValueError("xor_share must lie in [0, 1]")
    rng = random.Random(f"netgen:{gates}:{layers}:{xor_share}:{seed}")
    n_inputs = max(MIN_INPUTS, gates // 10)
    inputs = [f"i{i}" for i in range(n_inputs)]
    widths = [gates // layers] * layers
    for i in range(gates - sum(widths)):
        widths[i] += 1

    body, read = [], set()
    prev, prev2 = inputs, inputs
    for li, width in enumerate(widths):
        # Kinds and arities come from a fixed per-layer mix that the seed
        # only shuffles, so the amount of work varies little between seeds.
        n_xor = round(width * xor_share)
        kinds = ["XOR"] * n_xor + [KINDS[i % len(KINDS)]
                                   for i in range(width - n_xor)]
        arities = [ARITIES[i % len(ARITIES)] for i in range(width)]
        rng.shuffle(kinds)
        rng.shuffle(arities)
        pool = sorted(set(prev) | set(prev2))
        layer = []
        for gi, (kind, arity) in enumerate(zip(kinds, arities)):
            if kind in ("NOT", "XOR"):
                arity = 1 if kind == "NOT" else 2
            arity = min(arity, len(pool))
            srcs = [rng.choice(prev)]  # one source from the layer below
            while len(srcs) < arity:
                cand = rng.choice(pool)
                if cand not in srcs:
                    srcs.append(cand)
            name = f"g{li}_{gi}"
            body.append(f"{name} = {kind}({', '.join(srcs)})")
            read.update(srcs)
            layer.append(name)
        prev2, prev = prev, layer

    outputs = [line.split(" = ")[0] for line in body]
    outputs = [g for g in outputs if g not in read]
    lines = [f"# netgen gates={gates} layers={layers} "
             f"xor_share={xor_share} seed={seed}"]
    lines += [f"INPUT({n})" for n in inputs]
    lines += [f"OUTPUT({n})" for n in outputs]
    lines += body
    return "\n".join(lines) + "\n"


def netlist_hash(text):
    """Short content hash recorded with results to prove identical inputs."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]
