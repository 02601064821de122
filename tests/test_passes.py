"""The incremental synth and map passes, the evaluators built on the
shared threshold step and input-row generator, the bit-packed,
seed-batched crossbar simulation, the batched gate kernels (narrow weight
lattice, margins per fan-in, bit-packed ideal evaluation), the sort,
lowering and validation on a network's integer view and the write loop's
shared ramp give exactly the output of the straightforward
implementations they replaced.

The reference passes below are test-only copies of those implementations:
rescanning passes, whose compiles are compared as JSON artifacts, and
per-evaluator loops, the column-wise Boolean and threshold evaluators and
the equivalence check on their bool matrices, the per-seed tolerance
loop, row builders, the int64 weight solver, the per-node validation and
lowering, and the per-pulse write loop, whose outputs, error counts,
counterexamples, curves, truth tables, gates, lowered fields, messages and
error statistics are compared exactly.
"""

import contextlib
import copy
import dataclasses
import importlib.util
import itertools
import json
import math
import random
import tracemalloc
import unittest.mock
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from smtl import devices, evaluate, graph, mapping, partition, synthesis, tlg
from smtl.bench import (BenchError, BooleanNetwork, Gate, evaluate_many,
                        load_bench, pack, parse_bench, unpack)
from smtl.devices import DeviceParams, bias_chunks, weight_to_conductance
from smtl.evaluate import programmed, simulate_mapped, variation_tolerance
from smtl.mapping import MappingConfig, map_design
from smtl.synthesis import synthesize_tln
from smtl.tlg import (
    W_MAX,
    ThresholdGate,
    ThresholdLogicNetwork,
    TLGNode,
    input_rows,
    solve_weights,
)

from gate_tables import gate_margin, truth_table


# --- reference passes --------------------------------------------------------

def ref_order(nodes, sources):
    """Sweep the pending nodes in insertion order until all are emitted."""
    order, seen = [], set(sources)
    pending = list(nodes)
    while pending:
        rest = []
        for name, inputs in pending:
            if all(i in seen for i in inputs):
                order.append(name)
                seen.add(name)
            else:
                rest.append((name, inputs))
        if len(rest) == len(pending):
            raise graph.CycleError([name for name, _ in rest])
        pending = rest
    return order


def ref_tln_order(tln):
    try:
        return ref_order([(n.id, n.gate.inputs) for n in tln.nodes.values()],
                         tln.inputs)
    except graph.CycleError:
        raise ValueError("cycle in threshold network") from None


def ref_bench_order(net):
    try:
        return ref_order([(g.name, g.inputs) for g in net.gates], net.inputs)
    except graph.CycleError as e:
        raise BenchError("cycle detected among gates: " +
                         ", ".join(e.leftover[:5])) from None


def ref_collapse_tln(tln, fanin_limit=4, w_max=6):
    """Restart a reverse-topological scan after every merge."""
    merged = 0
    changed = True
    while changed:
        changed = False
        cons = tln.consumers()
        for nid in reversed(tln.topological_order()):
            if nid in tln.outputs:
                continue
            users = sorted(set(cons[nid]))
            if len(users) != 1:
                continue
            consumer = tln.nodes[users[0]]
            producer = tln.nodes[nid]
            support = [i for i in consumer.gate.inputs if i != nid]
            support += [i for i in producer.gate.inputs if i not in support]
            if len(support) > fanin_limit:
                continue
            gate = solve_weights(
                ref_merged_table(producer, consumer, support),
                w_max, fanin_limit)
            if gate is None:
                continue
            keep = [(s, w) for s, w in zip(support, gate.weights) if w != 0]
            if not keep:
                continue
            consumer.gate = ThresholdGate(
                tuple(s for s, _ in keep), tuple(w for _, w in keep),
                gate.bias)
            del tln.nodes[nid]
            merged += 1
            changed = True
            break
    return merged


def ref_split_fanout(tln, f_max):
    """Rescan every node for the consumer slots of each split candidate."""
    if f_max < 2:
        raise ValueError("f_max must be >= 2")
    n_split = 0
    for nid in reversed(tln.topological_order()):
        node = tln.nodes[nid]
        slots = []
        for other in tln.nodes.values():
            for pos, src in enumerate(other.gate.inputs):
                if src == nid:
                    slots.append(("node", other.id, pos))
        for pos, out in enumerate(tln.outputs):
            if out == nid:
                slots.append(("out", None, pos))
        if len(slots) <= f_max:
            continue
        n_copies = math.ceil(len(slots) / f_max)
        targets = [nid]
        names = (f"{nid}$c{j}" for j in itertools.count(1))
        for _ in range(1, n_copies):
            cid = next(c for c in names
                       if c not in tln.nodes and c not in tln.inputs)
            cnode = tln.add_node(cid, node.gate, is_buffer=node.is_buffer)
            cnode.level, cnode.stage = node.level, node.stage
            targets.append(cid)
        for i, (kind, owner, pos) in enumerate(slots):
            tgt = targets[i // f_max]
            if tgt == nid:
                continue
            if kind == "out":
                tln.outputs[pos] = tgt
            else:
                g = tln.nodes[owner].gate
                srcs = list(g.inputs)
                srcs[pos] = tgt
                tln.nodes[owner].gate = ThresholdGate(
                    tuple(srcs), g.weights, g.bias)
        n_split += 1
    return n_split


def _direct(design):
    return partition.interconnect_stats(design)["direct"]


def ref_placements(design):
    """name -> (stage, block) of every input and node of the design; the
    primary inputs sit in stage 0, in runs of `config.cols`."""
    cols = design.config.cols
    place = {name: (0, i // cols) for i, name in enumerate(design.tln.inputs)}
    for s, blks in design.blocks.items():
        for b, blk in enumerate(blks):
            place.update(dict.fromkeys(blk, (s, b)))
    return place


def ref_reorder_stages(design):
    """Recount every direct link after each per-stage trial."""
    cfg = design.config
    pinned = {0}
    for s in design.blocks:
        if any(nid in design.absorbed for nid in design.stage_nodes(s)):
            pinned.update((s, s - 1))
    best = _direct(design)
    for _ in range(cfg.reorder_sweeps):
        improved = False
        for s in sorted(design.blocks):
            if s in pinned:
                continue
            old = design.blocks[s]
            nodes = design.stage_nodes(s)
            place = ref_placements(design)
            cons = design.tln.consumers()
            bary = {}
            for i, nid in enumerate(nodes):
                neigh = [place[src][1]
                         for src in design.tln.nodes[nid].gate.inputs
                         if src in place]
                neigh += [place[c][1] for c in cons[nid] if c in place]
                bary[nid] = (sum(neigh) / len(neigh) if neigh else 0.0, i)
            ordered = sorted(nodes, key=lambda n: bary[n])
            design.blocks[s] = partition.rebin(
                ordered, design.tln, cfg.rows, cfg.cols)
            now = _direct(design)
            if now >= best:
                if now > best:
                    improved = True
                best = now
            else:
                design.blocks[s] = old
        if not improved:
            break
    return design


def ref_input_rows(n):
    rows = np.zeros((2 ** n, n), dtype=np.int64)
    for r in range(2 ** n):
        for i in range(n):
            rows[r, i] = (r >> i) & 1
    return rows


def ref_merged_table(producer, consumer, support):
    pos = {s: i for i, s in enumerate(support)}
    table = []
    for row in range(2 ** len(support)):
        env = {s: (row >> i) & 1 for s, i in pos.items()}
        pv = 1 if sum(w * env[i] for w, i in
                      zip(producer.gate.weights, producer.gate.inputs)) \
            + producer.gate.bias >= 0 else 0
        env[producer.id] = pv
        cv = sum(w * env[i] for w, i in
                 zip(consumer.gate.weights, consumer.gate.inputs)) \
            + consumer.gate.bias
        table.append(1 if cv >= 0 else 0)
    return tuple(table)


_REF_GATE_FN = {
    "AND": lambda vals: np.logical_and.reduce(vals),
    "OR": lambda vals: np.logical_or.reduce(vals),
    "NAND": lambda vals: ~np.logical_and.reduce(vals),
    "NOR": lambda vals: ~np.logical_or.reduce(vals),
    "XOR": lambda vals: np.logical_xor.reduce(vals),
    "NOT": lambda vals: ~vals[0],
    "BUFF": lambda vals: vals[0],
}


def ref_evaluate_many(net, vectors):
    """The Boolean oracle on one bool column per net."""
    vectors = np.asarray(vectors, dtype=bool)
    vals = {name: vectors[:, i] for i, name in enumerate(net.inputs)}
    for name in net.topological_order():
        g = net.gate(name)
        vals[name] = _REF_GATE_FN[g.kind]([vals[i] for i in g.inputs])
    return np.column_stack([vals[o] for o in net.outputs])


def ref_tln_evaluate_many(tln, vectors):
    vectors = np.asarray(vectors, dtype=bool)
    vals = {name: vectors[:, i] for i, name in enumerate(tln.inputs)}
    for nid in tln.topological_order():
        node = tln.nodes[nid]
        s = np.full(vectors.shape[0], node.gate.bias, dtype=np.int64)
        for w, src in zip(node.gate.weights, node.gate.inputs):
            s += w * vals[src]
        vals[nid] = s >= 0
    return np.column_stack([vals[o] for o in tln.outputs])


def ref_verify_equivalence(net, tln, count=None, seed=0):
    """The equivalence check on bool matrices: both evaluators column by
    column on `input_rows`, the first row where any output differs."""
    if list(net.inputs) != list(tln.inputs):
        raise ValueError("primary input mismatch")
    if len(net.outputs) != len(tln.outputs):
        raise ValueError("primary output arity mismatch")
    vectors = input_rows(len(net.inputs), count, seed)
    want = ref_evaluate_many(net, vectors)
    got = ref_tln_evaluate_many(tln, vectors)
    bad = (want != got).any(axis=1).nonzero()[0]
    if bad.size == 0:
        return True, None
    i = int(bad[0])
    return False, {
        "vector": [int(v) for v in vectors[i]],
        "expected": [int(v) for v in want[i]],
        "got": [int(v) for v in got[i]],
    }


def ref_programmed(design, params):
    table = []
    for nid in design.tln.topological_order():
        gate = design.tln.nodes[nid].gate
        levels = list(gate.weights) + bias_chunks(gate.bias)
        gp = np.empty(len(levels))
        gm = np.empty(len(levels))
        for i, w in enumerate(levels):
            gp[i], gm[i] = weight_to_conductance(w, params)
        table.append((nid, gate.inputs, len(gate.weights), gp, gm))
    return table


def ref_simulate_mapped(design, vectors, sigma=0.0, seed=0, params=None):
    params = params or DeviceParams()
    vectors = np.asarray(vectors, dtype=bool)
    rng = np.random.default_rng(seed)
    prog = ref_programmed(design, params)
    vals = {name: vectors[:, i] for i, name in enumerate(design.tln.inputs)}
    for nid, inputs, n_in, gp, gm in prog:
        if sigma > 0.0:
            gp = gp * (1.0 + rng.normal(0.0, sigma, gp.shape))
            gm = gm * (1.0 + rng.normal(0.0, sigma, gm.shape))
        net = gp - gm
        s = np.full(vectors.shape[0], net[n_in:].sum())
        for j, src in enumerate(inputs):
            s = s + net[j] * vals[src]
        vals[nid] = params.delta_v * s >= 0.0
    outputs = np.column_stack([vals[o] for o in design.tln.outputs])
    want = ref_evaluate_many(design.source, vectors)
    bad = (outputs != want).any(axis=1)
    return {"outputs": outputs, "errors": int(bad.sum()),
            "vectors": int(vectors.shape[0])}


def ref_variation_tolerance(design, sigma_grid, vectors_per_probe=10_000,
                            seeds=(0, 1, 2, 3, 4), vector_seed=12345,
                            params=None, early_stop=True):
    """One simulation per (sigma, seed), stopping at the first failure."""
    if list(sigma_grid) != sorted(sigma_grid):
        raise ValueError("sigma grid must be ascending")
    vectors = input_rows(len(design.tln.inputs), vectors_per_probe,
                         vector_seed)
    curve, sigma_star, failed = [], 0.0, False
    for sig in sigma_grid:
        total = 0
        for seed in seeds:
            total += ref_simulate_mapped(design, vectors, sigma=sig,
                                         seed=seed, params=params)["errors"]
            if total and early_stop:
                break
        curve.append((sig, total))
        if total == 0 and not failed:
            sigma_star = sig
        else:
            failed = True
            if early_stop:
                break
    return sigma_star, curve


def ref_lattice(n, w_max):
    """The weight vectors W sorted by (sum|w|, vector), and their int64
    row sums S = W @ rows.T, from a tuple per vector."""
    vals = np.arange(-w_max, w_max + 1)
    W = np.array(list(itertools.product(vals, repeat=n)), dtype=np.int64)
    order = np.lexsort(tuple(W[:, i] for i in reversed(range(n)))
                       + (np.abs(W).sum(axis=1),))
    W = W[order]
    return W, W @ ref_input_rows(n).T


def ref_solve_weights(table, w_max=W_MAX, fanin_limit=4):
    """The solver on the int64 row-sum matrix, one row per weight vector."""
    table = tuple(int(b) for b in table)
    n = tlg._table_arity(table)
    if n > fanin_limit:
        raise ValueError(f"arity {n} exceeds fan-in limit {fanin_limit}")
    W, S = ref_lattice(n, w_max)
    t = np.array(table, dtype=bool)
    b_max = tlg.bias_bound(n, w_max)
    lo = np.full(len(W), -b_max, dtype=np.int64)
    hi = np.full(len(W), b_max, dtype=np.int64)
    if t.any():
        lo = np.maximum(lo, 1 - S[:, t].min(axis=1))
    if (~t).any():
        hi = np.minimum(hi, -1 - S[:, ~t].max(axis=1))
    feasible = lo <= hi
    if not feasible.any():
        return None
    idx = int(np.argmax(feasible))
    b = tlg._pick_bias(int(lo[idx]), int(hi[idx]))
    return ThresholdGate(
        tuple(f"x{i}" for i in range(n)), tuple(int(w) for w in W[idx]), b)


def ref_validate(tln, fanin_limit=4, w_max=W_MAX):
    """One margin computation per node, checks in node order."""
    tln.topological_order()
    for node in tln.nodes.values():
        g = node.gate
        if g.fan_in > fanin_limit:
            raise ValueError(f"{node.id}: fan-in {g.fan_in} > {fanin_limit}")
        if any(w == 0 for w in g.weights):
            raise ValueError(f"{node.id}: zero weight stored")
        if any(abs(w) > w_max for w in g.weights):
            raise ValueError(f"{node.id}: weight magnitude > {w_max}")
        s = ref_input_rows(g.fan_in) @ np.array(g.weights) + g.bias
        if int(np.min(np.abs(s))) < 1:
            raise ValueError(f"{node.id}: margin < 1")
    for o in tln.outputs:
        if o not in tln.nodes and o not in tln.inputs:
            raise ValueError(f"output {o!r} unresolved")


def ref_lower(tln):
    """`ThresholdLogicNetwork.lower` one node at a time: an index dict over
    the sorted signals, per-node `bias_chunks` and dicts of groups."""
    order = tln.topological_order()
    index = {name: i for i, name in enumerate(list(tln.inputs) + order)}
    for o in tln.outputs:
        if o not in index:
            raise ValueError(f"output {o!r} unresolved")
    level = dict.fromkeys(tln.inputs, 0)
    levels, first, groups, bias = [], [], {}, {}
    for nid in order:
        gate = tln.nodes[nid].gate
        k = gate.fan_in
        if k > tlg.TABLE_FAN_IN_LIMIT:
            raise ValueError(f"node {nid}: fan-in {k} above "
                             f"{tlg.TABLE_FAN_IN_LIMIT} cannot be tabulated")
        row = len(levels)
        chunks = bias_chunks(gate.bias)
        levels += gate.weights
        levels += chunks
        first += [row] * (k + len(chunks))
        level[nid] = 1 + max(level[i] for i in gate.inputs)
        groups.setdefault((level[nid], k), []).append(
            (index[nid], [index[i] for i in gate.inputs], row))
        if chunks:
            bias.setdefault(len(chunks), []).append((index[nid], row + k))

    def columns(entries, width):
        nodes, *srcs, rows = (np.array(col, dtype=np.intp)
                              for col in zip(*entries))
        return (nodes, *srcs, rows[:, None] + np.arange(width))

    by_fan_in, spans = {}, []
    for key in sorted(groups):
        entries = by_fan_in.setdefault(key[1], [])
        spans.append((key[1], len(entries), len(entries) + len(groups[key])))
        entries += groups[key]
    fan_ins = {k: columns(entries, k) for k, entries in by_fan_in.items()}
    outputs = np.array([index[o] for o in tln.outputs], dtype=np.intp)
    slot, freed, n_slots = tlg._slot_plan(len(tln.inputs), len(index),
                                          fan_ins, spans, outputs)
    return tlg.Lowered(
        n_inputs=len(tln.inputs), n_signals=len(index),
        levels=np.array(levels, dtype=np.int64),
        first=np.array(first, dtype=np.intp),
        fan_ins=tuple((k, nodes, rows) for k, (nodes, _, rows)
                      in sorted(fan_ins.items())),
        groups=tuple((k, lo, hi, slot[fan_ins[k][0][lo:hi]],
                      slot[fan_ins[k][1][lo:hi]], dead)
                     for (k, lo, hi), dead in zip(spans, freed)),
        bias=tuple(columns(bias[b], b) for b in sorted(bias)),
        outputs=outputs, slot=slot, n_slots=n_slots)


def ref_write_with_feedback(target_r, i_prog, comparator_bits, params,
                            comparator_offset_sigma=0.0, dt=1e-9,
                            t_max=20e-6, seed=0, k_write=devices.K_WRITE):
    """The per-pulse write loop from r_memristor_max."""
    rng = np.random.default_rng(seed)
    r = params.r_memristor_max
    direction = 1.0 if target_r >= r else -1.0
    v_lo = i_prog * params.r_memristor_min
    v_hi = i_prog * params.r_memristor_max
    if math.isfinite(comparator_bits):
        lsb = (v_hi - v_lo) / (2 ** comparator_bits)
        code = round((i_prog * target_r - v_lo) / lsb)
        v_target = v_lo + code * lsb
    else:
        v_target = i_prog * target_r
    v_target += rng.normal(0.0, comparator_offset_sigma)
    step = k_write * i_prog * dt
    t = 0.0
    while t < t_max:
        v = i_prog * r
        if (direction < 0 and v <= v_target) or (direction > 0 and
                                                 v >= v_target):
            break
        r += direction * step
        r = min(max(r, params.r_memristor_min), params.r_memristor_max)
        t += dt
    return abs(r - target_r) / target_r


def ref_write_sim_trials(comparator_bits, i_prog, params, trials=200,
                         comparator_offset_sigma=1e-4, dt=1e-9, t_max=20e-6,
                         seed=0):
    rng = np.random.default_rng(seed)
    errors = []
    for i in range(trials):
        target = rng.uniform(params.r_memristor_min, params.r_memristor_max)
        errors.append(ref_write_with_feedback(
            target, i_prog, comparator_bits, params,
            comparator_offset_sigma=comparator_offset_sigma, dt=dt,
            t_max=t_max, seed=seed * 100003 + i))
    errors = np.array(errors)
    return float(errors.mean()), float(np.quantile(errors, 0.95))


def ref_chain_buffers(level, k, edges):
    """The chain count `assign_stages` minimizes at `level` (name -> level,
    inputs too), recounted over every edge (src, dst)."""
    stage = {name: math.ceil(lvl / k) for name, lvl in level.items()}
    last = {}
    for src, dst in edges:
        last[src] = max(last.get(src, 0), stage[dst])
    return sum(max(0, s - stage[src] - 1) for src, s in last.items())


def ref_assign_stages(tln, k):
    """The start, then sweeps that try every level of each node's window
    and recount the whole chain count for each, then the guard."""
    if k < 1:
        raise ValueError("k must be >= 1")
    asap = tln.assign_levels()
    order = tln.topological_order()
    cons = tln.consumers()
    edges = [(src, nid) for nid in order
             for src in tln.nodes[nid].gate.inputs]
    level = dict(asap)
    for nid in reversed(order):
        if cons[nid] and nid not in tln.outputs:
            level[nid] = min(level[c] for c in cons[nid]) - 1
    for _ in range(3):
        before = dict(level)
        for nid in order:
            if not cons[nid]:
                continue
            lo = max(level[src] for src in tln.nodes[nid].gate.inputs) + 1
            hi = min(level[c] for c in cons[nid]) - 1
            if lo == hi:
                level[nid] = lo
                continue
            cost = {}
            for lvl in range(lo, hi + 1):
                level[nid] = lvl
                cost[lvl] = ref_chain_buffers(level, k, edges)
            level[nid] = min(cost, key=lambda lvl: (cost[lvl], lvl))
        if level == before:
            break
    if ref_chain_buffers(level, k, edges) >= ref_chain_buffers(asap, k, edges):
        level = asap
    for nid, node in tln.nodes.items():
        node.level = level[nid]
        node.stage = math.ceil(level[nid] / k)
    return tln


def ref_rebin(node_ids, tln, rows, cols):
    """Greedy binning, one node and its gate at a time."""
    blocks, cur, used, bias = [], [], set(), 0
    for nid in node_ids:
        gate = tln.nodes[nid].gate
        mine, need = set(gate.inputs), devices.bias_rows(gate.bias)
        if len(mine) + need > rows:
            raise mapping.MappingInfeasible(
                f"node {nid} needs {len(mine) + need} rows, block has {rows}")
        if cur and (len(cur) >= cols
                    or len(used) + len(mine - used) + max(bias, need) > rows):
            blocks.append(cur)
            cur, used, bias = [], set(), 0
        cur.append(nid)
        used |= mine
        bias = max(bias, need)
    if cur:
        blocks.append(cur)
    return blocks


def ref_map_design(tln, source, config=None, fanin_limit=4, w_max=W_MAX):
    """Mapping on a deep copy, scanning every node for each stage."""
    cfg = config or MappingConfig()
    tln = copy.deepcopy(tln)
    mapping.strip_buffers(tln)
    for node in tln.nodes.values():
        need = node.gate.fan_in + devices.bias_rows(node.gate.bias)
        if need > cfg.rows:
            raise mapping.MappingInfeasible(
                f"node {node.id} needs {need} rows, block has {cfg.rows}")
    ref_assign_stages(tln, cfg.k)
    mapping.enforce_capacity(tln, cfg)
    mapping.insert_buffers(tln, cfg.k)
    mapping.split_fanout(tln, cfg.f_max)
    design = mapping.MappedDesign(config=cfg, tln=tln, source=source)
    n_stages = max((n.stage for n in tln.nodes.values()), default=0)
    for s in range(1, n_stages + 1):
        nodes = [nid for nid in tln.nodes if tln.nodes[nid].stage == s]
        design.blocks[s] = partition.rebin(nodes, tln, cfg.rows, cfg.cols)
    mapping.absorb_small_layers(design)
    mapping.reorder_stages(design)
    for s, blocks in design.blocks.items():
        for nid in itertools.chain.from_iterable(blocks):
            tln.nodes[nid].stage = s
    mapping.validate(design, fanin_limit, w_max)
    return design


@contextlib.contextmanager
def reference_passes():
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ThresholdLogicNetwork, "topological_order", ref_tln_order)
        m.setattr(BooleanNetwork, "topological_order", ref_bench_order)
        m.setattr(synthesis, "collapse_tln", ref_collapse_tln)
        m.setattr(mapping, "split_fanout", ref_split_fanout)
        m.setattr(mapping, "reorder_stages", ref_reorder_stages)
        m.setattr(mapping, "map_design", ref_map_design)
        m.setattr(partition, "rebin", ref_rebin)
        yield


# --- netlists ----------------------------------------------------------------

def generated_netlist(seed, n_inputs=10, layers=6, width=10):
    """Seeded layered netlist with wide, XOR and inverter gates.

    Gates are written in shuffled order, so file order is not topological;
    one output is listed twice and two outputs also feed other gates.
    """
    rng = random.Random(seed)
    inputs = [f"i{i}" for i in range(n_inputs)]
    pool, prev, body, read = list(inputs), list(inputs), [], set()
    for li in range(layers):
        layer = []
        for gi in range(width):
            kind = rng.choice(("AND", "OR", "NAND", "NOR", "XOR", "NOT",
                               "BUFF", "NAND", "AND"))
            arity = 1 if kind in ("NOT", "BUFF") else rng.choice((2, 2, 3, 5))
            srcs = [rng.choice(prev)]
            while len(srcs) < min(arity, len(pool)):
                cand = rng.choice(pool)
                if cand not in srcs:
                    srcs.append(cand)
            name = f"g{li}_{gi}"
            body.append(f"{name} = {kind}({', '.join(srcs)})")
            read.update(srcs)
            layer.append(name)
        pool += layer
        prev = layer
    names = [line.split(" = ")[0] for line in body]
    outputs = [g for g in names if g not in read] + [names[-1]]
    outputs += rng.sample(sorted(read & set(names)), 2)
    rng.shuffle(body)
    lines = [f"INPUT({n})" for n in inputs]
    lines += [f"OUTPUT({n})" for n in outputs]
    return parse_bench("\n".join(lines + body) + "\n")


def random_tln(seed):
    """Small random threshold network, inserted in non-topological order."""
    rng = random.Random(seed)
    tln = ThresholdLogicNetwork(inputs=[f"i{j}" for j in range(
        rng.choice((2, 3, 4)))])
    n = rng.randint(3, 14)
    ids = [f"n{j}" for j in range(n)]
    rank = list(range(n))
    rng.shuffle(rank)
    gates, avail = {}, list(tln.inputs)
    for j in sorted(range(n), key=lambda j: rank[j]):
        srcs = rng.sample(avail, min(rng.choice((1, 2, 2, 3)), len(avail)))
        while True:
            w = tuple(2 * rng.choice((-2, -1, 1, 2)) for _ in srcs)
            gate = ThresholdGate(tuple(srcs), w, 2 * rng.randint(-3, 3) - 1)
            if gate_margin(gate) >= 1:
                break
        gates[ids[j]] = gate
        avail.append(ids[j])
    for nid in ids:
        tln.nodes[nid] = TLGNode(nid, gates[nid])
    used = {i for g in gates.values() for i in g.inputs}
    tln.outputs = [x for x in ids if x not in used]
    if rng.random() < 0.5:
        tln.outputs.append(rng.choice(ids))
    return tln


BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
NETLISTS = ["c17", "c432"] + [f"gen{s}" for s in range(4)]


@pytest.fixture(scope="module")
def netlists():
    nets = {"c17": load_bench(BENCH_DIR / "c17.bench"),
            "c432": load_bench(BENCH_DIR / "c432_like.bench")}
    for s in range(4):
        nets[f"gen{s}"] = generated_netlist(s)
    return nets


def _dump(obj):
    return json.dumps(obj, sort_keys=True)


# k and cols, then row budgets that bind (so `rebin` closes blocks on rows
# inside `reorder_stages`), with and without a block budget
CONFIGS = [dict(k=k, cols=c) for k in (1, 2, 3) for c in (32, 8)] + [
    dict(k=2, rows=16, cols=8), dict(k=1, rows=8, cols=16),
    dict(k=2, rows=16, blocks_per_stage=4),
    dict(k=3, rows=8, cols=8, blocks_per_stage=2)]


def _compile(net, fanin):
    tln = synthesize_tln(net, fanin_limit=fanin)
    maps = []
    for cfg in CONFIGS:
        try:
            maps.append(_dump(mapping.map_design(
                tln, net, MappingConfig(**cfg), fanin_limit=fanin).to_json()))
        except mapping.MappingInfeasible:
            maps.append("infeasible")
    return _dump(tln.to_json()), maps


# --- identical output --------------------------------------------------------

@pytest.mark.parametrize("name", NETLISTS)
@pytest.mark.parametrize("fanin", (2, 3, 4))
def test_compile_identical_to_reference(netlists, name, fanin):
    net = netlists[name]
    with reference_passes():
        want = _compile(net, fanin)
    got = _compile(net, fanin)
    assert got[0] == want[0]
    for cfg, g, w in zip(CONFIGS, got[1], want[1]):
        assert g == w, f"mapped JSON differs at {cfg}"


# --- stage schedule ----------------------------------------------------------

_NETGEN = importlib.util.spec_from_file_location(
    "netgen", BENCH_DIR.parent / "perfbench" / "netgen.py")
netgen = importlib.util.module_from_spec(_NETGEN)
_NETGEN.loader.exec_module(netgen)


def _levels_and_edges(tln):
    """name -> level (inputs at 0) and every edge (src, dst) of `tln`."""
    level = dict.fromkeys(tln.inputs, 0)
    level.update((nid, n.level) for nid, n in tln.nodes.items())
    return level, [(src, nid) for nid, n in tln.nodes.items()
                   for src in n.gate.inputs]


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(gates=st.integers(20, 300), layers=st.integers(2, 20),
       xor=st.sampled_from((0, 0.1, 0.5, 1)), seed=st.integers(0, 2 ** 32),
       fanin=st.integers(2, 4), k=st.integers(1, 4),
       f_max=st.sampled_from((2, 8)))
def test_schedule_is_the_reference_and_never_worse_than_asap(
        gates, layers, xor, seed, fanin, k, f_max):
    def schedule_is_the_reference(tln):
        got = mapping.assign_stages(tln.copy(), k)
        want = ref_assign_stages(tln.copy(), k)
        assert ({nid: (n.level, n.stage) for nid, n in got.nodes.items()}
                == {nid: (n.level, n.stage) for nid, n in want.nodes.items()})
        return got

    net = parse_bench(netgen.generate(gates, layers, xor, seed))
    tln = synthesize_tln(net, fanin_limit=fanin)
    got = schedule_is_the_reference(tln)
    asap = tln.copy()
    asap.assign_levels()
    level, edges = _levels_and_edges(got)
    asap_level, _ = _levels_and_edges(asap)
    depth = max(asap_level.values())
    assert all(level[dst] >= level[src] + 1 for src, dst in edges)
    assert max(level.values()) <= depth
    cons = tln.consumers()
    assert all(level[nid] == asap_level[nid] for nid in tln.nodes
               if not cons[nid])
    assert (max(n.stage for n in got.nodes.values())
            == math.ceil(depth / k))
    assert (ref_chain_buffers(level, k, edges)
            <= ref_chain_buffers(asap_level, k, edges))
    design = map_design(tln, net, MappingConfig(k=k, f_max=f_max), fanin)
    assert tlg.prove(design.tln, net)
    # what `map --tln mapped.json` schedules: split copies, no path buffers.
    # f_max 2 can multiply the nodes tenfold, and the reference takes
    # minutes above about 600
    mapping.strip_buffers(design.tln)
    if len(design.tln.nodes) <= 600:
        schedule_is_the_reference(design.tln)


def milp_chain_buffers(tln, k):
    """The least chain count of any schedule within `assign_stages`'s
    bounds, by an integer program: per node its level L and stage S with
    k(S - 1) < L <= kS, L_dst >= L_src + 1, ASAP <= L <= the ASAP depth and
    a node without consumers at its ASAP level; per signal with consumers
    M >= S of each consumer and a chain C >= M - S - 1, C >= 0; minimize
    the sum of C."""
    optimize = pytest.importorskip("scipy.optimize")
    asap = tln.copy().assign_levels()
    depth = max(asap.values())
    cons = tln.consumers()
    nodes = list(tln.nodes)
    read = [u for u in list(tln.inputs) + nodes if cons[u]]
    col = {}  # variable -> column: ("L"|"S", node), ("M"|"C", signal)
    for name in nodes:
        col["L", name], col["S", name] = len(col), len(col) + 1
    for name in read:
        col["M", name], col["C", name] = len(col), len(col) + 1
    lo, hi = np.zeros(len(col)), np.full(len(col), np.inf)
    for name in nodes:
        lo[col["L", name]] = asap[name]
        hi[col["L", name]] = depth if cons[name] else asap[name]
    rows, lb, ub = [], [], []

    def row(terms, low, high=np.inf):
        r = np.zeros(len(col))
        for key, coef in terms:
            if key[1] in tln.nodes or key[0] in "MC":  # an input's S is 0
                r[col[key]] += coef
        rows.append(r)
        lb.append(low)
        ub.append(high)

    for name in nodes:
        row([(("S", name), k), (("L", name), -1)], 0)
        row([(("L", name), 1), (("S", name), -k)], 1 - k)
        for src in tln.nodes[name].gate.inputs:
            row([(("L", name), 1), (("L", src), -1)], 1)
    for name in read:
        for c in cons[name]:
            row([(("M", name), 1), (("S", c), -1)], 0)
        row([(("C", name), 1), (("M", name), -1), (("S", name), 1)], -1)
    cost = np.zeros(len(col))
    cost[[col["C", name] for name in read]] = 1
    res = optimize.milp(cost, integrality=np.ones(len(col)),
                        bounds=optimize.Bounds(lo, hi),
                        constraints=optimize.LinearConstraint(
                            np.array(rows), lb, ub))
    assert res.success, res.message
    return round(res.fun)


def small_network(seed):
    """A generated network of at most 30 nodes and a k, both from `seed`."""
    rng = random.Random(seed)
    gates, layers = rng.randint(16, 30), rng.randint(4, 10)
    fanin, k = rng.choice((2, 3, 4)), rng.choice((1, 2, 3))
    while True:
        net = parse_bench(netgen.generate(gates, layers, 0.1, seed))
        tln = synthesize_tln(net, fanin_limit=fanin)
        if len(tln.nodes) <= 30:
            return tln, k
        gates -= 2


@pytest.mark.parametrize("seed", range(24))
def test_schedule_between_the_exact_minimum_and_asap(seed):
    tln, k = small_network(seed)
    asap = tln.copy()
    asap.assign_levels()
    got = mapping.assign_stages(tln.copy(), k)
    (level, edges), (asap_level, _) = map(_levels_and_edges, (got, asap))
    assert (milp_chain_buffers(tln, k) <= ref_chain_buffers(level, k, edges)
            <= ref_chain_buffers(asap_level, k, edges))


def test_absorbed_nodes_keep_the_stage_of_their_block():
    # absorption moved g299_3 into stage 439, and renumbering the stages
    # above once left its stored stage at 440. Re-binned at 8 x 8, the
    # blocks that kept the old binning needed 10 rows
    net = parse_bench(netgen.generate(1200, 300, 0.1, 2))
    design = map_design(synthesize_tln(net, fanin_limit=2), net,
                        MappingConfig(k=1), 2)
    assert "g299_3" in design.absorbed
    for s in design.blocks:
        assert all(design.tln.nodes[nid].stage == s
                   for nid in design.stage_nodes(s))
    d8 = partition.repartition(design, 8, 8)
    assert mapping.validate(d8)
    assert all(d8.tln.nodes[nid].stage == s
               for s in d8.blocks for nid in d8.stage_nodes(s))


def test_every_rebinning_is_a_valid_design():
    # `repartition` kept the stages around absorbed nodes at the old
    # dimensions: 10 of these 144 re-binnings, and variation-mc's gen400
    # at 16 and 32, failed `validate`
    grid = [(gates, seed, fanin, k, (8, 16, 32, 64))
            for gates, seed, fanin, k in itertools.product(
                (300, 600, 1200), range(3), (2, 4), (1, 2))]
    grid.append((400, "variation-mc", 4, 2, (16, 32, 64, 128)))
    absorbing = 0
    for gates, seed, fanin, k, dims in grid:
        layers = 16 if gates == 400 else gates // 4
        net = parse_bench(netgen.generate(gates, layers, 0.1, seed))
        design = map_design(synthesize_tln(net, fanin_limit=fanin), net,
                            MappingConfig(k=k), fanin)
        before = json.dumps(design.to_json(), sort_keys=True)
        for d in dims:
            out = partition.repartition(design, d, d)
            assert mapping.validate(out)
            absorbing += bool(out.backward_edges)
            if not design.absorbed and not out.backward_edges:
                # without absorption it is the stages' own re-binning
                assert out.blocks == {
                    s: partition.rebin(design.stage_nodes(s), design.tln, d, d)
                    for s in design.blocks}
        assert json.dumps(design.to_json(), sort_keys=True) == before
    assert absorbing >= 20


def graph_order(nodes, sources):
    """`graph.topological_order` of the view of (name, inputs) pairs, as
    names."""
    v = graph.view(sources, [name for name, _ in nodes],
                   [inputs for _, inputs in nodes])
    return [v.names[i] for i in graph.topological_order(v).tolist()]


def ref_passes(nodes, sources):
    """The number of sweeps `ref_order` takes on an acyclic network."""
    seen, pending, passes = set(sources), list(nodes), 0
    while pending:
        passes += 1
        rest = []
        for name, inputs in pending:
            if all(i in seen for i in inputs):
                seen.add(name)
            else:
                rest.append((name, inputs))
        pending = rest
    return passes


def _hidden_order_nodes(rng, n, shape, window=None):
    """n nodes reading the node just before them in a hidden topological
    order, a shuffle of insertion order or its reverse, and up to two more
    among the sources a, b and the `window` nodes before them. Every
    descent of that order is one more sweep."""
    names = [f"n{i}" for i in range(n)]
    ranked = names[::-1] if shape == "reversed" else rng.sample(names, n)
    rank = {name: r for r, name in enumerate(ranked)}
    window = window or rng.choice((1, 2, 4, n))
    nodes = []
    for name in names:
        earlier = ["a", "b"] + ranked[max(0, rank[name] - window):rank[name]]
        nodes.append((name, earlier[-1:] + [rng.choice(earlier)
                                            for _ in range(rng.randint(0, 2))]))
    return nodes


@pytest.mark.parametrize("seed", range(40))
def test_topological_order_matches_rescan(seed):
    rng = random.Random(seed)
    n = rng.choice((rng.randint(1, 40), rng.randint(100, 300)))
    nodes = _hidden_order_nodes(rng, n, ("shuffled", "reversed")[seed % 2])
    assert graph_order(nodes, ["a", "b"]) == ref_order(nodes, ["a", "b"])


def test_topological_order_takes_many_sweeps_on_the_rescan_cases():
    rng = random.Random(0)
    nodes = _hidden_order_nodes(rng, 300, "reversed", window=1)
    assert ref_passes(nodes, ["a", "b"]) > 100
    assert graph_order(nodes, ["a", "b"]) == ref_order(nodes, ["a", "b"])


def test_topological_order_cycle_leftover_matches_rescan():
    nodes = [("x", ("a",)), ("y", ("z",)), ("z", ("y",)), ("w", ("z", "x")),
             ("v", ("x",))]
    with pytest.raises(graph.CycleError) as got:
        graph_order(nodes, ["a"])
    with pytest.raises(graph.CycleError) as want:
        ref_order(nodes, ["a"])
    assert got.value.leftover == want.value.leftover == ["y", "z", "w"]


UNORDERED = {  # (name, inputs) pairs over the source a
    "unknown input": [("x", ("a",)), ("y", ("nowhere",)), ("z", ("y", "x")),
                      ("v", ("x",))],
    "self loop": [("x", ("a",)), ("y", ("y",)), ("v", ("x",))],
    # seven nodes left, so the Boolean message shows only five
    "cycle": [("x", ("a",))] + [(f"c{i}", (f"c{(i + 1) % 5}", "x"))
                                for i in range(5)]
             + [("d", ("c0",)), ("e", ("d", "a")), ("v", ("x",))],
}


@pytest.mark.parametrize("case", UNORDERED)
def test_networks_refuse_an_unordered_network_as_the_rescan(case):
    nodes = UNORDERED[case]
    tln = ThresholdLogicNetwork(inputs=["a"], outputs=["v"])
    for name, inputs in nodes:
        tln.nodes[name] = TLGNode(name, ThresholdGate(
            inputs, (2,) * len(inputs), -1))
    net = BooleanNetwork(("a",), ("v",), tuple(
        Gate(name, "AND", inputs) for name, inputs in nodes))
    want = _message(ref_tln_order, tln)
    assert want == "cycle in threshold network"
    for check in (ThresholdLogicNetwork.topological_order,
                  ThresholdLogicNetwork.assign_levels,
                  ThresholdLogicNetwork.lower, ThresholdLogicNetwork.validate,
                  ref_validate):
        assert _message(check, tln) == want
    with pytest.raises(BenchError) as want:
        ref_bench_order(net)
    with pytest.raises(BenchError) as got:
        net.topological_order()
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("cycle detected among gates: ")


def test_collapse_merge_count_matches_reference(netlists):
    for name, fanin, w_max in itertools.product(NETLISTS, (2, 3, 4),
                                                (2, 3, 6)):
        tln = synthesize_tln(netlists[name], fanin, collapse=False)
        ref = copy.deepcopy(tln)
        assert synthesis.collapse_tln(tln, fanin, w_max) == \
            ref_collapse_tln(ref, fanin, w_max), (name, fanin, w_max)
        assert _dump(tln.to_json()) == _dump(ref.to_json())


@pytest.mark.parametrize("fanin", (2, 3, 4))
def test_synthesis_inserts_nodes_in_topological_order(netlists, fanin):
    # collapse merges in reverse insertion order, reverse topological
    # only because this holds
    for name in NETLISTS:
        tln = synthesize_tln(netlists[name], fanin, collapse=False)
        assert list(tln.nodes) == tln.topological_order(), name
        synthesis.collapse_tln(tln, fanin)
        assert list(tln.nodes) == tln.topological_order(), name


@pytest.mark.parametrize("f_max", (2, 3, 8))
def test_split_fanout_matches_reference(netlists, f_max):
    for name in NETLISTS:
        tln = synthesize_tln(netlists[name], fanin_limit=2)
        mapping.assign_stages(tln, 2)
        mapping.insert_buffers(tln, 2)
        ref = copy.deepcopy(tln)
        assert mapping.split_fanout(tln, f_max) == ref_split_fanout(ref, f_max)
        assert tln.outputs == ref.outputs
        assert _dump(tln.to_json()) == _dump(ref.to_json())


# Seeds 479 and 2433: found by search as networks where a producer's
# inputs must be re-queued after its merge, and 51 as one where the
# consumer's old inputs must be, for the worklist to make the rescan's
# choices.
@pytest.mark.parametrize("seeds", [(51, 479, 2433), range(60)])
def test_collapse_random_networks_match_reference(seeds):
    for seed in seeds:
        # collapse is given networks in topological insertion order, as
        # synthesis builds them
        shuffled = random_tln(seed)
        base = ThresholdLogicNetwork(inputs=shuffled.inputs,
                                     outputs=shuffled.outputs)
        for nid in shuffled.topological_order():
            base.add_node(nid, shuffled.nodes[nid].gate)
        for fanin, w_max in itertools.product((2, 3, 4), (2, 3, 6)):
            tln, ref = copy.deepcopy(base), copy.deepcopy(base)
            assert synthesis.collapse_tln(tln, fanin, w_max) == \
                ref_collapse_tln(ref, fanin, w_max), seed
            assert _dump(tln.to_json()) == _dump(ref.to_json()), seed


# --- one threshold step and one row generator -------------------------------

@pytest.fixture(scope="module")
def compiled(netlists):
    """(netlist, fan-in) -> (TLN, design mapped at k = fan-in - 1)."""
    cache = {}

    def get(name, fanin):
        if (name, fanin) not in cache:
            net = netlists[name]
            tln = synthesize_tln(net, fanin_limit=fanin)
            cache[name, fanin] = tln, map_design(
                tln, net, MappingConfig(k=fanin - 1), fanin_limit=fanin)
        return cache[name, fanin]

    return get


def test_input_rows_match_reference():
    for n in range(17):
        rows = input_rows(n)
        assert rows.dtype == bool and rows.shape == (2 ** n, n)
        # the int64 broadcast the rows were built from
        want = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        assert (rows == want.astype(bool)).all()
        if n < 7:
            assert (rows == ref_input_rows(n)).all()
        assert (input_rows(n, 2 ** n, seed=3) == rows).all()
    # the seeded stream full_report and variation_tolerance always drew
    want = np.random.default_rng(3).integers(0, 2, size=(50, 9)).astype(bool)
    assert (input_rows(9, 50, seed=3) == want).all()


def ref_pack(rows):
    """`bench.pack` as it was: packbits on the strided transposed view."""
    rows = np.asarray(rows, dtype=bool)
    count, n = rows.shape
    out = np.zeros((n, -(-count // 64) * 8), dtype=np.uint8)
    out[:, :-(-count // 8)] = np.packbits(rows.T, axis=1, bitorder="little")
    return out.view("<u8")


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(n=st.integers(1, 70), count=st.integers(1, 3000),
       seed=st.integers(0, 2 ** 63))
@example(n=7, count=13, seed=0)         # odd count * n, one word half-read
@example(n=9, count=50, seed=3)
@example(n=64, count=1024, seed=5)      # exactly one read of RAW_WORDS
@example(n=23, count=2851, seed=6)      # odd, just past one read
@example(n=70, count=3000, seed=2 ** 63)
def test_drawn_rows_are_the_integers_stream(n, count, seed):
    assume(2 ** n > count)
    want = np.random.default_rng(seed).integers(0, 2, size=(count, n))
    got = input_rows(n, count, seed)
    assert got.dtype == bool and got.shape == (count, n)
    assert (got == want.astype(bool)).all()
    words = pack(got)
    assert words.dtype == np.dtype("<u8")
    assert (words == ref_pack(got)).all()
    # a column-major copy packs to the same words
    assert (pack(np.asfortranarray(got)) == words).all()


@pytest.mark.parametrize("raw_words", [1, 2, 3, 1000])
def test_drawn_rows_do_not_depend_on_the_read_size(monkeypatch, raw_words):
    want = input_rows(17, 4001, seed=8)
    monkeypatch.setattr(tlg, "RAW_WORDS", raw_words)
    assert (input_rows(17, 4001, seed=8) == want).all()


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(n=st.integers(1, 70), count=st.integers(1, 5000),
       seed=st.integers(0, 2 ** 63),
       raw_words=st.sampled_from((1, 7, 100, 672, tlg.RAW_WORDS)))
@example(n=7, count=13, seed=0, raw_words=tlg.RAW_WORDS)   # odd count * n
@example(n=7, count=1001, seed=4, raw_words=672)  # 3 words a block: odd m n
@example(n=64, count=1024, seed=5, raw_words=tlg.RAW_WORDS)  # one block
@example(n=70, count=5000, seed=2 ** 63, raw_words=tlg.RAW_WORDS)
def test_input_words_pack_the_integers_stream(n, count, seed, raw_words):
    assume(2 ** n > count)
    want = np.random.default_rng(seed).integers(0, 2, size=(count, n))
    with unittest.mock.patch.object(tlg, "RAW_WORDS", raw_words):
        got = tlg.input_words(n, count, seed)
    assert got.dtype == np.dtype("<u8")
    assert got.shape == (n, -(-count // 64))
    assert (got == ref_pack(want.astype(bool))).all()


def test_input_words_pack_every_row_when_count_covers_them():
    for n in range(13):
        want = ref_pack(ref_input_rows(n).astype(bool))
        for count in (None, 2 ** n, 2 ** n + 1):
            assert (tlg.input_words(n, count, seed=3) == want).all()


def test_gate_margin_and_truth_table_match_reference():
    rng = random.Random(0)
    levels = [w for w in range(-W_MAX, W_MAX + 1) if w]
    for _ in range(300):
        n = rng.randint(1, 4)
        gate = ThresholdGate(tuple(f"x{i}" for i in range(n)),
                             tuple(rng.choice(levels) for _ in range(n)),
                             rng.randint(-25, 25))
        s = ref_input_rows(n) @ np.array(gate.weights) + gate.bias
        assert gate_margin(gate) == int(np.min(np.abs(s)))
        assert truth_table(gate) == tuple(int(v) for v in s >= 0)


def test_lattice_row_sums_match_reference():
    # past n * w_max = 126 the lattice needs int16; at fan-in 3 and above
    # w_max 70 would take the int64 reference hundreds of MB
    cases = [*itertools.product(range(5), (2, 3, 6)), (0, 70), (1, 70),
             (2, 70)]
    for n, w_max in cases:
        W, rows = tlg._lattice_entry(n, w_max)
        want_W, want_S = ref_lattice(n, w_max)
        narrow = np.int8 if n * w_max <= 126 else np.int16
        assert W.dtype == rows.dtype == narrow
        assert rows.shape == (2 ** n, len(want_W))
        assert rows.flags.c_contiguous
        assert (W == want_W).all()
        assert (rows == want_S.T).all()


def test_first_lattice_build_stays_narrow(monkeypatch):
    # the fan-in 4 lattice holds 28,561 weight vectors: its rows take
    # 457 KB as int8, and its int64 row sums alone took 3.7 MB
    monkeypatch.setattr(tlg, "_lattice_cache", {})
    tracemalloc.start()
    try:
        W, rows = tlg._lattice_entry(4, W_MAX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.nbytes + W.nbytes < 600_000
    assert peak < 2_000_000


@pytest.mark.parametrize("seed", range(40))
def test_merged_table_matches_reference(seed):
    tln = random_tln(seed)
    cons = tln.consumers()
    for nid, producer in tln.nodes.items():
        for cid in set(cons[nid]):
            consumer = tln.nodes[cid]
            support = [i for i in consumer.gate.inputs if i != nid]
            support += [i for i in producer.gate.inputs if i not in support]
            assert synthesis._merged_table(producer, consumer, support) == \
                ref_merged_table(producer, consumer, support)


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(net_seed=st.integers(0, 99), n_inputs=st.integers(2, 12),
       edits=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(-1, 3),
                                st.sampled_from((-3, -2, -1, 1, 2, 3))),
                      max_size=3),
       count=st.one_of(st.none(), st.integers(1, 5000)),
       seed=st.integers(0, 2 ** 32))
@example(net_seed=0, n_inputs=12, edits=[(5, -1, 1)], count=None, seed=0)
@example(net_seed=1, n_inputs=12, edits=[(7, 0, -1)], count=1001, seed=4)
@example(net_seed=2, n_inputs=10, edits=[(3, -1, -1)], count=1024, seed=1)
@example(net_seed=3, n_inputs=12, edits=[(9, -1, 2)], count=4097, seed=2)
def test_verify_equivalence_matches_the_bool_matrix_check(
        net_seed, n_inputs, edits, count, seed):
    # +-bias and +-weight mutants: the counterexample is the first failing
    # row of the bool-matrix check, every row when count >= 2^n
    net = generated_netlist(net_seed, n_inputs=n_inputs)
    tln = synthesize_tln(net).copy()
    ids = list(tln.nodes)
    for at, pos, delta in edits:
        node = tln.nodes[ids[at % len(ids)]]
        g = node.gate
        if pos < 0:
            node.gate = ThresholdGate(g.inputs, g.weights, g.bias + delta)
        else:
            w = list(g.weights)
            w[pos % g.fan_in] += delta
            node.gate = ThresholdGate(g.inputs, tuple(w), g.bias)
    got = synthesis.verify_equivalence(net, tln, count, seed)
    assert got == ref_verify_equivalence(net, tln, count, seed)
    ok, ce = got
    if not ok:
        assert {type(v) for f in ce.values() for v in f} == {int}
        assert (len(ce["vector"]), len(ce["got"])) == (n_inputs,
                                                       len(net.outputs))


def test_exhaustive_verify_stays_within_its_words():
    # 2^20 rows: the int64 (rows, inputs) broadcast alone took 168 MB;
    # tracemalloc counts the bytes requested, whatever the machine
    net = generated_netlist(0, n_inputs=20)
    tln = synthesize_tln(net)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ok, _ = synthesis.verify_equivalence(net, tln)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("name", NETLISTS)
@pytest.mark.parametrize("fanin", (2, 3, 4))
def test_evaluators_match_reference(compiled, name, fanin):
    tln, design = compiled(name, fanin)
    params = DeviceParams()
    vectors = input_rows(len(tln.inputs), 2000, seed=fanin)
    assert (tln.evaluate_many(vectors) ==
            ref_tln_evaluate_many(tln, vectors)).all()
    for sigma in (0.0, 0.05, 0.5):
        got = simulate_mapped(design, vectors, sigma, seed=fanin,
                              params=params)
        want = ref_simulate_mapped(design, vectors, sigma, seed=fanin,
                                   params=params)
        assert got["errors"] == want["errors"], sigma
        assert got["vectors"] == want["vectors"]
        assert (got["outputs"] == want["outputs"]).all(), sigma


BENCH_KINDS = ("AND", "OR", "NAND", "NOR", "XOR", "NOT", "BUFF")


@st.composite
def small_netlists(draw):
    """Netlists with repeated gate arguments, outputs listed twice and
    outputs aliased to primary inputs."""
    names = [f"i{j}" for j in range(draw(st.integers(1, 5)))]
    lines = [f"INPUT({x})" for x in names]
    for g in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(BENCH_KINDS))
        arity = 1 if kind in ("NOT", "BUFF") else draw(st.integers(2, 5))
        srcs = draw(st.lists(st.sampled_from(names), min_size=arity,
                             max_size=arity))
        lines.append(f"g{g} = {kind}({', '.join(srcs)})")
        names.append(f"g{g}")
    outs = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4))
    lines += [f"OUTPUT({o})" for o in outs]
    return parse_bench("\n".join(lines) + "\n")


@settings(derandomize=True, max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(net=small_netlists(), fanin=st.integers(2, 4), k=st.integers(1, 3))
def test_sigma_zero_simulation_equals_oracle(net, fanin, k):
    tln = synthesize_tln(net, fanin_limit=fanin)
    design = map_design(tln, net, MappingConfig(k=k), fanin_limit=fanin)
    vectors = input_rows(len(net.inputs))
    sim = simulate_mapped(design, vectors)
    assert sim["errors"] == 0
    assert (sim["outputs"] == evaluate_many(net, vectors)).all()


# layered netlists wide enough that one block per stage binds and still fits
LAYERED = st.builds(generated_netlist, seed=st.integers(0, 99),
                    n_inputs=st.integers(6, 10), layers=st.integers(4, 8),
                    width=st.integers(5, 10))


@settings(derandomize=True, max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(net=st.one_of(small_netlists(), LAYERED), fanin=st.integers(2, 4),
       k=st.integers(1, 3), cols=st.sampled_from((4, 8, 16, 32)),
       f_max=st.sampled_from((2, 3, 8)), blocks=st.sampled_from((1, 2)))
# the second fan-out split reused the first one's copy ids
@example(net=generated_netlist(0), fanin=3, k=3, cols=32, f_max=2, blocks=2)
def test_capacity_limited_map_is_exact_or_infeasible(net, fanin, k, cols,
                                                     f_max, blocks, deadline):
    tln = synthesize_tln(net, fanin_limit=fanin)
    cfg = MappingConfig(k=k, cols=cols, blocks_per_stage=blocks, f_max=f_max)
    vectors = input_rows(len(net.inputs))
    # the sweep alone: every stage fits, buffers and fan-out copies
    # included, or it says which stage could not keep a node
    staged = mapping.assign_stages(tln.copy(), k)
    with deadline(20):
        try:
            mapping.enforce_capacity(staged, cfg)
        except mapping.MappingInfeasible as e:
            assert "pass-through" in str(e)
        else:
            mapping.insert_buffers(staged, k)
            mapping.split_fanout(staged, f_max)
            load = Counter(n.stage for n in staged.nodes.values())
            assert max(load.values(), default=0) <= cols * blocks
            assert (staged.evaluate_many(vectors) ==
                    tln.evaluate_many(vectors)).all()
    # the whole map
    with deadline(20):
        try:
            design = map_design(tln, net, cfg, fanin_limit=fanin)
        except mapping.MappingInfeasible:
            return
    assert mapping.validate(design, fanin_limit=fanin)
    sim = simulate_mapped(design, vectors)
    assert sim["errors"] == 0
    assert (sim["outputs"] == evaluate_many(net, vectors)).all()
    again = map_design(tln, net, cfg, fanin_limit=fanin)
    assert _dump(again.to_json()) == _dump(design.to_json())
    # every stage keeps a node that is not a pass-through buffer
    kept = design.tln.copy()
    mapping.strip_buffers(kept)
    assert all(any(nid in kept.nodes for nid in design.stage_nodes(s))
               for s in design.blocks)
    assert design.n_stages <= len(kept.nodes)


# --- bit-packed, seed-batched simulation ------------------------------------

BATCH_SEEDS = (3, 4, 5)
# 63, 64 and 65 vectors end just inside, exactly at and just past a word
VECTOR_COUNTS = (1, 63, 64, 65, 2000)


def _batch(design, vectors, sigma, seeds, params):
    low = tlg.lowered(design.tln, design.source)
    return tlg.check(low, design.source, pack(vectors), len(vectors),
                     programmed(low, params, sigma, seeds))


@pytest.mark.parametrize("name", NETLISTS)
@pytest.mark.parametrize("fanin", (2, 3, 4))
def test_batched_simulation_matches_reference_per_seed(compiled, name,
                                                       fanin):
    _, design = compiled(name, fanin)
    params = DeviceParams()
    n = len(design.tln.inputs)
    for count in VECTOR_COUNTS:
        vectors = np.random.default_rng(count).integers(
            0, 2, size=(count, n)).astype(bool)
        for sigma in (0.0, 0.05, 0.5):
            out, errors = _batch(design, vectors, sigma, BATCH_SEEDS, params)
            # at sigma 0 one row stands for every seed
            assert len(out) == len(errors) == (len(BATCH_SEEDS) if sigma
                                               else 1)
            for r, (seed, e) in enumerate(zip(BATCH_SEEDS, errors)):
                want = ref_simulate_mapped(design, vectors, sigma, seed,
                                           params)
                key = (count, sigma, seed)
                assert e == want["errors"], key
                assert (unpack(out.row(r), count).T ==
                        want["outputs"]).all(), key


def test_batched_simulation_with_many_bias_rows_matches_reference():
    # more than 7 bias rows: the bias constant is summed one row at a time
    net = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n"
                      "y = AND(a, b)\nz = BUFF(a)\n")
    tln = ThresholdLogicNetwork(inputs=["a", "b"], outputs=["y", "z"])
    tln.add_node("y", ThresholdGate(("a", "b"), (2, 2), -3))
    tln.add_node("z", ThresholdGate(("a", "b"), (6, 2), -51))
    design = map_design(tln, net, MappingConfig(k=1, rows=16))
    assert len(bias_chunks(-51)) == 9
    params = DeviceParams()
    vectors = input_rows(2)
    out, errors = _batch(design, vectors, 0.5, BATCH_SEEDS, params)
    for r, (seed, e) in enumerate(zip(BATCH_SEEDS, errors)):
        want = ref_simulate_mapped(design, vectors, 0.5, seed, params)
        assert e == want["errors"] > 0
        assert (unpack(out.row(r), 4).T == want["outputs"]).all()


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(net=small_netlists(), fanin=st.integers(2, 4),
       count=st.sampled_from(VECTOR_COUNTS), seed=st.integers(0, 3))
def test_overlay_rows_match_each_row_evaluated_alone(net, fanin, count,
                                                     seed):
    # rows after row 0 are overlays on it; a row evaluated alone is row 0
    low = synthesize_tln(net, fanin_limit=fanin).lower()
    params = DeviceParams()
    base = programmed(low, params, 0.0, BATCH_SEEDS)
    stacked = np.concatenate([base, base,
                              programmed(low, params, 0.05, BATCH_SEEDS),
                              programmed(low, params, 0.5, BATCH_SEEDS)])
    words = pack(np.random.default_rng(seed).integers(
        0, 2, size=(count, len(net.inputs))).astype(bool))
    out = tlg.evaluate_lowered(low, words, stacked)
    assert len(out) == len(stacked)
    for i, row in enumerate(stacked):
        alone = tlg.evaluate_lowered(low, words, row[None])
        assert (out.row(i) == alone.row(0)).all(), i


def ref_lowered_outputs(tln, row, vectors):
    """Each output of `tln` under one row of crossbar levels of its
    `lower()`, one node at a time: a node's rows are its weights, then its
    bias chunks, in topological order."""
    vectors = np.asarray(vectors, dtype=bool)
    vals = {name: vectors[:, i] for i, name in enumerate(tln.inputs)}
    at = 0
    for nid in tln.topological_order():
        gate = tln.nodes[nid].gate
        k, b = gate.fan_in, len(bias_chunks(gate.bias))
        s = np.full(len(vectors), row[at + k:at + k + b].sum())
        for w, src in zip(row[at:at + k], gate.inputs):
            s = s + w * vals[src]
        vals[nid] = s >= 0
        at += k + b
    return np.column_stack([vals[o] for o in tln.outputs])


def _kernel_case_tln():
    """Output y is listed twice and read by the later z, the primary input
    a is an output, and `dead` is read by nothing and is no output."""
    tln = ThresholdLogicNetwork(inputs=["a", "b", "c"])
    tln.add_node("y", ThresholdGate(("a", "b"), (2, 2), -3))
    tln.add_node("dead", ThresholdGate(("b", "c"), (2, 2), -1))
    tln.add_node("z", ThresholdGate(("y", "c"), (2, -2), -1))
    tln.add_node("w", ThresholdGate(("z", "b", "c"), (2, 2, 2), -3))
    tln.outputs = ["y", "a", "z", "y", "w"]
    tln.validate()
    return tln


@pytest.mark.parametrize("count", VECTOR_COUNTS)
def test_overlay_rows_keep_repeated_input_and_read_outputs(count):
    tln = _kernel_case_tln()
    low = tln.lower()
    params = DeviceParams()
    base = programmed(low, params, 0.0, BATCH_SEEDS)
    stacked = np.concatenate([base, programmed(low, params, 0.5, range(8)),
                              base])
    vectors = np.random.default_rng(count).integers(
        0, 2, size=(count, 3)).astype(bool)
    words = pack(vectors)
    out = tlg.evaluate_lowered(low, words, stacked)
    assert len(out) == len(stacked)
    # some row differs at an output, so overlays reach the outputs
    assert any((out.index[r] != out.index[0]).any()
               for r in range(len(out)))
    for i, row in enumerate(stacked):
        got = out.row(i)
        assert (got == tlg.evaluate_lowered(low, words, row[None]).row(0)
                ).all(), i
        assert (unpack(got, count).T ==
                ref_lowered_outputs(tln, row, vectors)).all(), i
    assert (unpack(out.row(0), count).T ==
            ref_tln_evaluate_many(tln, vectors)).all()


def ref_live_signals(tln):
    """Per (ASAP level, fan-in) group in order, the signals alive in it: a
    signal lives from the group that makes it (an input: the first)
    through the last group that reads it (an output: the last)."""
    order = tln.topological_order()
    level = dict.fromkeys(tln.inputs, 0)
    for nid in order:
        level[nid] = 1 + max(level[i] for i in tln.nodes[nid].gate.inputs)
    key = {nid: (level[nid], tln.nodes[nid].gate.fan_in) for nid in order}
    groups = sorted(set(key.values()))
    made = dict.fromkeys(tln.inputs, 0)
    made.update((nid, groups.index(key[nid])) for nid in order)
    dies = dict(made)
    for nid in order:
        for i in tln.nodes[nid].gate.inputs:
            dies[i] = max(dies[i], made[nid])
    dies.update(dict.fromkeys(tln.outputs, len(groups)))
    return [[name for name in made if made[name] <= g <= dies[name]]
            for g in range(len(groups))]


@settings(derandomize=True, max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(net=small_netlists(), fanin=st.integers(2, 4), k=st.integers(0, 2))
def test_slot_plan_holds_the_most_signals_alive_at_once(net, fanin, k):
    tln = synthesize_tln(net, fanin_limit=fanin)
    if k:  # buffers and fan-out copies
        tln = map_design(tln, net, MappingConfig(k=k),
                         fanin_limit=fanin).tln
    low = tln.lower()
    index = {name: i for i, name in
             enumerate(list(tln.inputs) + tln.topological_order())}
    live = ref_live_signals(tln)
    assert low.n_slots == max([len(tln.inputs)] + [len(s) for s in live])
    for signals in live:  # no two live signals share a slot
        slots = low.slot[[index[name] for name in signals]]
        assert len(set(slots.tolist())) == len(signals)
    assert (low.slot < low.n_slots).all()


def test_variation_tolerance_memory_follows_live_signals():
    # a deep network, whose live signals are few next to all of them;
    # tracemalloc counts the bytes requested, whatever the machine
    net = generated_netlist(1, n_inputs=24, layers=60, width=12)
    design = map_design(synthesize_tln(net), net, MappingConfig())
    low = design.tln.lower()
    count = 32_000
    row_bytes = -(-count // 64) * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, curve = variation_tolerance(design, (0.04, 0.08), count,
                                       seeds=(0, 1), early_stop=False,
                                       params=DeviceParams())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert curve[-1][1] > 0  # overlays reach the outputs
    # a row of words per (probe row, slot) pair, 5 per slot here, is less
    # than one per signal; the kernel's word pool grows by use, and the
    # whole call stays below even that reservation
    assert 5 * low.n_slots < low.n_signals / 2
    assert peak < 5 * low.n_slots * row_bytes


@pytest.mark.parametrize("name,fanin", [("c17", 4), ("c432", 4),
                                        ("gen1", 3), ("gen2", 2)])
def test_variation_tolerance_matches_per_seed_loop(compiled, name, fanin):
    _, design = compiled(name, fanin)
    grid = (0.0, 0.03, 0.06, 0.1, 0.2, 0.5)
    kw = dict(vectors_per_probe=2000, seeds=(0, 1, 2, 3, 4), vector_seed=7,
              params=DeviceParams())
    for early_stop in (True, False):
        got = variation_tolerance(design, grid, early_stop=early_stop, **kw)
        want = ref_variation_tolerance(design, grid, early_stop=early_stop,
                                       **kw)
        assert got == want, early_stop


@pytest.mark.parametrize("name", ["c17", "c432"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_report_counts_the_errors_of_simulate_mapped(compiled, name,
                                                          seed):
    # the report simulates packed words and never unpacks its outputs
    _, design = compiled(name, 4)
    params = DeviceParams()
    rep = evaluate.full_report(design, params, sigma=0.1, vectors=3000,
                               seed=seed)
    sim = simulate_mapped(design,
                          input_rows(len(design.tln.inputs), 3000, seed),
                          sigma=0.1, seed=seed, params=params)
    assert (rep["errors"], rep["vectors"]) == (sim["errors"],
                                               sim["vectors"])
    assert rep == {**evaluate.full_report(design, params, vectors=3000,
                                          seed=seed),
                   "sigma": 0.1, "errors": sim["errors"]}


def test_variation_tolerance_early_stop_counts_first_failing_seed(compiled):
    # at 0.1 seed 0 passes and seed 1 fails, so the early-stopped count is
    # seed 1's alone; the full count adds the later seeds
    _, design = compiled("c17", 4)
    params, seeds = DeviceParams(), (0, 1, 2, 3, 4)
    vectors = input_rows(5)
    per_seed = [ref_simulate_mapped(design, vectors, 0.1, seed,
                                    params)["errors"] for seed in seeds]
    assert per_seed[0] == 0 < per_seed[1] < sum(per_seed)
    for early_stop, total in ((True, per_seed[1]), (False, sum(per_seed))):
        assert variation_tolerance(design, [0.0, 0.1], 32, seeds,
                                   params=params, early_stop=early_stop) \
            == (0.0, [(0.0, 0), (0.1, total)])


def test_packed_oracle_matches_column_wise_oracle(netlists):
    for name in NETLISTS:
        net = netlists[name]
        for count in VECTOR_COUNTS:
            vectors = input_rows(len(net.inputs), count, seed=count)
            got = evaluate_many(net, vectors)
            assert got.dtype == bool
            assert (got == ref_evaluate_many(net, vectors)).all(), name


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(net=small_netlists(), count=st.sampled_from(VECTOR_COUNTS),
       seed=st.integers(0, 3))
def test_packed_oracle_matches_column_wise_oracle_on_generated(net, count,
                                                               seed):
    vectors = np.random.default_rng(seed).integers(
        0, 2, size=(count, len(net.inputs))).astype(bool)
    got = evaluate_many(net, vectors)
    assert got.shape == (len(vectors), len(net.outputs))
    assert (got == ref_evaluate_many(net, vectors)).all()


# --- call counts -------------------------------------------------------------

def _counting(monkeypatch, owner, attr):
    calls = [0]
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)
    return calls


def test_collapse_scans_the_network_a_constant_number_of_times(
        netlists, monkeypatch):
    counts = []
    for name in ("c17", "c432"):
        tln = synthesize_tln(netlists[name], collapse=False)
        with monkeypatch.context() as m:
            topo = _counting(m, ThresholdLogicNetwork, "topological_order")
            cons = _counting(m, ThresholdLogicNetwork, "consumers")
            merges = synthesis.collapse_tln(tln)
        counts.append((topo[0], cons[0]))
        assert merges > 0
    assert all(t <= 1 and c <= 1 for t, c in counts)


def test_map_design_classifies_links_at_most_twice(netlists, monkeypatch):
    net = netlists["c432"]
    tln = synthesize_tln(net)
    calls = _counting(monkeypatch, partition, "interconnect_stats")
    objects = _counting(monkeypatch, partition, "classify_links")
    map_design(tln, net, MappingConfig(k=2, cols=8))
    assert calls[0] <= 2
    assert objects[0] == 0


def test_variation_tolerance_evaluates_the_oracle_once(compiled, monkeypatch):
    _, design = compiled("c432", 4)
    oracle = _counting(monkeypatch, tlg, "evaluate_packed")
    packed = _counting(monkeypatch, evaluate, "input_words")
    lowered = _counting(monkeypatch, ThresholdLogicNetwork, "lower")
    kernel = _counting(monkeypatch, tlg, "evaluate_lowered")
    _, curve = variation_tolerance(design, (0.0, 0.05, 0.1, 0.2),
                                   vectors_per_probe=500, early_stop=False,
                                   params=DeviceParams())
    assert len(curve) == 4
    # the vectors are drawn once, as packed words, and the oracle runs on
    # those words
    assert oracle[0] == packed[0] == lowered[0] == 1
    # every probe in one kernel call
    assert kernel[0] == 1


def test_reports_classify_links_once_per_design(compiled, monkeypatch):
    tln, design = compiled("c432", 4)
    params = DeviceParams()
    calls = _counting(monkeypatch, partition, "interconnect_stats")
    objects = _counting(monkeypatch, partition, "classify_links")
    evaluate.full_report(design, params, vectors=100)
    assert calls[0] == 1
    # dv and i_threshold keep the design: its links are counted once
    for parameter, grid in (("dv", [0.025, 0.05, 0.1, 0.2]),
                            ("i_threshold", [1e-6, 2e-6, 4e-6]),
                            ("subarray_dim", [16, 32, 64]),
                            ("k", [1, 2])):
        calls[0] = 0
        evaluate.sweep(design, params, parameter, grid, source_tln=tln)
        want = 1 if parameter in ("dv", "i_threshold") else len(grid)
        assert calls[0] == want, parameter
    assert objects[0] == 0


def _link_totals(design):
    """`interconnect_stats` as it was: totals over `classify_links`."""
    links = partition.classify_links(design)
    return {
        "direct": sum(link.kind == "direct" for link in links),
        "routed": sum(link.kind == "routed" for link in links),
        "backward": sum(link.kind == "backward" for link in links),
        "route_length": sum(link.length for link in links),
    }


def test_interconnect_stats_are_the_classified_link_totals(compiled):
    designs = [compiled(name, 4)[1] for name in ("c17", "c432")]
    for seed, fanin, k, cols in itertools.product(range(4), (3, 4),
                                                  (1, 2, 3), (16, 64)):
        net = generated_netlist(seed)
        tln = synthesize_tln(net, fanin_limit=fanin)
        designs.append(map_design(tln, net, MappingConfig(k=k, cols=cols),
                                  fanin_limit=fanin))
    designs += [partition.repartition(d, 16, 16) for d in designs]
    # absorbed nodes read their sources over backward links
    assert sum(bool(d.absorbed and d.backward_edges) for d in designs) >= 20
    for d in designs:
        assert partition.interconnect_stats(d) == _link_totals(d)


def test_sweep_rows_are_the_costs_of_each_point(compiled):
    tln, design = compiled("c432", 4)
    params = DeviceParams()
    for parameter, grid in (("dv", [0.025, 0.1, 0.2]),
                            ("i_threshold", [1e-6, 2e-6, 4e-6]),
                            ("subarray_dim", [16, 64]),
                            ("k", [1, 2])):
        rows = evaluate.sweep(design, params, parameter, grid,
                              source_tln=tln)
        assert len(rows) == len(grid)
        for value, row in zip(grid, rows):
            p, d = params, design
            if parameter == "dv":
                p = dataclasses.replace(params, delta_v=value)
            elif parameter == "i_threshold":
                p = dataclasses.replace(params, i_threshold=value)
            elif parameter == "subarray_dim":
                d = partition.repartition(design, value, value)
            else:
                d = map_design(tln, design.source,
                               dataclasses.replace(design.config, k=value))
            c = evaluate._costs(d, p, evaluate._design_figures(d))
            assert row == {
                "parameter": parameter,
                "value": value,
                **{key: c["power"][key] for key in (
                    "p_mca", "p_det", "p_interconnect", "p_total")},
                "latency": c["delay"]["latency"],
                "energy": c["energy"],
                "edp": c["energy_delay_product"],
                "area_um2": c["area_um2"],
                "routed_links": c["links"]["routed"],
                "route_length": c["links"]["route_length"],
                "cells": partition.cell_count(d),
                "nodes": len(d.tln.nodes),
                "buffers": d.buffer_count,
            }, (parameter, value)


# --- batched gate kernels ----------------------------------------------------

def _tables(n):
    return itertools.product((0, 1), repeat=2 ** n)


def _n4_tables(count, seed):
    """Random 4-input tables plus the tables of random threshold gates, so
    both infeasible and feasible tables are drawn."""
    rng = random.Random(seed)
    tables = [tuple(rng.randint(0, 1) for _ in range(16))
              for _ in range(count // 2)]
    while len(tables) < count:
        gate = ThresholdGate(tuple("abcd"), tuple(rng.randint(-6, 6)
                                                  for _ in range(4)),
                             rng.randint(-12, 12))
        tables.append(truth_table(gate))
    return tables


@pytest.mark.parametrize("w_max", (2, 3, 6, 8))
def test_solve_weights_matches_int64_reference(w_max):
    # at w_max 8 row sums reach +-32 and bounds +-33
    tables = [t for n in range(1, 4) for t in _tables(n)]
    tables += _n4_tables(120 if w_max == 8 else 400, seed=w_max)
    feasible = 0
    for table in tables:
        got = solve_weights(table, w_max)
        want = ref_solve_weights(table, w_max)
        assert got == want, table
        feasible += want is not None
    assert 0 < feasible < len(tables)


def test_solve_weights_on_a_wide_lattice_matches_reference():
    # n * w_max past 126 needs a lattice type wider than int8; wrapped row
    # sums would make XOR look like a threshold function
    for table in itertools.chain(_tables(1), _tables(2)):
        assert solve_weights(table, 70) == ref_solve_weights(table, 70)


def _defective_tln(seed):
    """A random threshold network with up to three gates broken."""
    return _break_gates(random_tln(seed), random.Random(seed))


def _break_gates(tln, rng):
    """`tln` with up to three gates broken: margin 0, a zero weight, a
    weight above the limit or a fan-in above it; sometimes an unresolved
    output too."""
    ids = list(tln.nodes)
    for nid in rng.sample(ids, min(len(ids), rng.randint(0, 3))):
        g = tln.nodes[nid].gate
        kind = rng.choice(("margin", "zero", "weight", "fan-in"))
        if kind == "margin":  # the sum is 0 on the all-zero row
            g = ThresholdGate(g.inputs, g.weights, 0)
        elif kind == "zero":
            g = ThresholdGate(g.inputs, g.weights[:-1] + (0,), g.bias)
        elif kind == "weight":
            g = ThresholdGate(g.inputs, (W_MAX + 1,) + g.weights[1:], g.bias)
        else:
            g = ThresholdGate(tuple(tln.inputs)[:1] * 5, (2,) * 5, -1)
        tln.nodes[nid].gate = g
    if rng.random() < 0.1:
        tln.outputs.append("nowhere")
    return tln


def _message(check, tln, **kw):
    try:
        check(tln, **kw)
    except ValueError as e:
        return str(e)
    return None


VALIDATE_LIMITS = ({}, {"fanin_limit": 5}, {"w_max": W_MAX + 1})


@pytest.mark.parametrize("seed", range(150))
def test_validate_matches_per_node_reference(seed):
    tln = _defective_tln(seed)
    for kw in VALIDATE_LIMITS:
        assert _message(ThresholdLogicNetwork.validate, tln, **kw) == \
            _message(ref_validate, tln, **kw)


@pytest.mark.parametrize("name", NETLISTS)
@pytest.mark.parametrize("fanin", (2, 3, 4))
def test_validate_matches_per_node_reference_on_mapped_networks(
        compiled, name, fanin):
    # buffers and fan-out copies follow their readers in insertion order
    mapped = compiled(name, fanin)[1].tln
    for seed in range(8):
        tln = _break_gates(mapped.copy(), random.Random(seed))
        for kw in VALIDATE_LIMITS:
            assert _message(ThresholdLogicNetwork.validate, tln, **kw) == \
                _message(ref_validate, tln, **kw)


def test_validate_reports_the_first_of_several_failures():
    tln = ThresholdLogicNetwork(inputs=["a", "b"])
    tln.add_node("ok", ThresholdGate(("a", "b"), (2, 2), -1))
    tln.add_node("flat", ThresholdGate(("a", "b"), (2, 2), -2))
    tln.add_node("zero", ThresholdGate(("a", "b"), (2, 0), -1))
    tln.add_node("flat2", ThresholdGate(("a",), (2,), 0))
    tln.outputs = ["flat2"]
    # a margin failure before a zero weight is reported first, and after it
    assert _message(ThresholdLogicNetwork.validate, tln) == "flat: margin < 1"
    del tln.nodes["flat"]
    assert _message(ThresholdLogicNetwork.validate, tln) == \
        "zero: zero weight stored"


def test_validate_computes_margins_once_per_fan_in(compiled, monkeypatch):
    tln, _ = compiled("c432", 4)
    calls = _counting(monkeypatch, tlg, "threshold_step")
    tln.validate()
    assert calls[0] == len({n.gate.fan_in for n in tln.nodes.values()})


def assert_same_lowered(got, want):
    """Every field of two `Lowered`, arrays by value, shape and dtype."""
    def same(a, b, at):
        if isinstance(b, tuple):
            assert type(a) is tuple and len(a) == len(b), at
            for i, (x, y) in enumerate(zip(a, b)):
                same(x, y, f"{at}[{i}]")
        elif isinstance(b, np.ndarray):
            assert (a.shape, a.dtype) == (b.shape, b.dtype), at
            assert (a == b).all(), at
        else:
            assert type(a) is type(b) and a == b, at

    for f in dataclasses.fields(tlg.Lowered):
        same(getattr(got, f.name), getattr(want, f.name), f.name)


@pytest.mark.parametrize("name", NETLISTS)
@pytest.mark.parametrize("fanin", (2, 3, 4))
def test_lower_matches_per_node_reference(compiled, name, fanin):
    tln, design = compiled(name, fanin)
    for net in (tln, design.tln):  # mapped: not in topological order
        assert_same_lowered(net.lower(), ref_lower(net))


def _wide_bias_tln(seed):
    """`random_tln` with biases beyond W_MAX of both signs, and within."""
    rng = random.Random(seed)
    tln = random_tln(seed)
    for node in tln.nodes.values():
        g = node.gate
        node.gate = ThresholdGate(g.inputs, g.weights, rng.choice(
            (-3 * W_MAX - 1, -2 * W_MAX, -W_MAX - 1, -W_MAX, -1, 0, 1,
             W_MAX, W_MAX + 1, 2 * W_MAX + 5, 4 * W_MAX)))
    return tln


@pytest.mark.parametrize("seed", range(60))
def test_lower_matches_per_node_reference_on_random_networks(seed):
    for tln in (random_tln(seed), random_raw_tln(seed), _wide_bias_tln(seed)):
        assert_same_lowered(tln.lower(), ref_lower(tln))


def _untabulated_tln(unresolved, cycle):
    """Two gates above TABLE_FAN_IN_LIMIT inputs, the later-inserted one
    first in topological order; optionally an unresolved output and a
    cycle."""
    tln = ThresholdLogicNetwork(inputs=["a", "b"])
    wide = tlg.TABLE_FAN_IN_LIMIT + 1
    tln.nodes["late"] = TLGNode("late", ThresholdGate(
        ("early",) * wide, (2,) * wide, -1))
    tln.nodes["early"] = TLGNode("early", ThresholdGate(
        ("a",) * (wide + 1), (2,) * (wide + 1), -1))
    tln.outputs = ["late"] + ["nowhere"] * unresolved
    if cycle:
        tln.nodes["x"] = TLGNode("x", ThresholdGate(("y",), (2,), -1))
        tln.nodes["y"] = TLGNode("y", ThresholdGate(("x",), (2,), -1))
    return tln


@pytest.mark.parametrize("unresolved", (False, True))
@pytest.mark.parametrize("cycle", (False, True))
def test_lower_errors_keep_their_precedence_and_words(unresolved, cycle):
    tln = _untabulated_tln(unresolved, cycle)
    want = ("cycle in threshold network" if cycle else
            "output 'nowhere' unresolved" if unresolved else
            f"node early: fan-in {tlg.TABLE_FAN_IN_LIMIT + 2} above "
            f"{tlg.TABLE_FAN_IN_LIMIT} cannot be tabulated")
    assert _message(ThresholdLogicNetwork.lower, tln) == want
    assert _message(ref_lower, tln) == want


def random_raw_tln(seed):
    """A random threshold network with unchecked gates: zero weights and
    rows summing to exactly 0 (which fire) included."""
    rng = random.Random(seed)
    tln = ThresholdLogicNetwork(inputs=[f"i{j}" for j in range(
        rng.randint(1, 6))])
    avail = list(tln.inputs)
    for j in range(rng.randint(1, 25)):
        k = rng.randint(1, 5)
        srcs = tuple(rng.choice(avail) for _ in range(k))
        gate = ThresholdGate(srcs, tuple(rng.randint(-3, 3) for _ in srcs),
                             rng.randint(-4, 4))
        avail.append(tln.add_node(f"n{j}", gate).id)
    tln.outputs = rng.sample(avail, rng.randint(1, min(4, len(avail))))
    return tln


def _random_rows(count, n, seed):
    """Exactly `count` random rows, even when 2^n is smaller."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(count, n)).astype(bool)


@pytest.mark.parametrize("name", NETLISTS)
@pytest.mark.parametrize("fanin", (2, 3, 4))
def test_tln_evaluate_many_matches_column_loop(compiled, name, fanin):
    tln, _ = compiled(name, fanin)
    for count in VECTOR_COUNTS + (10_000,):
        vectors = _random_rows(count, len(tln.inputs), seed=count)
        got = tln.evaluate_many(vectors)
        assert got.shape == (count, len(tln.outputs))
        assert (got == ref_tln_evaluate_many(tln, vectors)).all(), count


@pytest.mark.parametrize("seed", range(40))
def test_tln_evaluate_many_matches_column_loop_on_raw_gates(seed):
    tln = random_raw_tln(seed)
    for count in (1, 64, 65, 300):
        vectors = _random_rows(count, len(tln.inputs), seed=seed)
        assert (tln.evaluate_many(vectors) ==
                ref_tln_evaluate_many(tln, vectors)).all()


@settings(derandomize=True, max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(net=small_netlists(), fanin=st.integers(2, 4),
       count=st.sampled_from(VECTOR_COUNTS))
def test_tln_evaluate_many_matches_column_loop_on_generated(net, fanin,
                                                            count):
    tln = synthesize_tln(net, fanin_limit=fanin)
    vectors = _random_rows(count, len(tln.inputs), seed=count)
    assert (tln.evaluate_many(vectors) ==
            ref_tln_evaluate_many(tln, vectors)).all()


def test_tln_evaluate_many_chunks_large_groups(compiled, monkeypatch):
    # one gate per mux-tree temporary: every group is split into chunks
    tln, _ = compiled("gen0", 3)
    vectors = _random_rows(200, len(tln.inputs), seed=1)
    want = ref_tln_evaluate_many(tln, vectors)
    monkeypatch.setattr(tlg, "MUX_WORDS", 1)
    assert (tln.evaluate_many(vectors) == want).all()


def test_tln_evaluate_many_rejects_untabulated_fan_in():
    tln = ThresholdLogicNetwork(inputs=["a"])
    tln.add_node("wide", ThresholdGate(("a",) * 11, (1,) * 11, -1))
    tln.outputs = ["wide"]
    with pytest.raises(ValueError, match="fan-in 11"):
        tln.evaluate_many([[True]])


# --- write loop --------------------------------------------------------------

@pytest.mark.parametrize("seed", (0, 1, 7))
@pytest.mark.parametrize("t_max", (20e-6, 1e-6, 0.4e-6, 1e-9, 0.0))
def test_write_sim_trials_match_per_pulse_loop(seed, t_max):
    params = DeviceParams()
    for bits in (4, 6, 8, math.inf):
        for i_prog in (params.i_write_threshold, 10e-6):
            got = devices.write_sim_trials(bits, i_prog, params, trials=60,
                                           t_max=t_max, seed=seed)
            want = ref_write_sim_trials(bits, i_prog, params, trials=60,
                                        t_max=t_max, seed=seed)
            assert (got["mean_error"], got["p95_error"]) == want, bits


def test_write_sim_trials_match_per_pulse_loop_at_top_of_range(monkeypatch):
    # a target drawn at r_memristor_max itself: the loop ramps upwards
    real = np.random.default_rng

    class TopTargets:
        def __init__(self, gen):
            self.gen = gen

        def uniform(self, low, high):
            return high if self.gen.random() < 0.5 else self.gen.uniform(
                low, high)

    def rng(seed):
        return TopTargets(real(seed)) if seed == 99 else real(seed)

    monkeypatch.setattr(np.random, "default_rng", rng)
    params = DeviceParams()
    got = devices.write_sim_trials(6, 10e-6, params, trials=40, seed=99)
    want = ref_write_sim_trials(6, 10e-6, params, trials=40, seed=99)
    assert (got["mean_error"], got["p95_error"]) == want


def test_write_sim_trials_reject_a_current_below_threshold():
    with pytest.raises(ValueError, match="write threshold"):
        devices.write_sim_trials(4, 1e-6, DeviceParams(), trials=3)
