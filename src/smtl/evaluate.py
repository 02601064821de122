"""Crossbar-level functional simulation and power/delay/area reporting.

The crossbar computes each gate's net current as a dot product of input
bits with signed conductance pairs; Monte-Carlo conductance perturbation
models programming inaccuracy. The simulation runs on bit-packed vectors
(`bench.pack`), one logic level at a time, for several Monte-Carlo seeds
at once. Power splits into the crossbar static component, the per-gate
detection units, and the routing network.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import partition
from .bench import (MUX_WORDS, TABLE_FAN_IN_LIMIT, evaluate_many, mux, pack,
                    unpack)
from .devices import (NO_SWITCH, DeviceParams, bias_chunks, std_switch_time,
                      weight_to_conductance)
from .tlg import W_MAX, input_rows, threshold_step

I_DTCS_BASE = 5e-6        # A per input row, quoted at the 2 uA device threshold
I_THRESHOLD_REF = 2e-6    # A, device threshold the drive current is sized for
C_WIRE = 0.2e-15          # F per block-pitch unit of route
DEFAULT_ACTIVITY = 0.5


class TimingViolation(Exception):
    pass


def crossbar_net_current(weights, bias, x, params, w_max=W_MAX,
                         perturb=None):
    """Net column current for one gate and one input vector.

    `perturb` optionally maps each device conductance g to its perturbed
    value; identity when omitted.
    """
    if len(x) != len(weights):
        raise ValueError("input vector length mismatch")
    p = perturb or (lambda g: g)
    current = 0.0
    for w, xi in zip(weights, x):
        gp, gm = weight_to_conductance(w, w_max, params)
        current += int(bool(xi)) * (p(gp) - p(gm))
    for chunk in bias_chunks(bias, w_max):
        gp, gm = weight_to_conductance(chunk, w_max, params)
        current += p(gp) - p(gm)
    return params.delta_v * current


@dataclasses.dataclass(frozen=True)
class Levelized:
    """A mapped design lowered once for the batched crossbar simulation.

    Signals are the primary inputs, then the nodes in topological order.
    `g` holds every device conductance in draw order: per node, the g+
    device of each weight row and then of each bias row, then their g-
    devices. Crossbar row r (weight and bias rows of all nodes, in the same
    order) has net conductance g[plus[r]] - g[minus[r]].
    """

    n_inputs: int
    n_signals: int
    g: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    # (node signals (G,), input signals (G, k), weight rows (G, k)), one
    # entry per (level, fan-in k), in level order
    groups: tuple
    # (node signals (B,), bias rows (B, b)), one entry per bias-row count b
    bias: tuple
    outputs: np.ndarray


def lower(design, params, w_max=W_MAX):
    """Levelize a mapped design and program its nominal conductances.

    Raises ValueError for a node above TABLE_FAN_IN_LIMIT inputs or a
    weight above w_max.
    """
    tln = design.tln
    order, level_groups = tln.levelized()
    index = {name: i for i, name in enumerate(list(tln.inputs) + order)}
    g, plus, minus = [], [], []
    weight_rows, bias = {}, {}
    for nid in order:
        gate = tln.nodes[nid].gate
        if gate.fan_in > TABLE_FAN_IN_LIMIT:
            raise ValueError(f"node {nid}: fan-in {gate.fan_in} above "
                             f"{TABLE_FAN_IN_LIMIT} cannot be simulated")
        pairs = [weight_to_conductance(w, w_max, params) for w in
                 gate.weights + tuple(bias_chunks(gate.bias, w_max))]
        at, n, row = len(g), len(pairs), len(plus)
        g += [gp for gp, _ in pairs] + [gm for _, gm in pairs]
        plus += range(at, at + n)
        minus += range(at + n, at + 2 * n)
        weight_rows[nid] = range(row, row + gate.fan_in)
        bias.setdefault(n - gate.fan_in, []).append(
            (index[nid], range(row + gate.fan_in, row + n)))
    groups = [[(index[nid], [index[i] for i in tln.nodes[nid].gate.inputs],
                weight_rows[nid]) for nid in group] for group in level_groups]
    return Levelized(
        n_inputs=len(tln.inputs),
        n_signals=len(index),
        g=np.array(g, dtype=float),
        plus=np.array(plus, dtype=np.intp),
        minus=np.array(minus, dtype=np.intp),
        groups=tuple(tuple(np.array(col, dtype=np.intp) for col in zip(*group))
                     for group in groups),
        bias=tuple(tuple(np.array(col, dtype=np.intp) for col in
                         zip(*bias[b])) for b in sorted(bias) if b),
        outputs=np.array([index[o] for o in tln.outputs], dtype=np.intp),
    )


def programmed(g, sigma, seeds):
    """Conductances as programmed under each seed, one row per seed:
    g' = g * (1 + e), e ~ N(0, sigma) drawn by `default_rng(seed)` in the
    order of g. At sigma 0 every seed programs g exactly, and one row
    stands for all of them."""
    if not sigma > 0.0:
        return g[None]
    rows = [g * (1.0 + np.random.default_rng(seed).normal(0.0, sigma, g.shape))
            for seed in seeds]
    return np.array(rows).reshape(len(rows), len(g))


def simulate_batch(low, words, count, want, g, params, i_threshold_eff=0.0):
    """Simulate `count` packed input vectors under every row of programmed
    conductances g (S, len(low.g)) at once.

    Each node fires iff its net current is >= 0; the current for every
    input row of the node is built by `threshold_step` in the order of the
    scalar model (bias rows summed, then each weight row in input order),
    so the 2^k-row truth table and the +-i_threshold_eff dead-band table
    are exact, and both are applied to the packed words by a mux tree.
    Returns the output words (S, n_outputs, W) and, per row of g, the
    number of vectors that differ from the packed oracle words `want`
    (n_outputs, W) or fall inside the dead band of some node.
    """
    n_words = words.shape[1]
    net = g[:, low.plus] - g[:, low.minus]
    const = np.zeros((len(g), low.n_signals))
    for nodes, rows in low.bias:
        # numpy adds fewer than 8 terms in order along any axis, as the
        # scalar model's 1-D sum does; longer 1-D sums are pairwise
        terms = net[:, rows]
        const[:, nodes] = (terms.sum(axis=-1) if rows.shape[1] < 8 else
                           [[t.sum() for t in seed] for seed in terms])
    vals = np.empty((len(g), low.n_signals, n_words), dtype=np.uint64)
    vals[:, :low.n_inputs] = words
    indeterminate = np.zeros((len(g), n_words), dtype=np.uint64)
    table_rows = {k: input_rows(k).T
                  for k in {inputs.shape[1] for _, inputs, _ in low.groups}}
    for nodes, inputs, rows in low.groups:
        k = inputs.shape[1]
        s, fires = threshold_step(const[:, nodes, None],
                                  np.moveaxis(net[:, rows], -1, 0)[..., None],
                                  table_rows[k])
        step = max(1, MUX_WORDS // (len(g) * 2 ** (k - 1) * n_words or 1))
        for at in range(0, len(nodes), step):
            part = slice(at, at + step)
            x = vals[:, inputs[part]]
            vals[:, nodes[part]] = mux(fires[:, part], x)
            if i_threshold_eff > 0.0:
                band = np.abs(params.delta_v * s[:, part]) < i_threshold_eff
                indeterminate |= np.bitwise_or.reduce(mux(band, x), axis=1)
    out = vals[:, low.outputs]
    bad = np.bitwise_or.reduce(out ^ want, axis=1) | indeterminate
    return out, unpack(bad, count).sum(axis=-1)


def simulate_mapped(design, vectors, sigma=0.0, seed=0, params=None,
                    i_threshold_eff=0.0, w_max=W_MAX):
    """Simulate the mapped design through the crossbar current model.

    Each device conductance is perturbed once per call (per-device
    programming error, not per-vector noise): g' = g * (1 + e),
    e ~ N(0, sigma), drawn per node in topological order, its g+ devices
    then its g- devices. Vectors landing inside the +-i_threshold_eff dead
    band are counted as errors. Returns outputs plus the error count
    against the Boolean oracle.
    """
    params = params or DeviceParams()
    vectors = np.asarray(vectors, dtype=bool)
    count = vectors.shape[0]
    want = pack(evaluate_many(design.source, vectors))
    low = lower(design, params, w_max)
    out, errors = simulate_batch(low, pack(vectors), count, want,
                                 programmed(low.g, sigma, [seed]), params,
                                 i_threshold_eff)
    return {
        "outputs": unpack(out[0], count).T,
        "errors": int(errors[0]),
        "vectors": int(count),
    }


def variation_tolerance(design, sigma_grid, vectors_per_probe=10_000,
                        seeds=(0, 1, 2, 3, 4), vector_seed=12345,
                        params=None, early_stop=True):
    """Largest grid sigma with zero errors across every probe seed.

    Returns (sigma_star, curve) where curve maps each probed sigma to the
    total error count over the seeds (with `early_stop`, the count of the
    first seed that has errors). sigma_star is the top of the zero-error
    prefix (0.0 if even the smallest grid point fails). The design is
    lowered and the oracle evaluated once; all seeds of one sigma are
    simulated together.
    """
    if list(sigma_grid) != sorted(sigma_grid):
        raise ValueError("sigma grid must be ascending")
    params = params or DeviceParams()
    vectors = input_rows(len(design.tln.inputs), vectors_per_probe,
                         vector_seed)
    count = vectors.shape[0]
    words = pack(vectors)
    want = pack(evaluate_many(design.source, vectors))
    low = lower(design, params)
    curve = []
    sigma_star = 0.0
    failed = False
    for sig in sigma_grid:
        _, errors = simulate_batch(low, words, count, want,
                                   programmed(low.g, sig, seeds), params)
        errors = np.broadcast_to(errors, len(seeds))
        if early_stop:
            total = next((int(e) for e in errors if e), 0)
        else:
            total = int(errors.sum())
        curve.append((sig, total))
        if total == 0 and not failed:
            sigma_star = sig
        else:
            failed = True
            if early_stop:
                break
    return sigma_star, curve


def _active_rows(design):
    """Occupied input rows summed over all blocks (sources + bias rows)."""
    from .devices import bias_rows

    total = 0
    for blks in design.blocks.values():
        for colnodes in blks:
            srcs = set()
            brows = 0
            for nid in colnodes:
                gate = design.tln.nodes[nid].gate
                srcs.update(gate.inputs)
                brows = max(brows, bias_rows(gate.bias))
            total += len(srcs) + brows
    return total


def drive_current(params, k, i_dtcs_base=I_DTCS_BASE,
                  i_threshold_ref=I_THRESHOLD_REF):
    """Per-row source current: scaled with k to hold throughput, and with
    the device threshold so switching margin is preserved."""
    return i_dtcs_base * k * (params.i_threshold / i_threshold_ref)


def power_report(design, params, activity=DEFAULT_ACTIVITY,
                 i_dtcs_base=I_DTCS_BASE, c_wire=C_WIRE, stats=None):
    """Power split into crossbar, detection and routing; `stats` is the
    design's `partition.interconnect_stats`, computed when omitted."""
    k = design.config.k
    n_nodes = len(design.tln.nodes)
    p_det = n_nodes * params.p_detect * (params.f_clk / 500e6)
    i_dtcs = drive_current(params, k, i_dtcs_base)
    p_mca = _active_rows(design) * i_dtcs * params.delta_v * activity
    if stats is None:
        stats = partition.interconnect_stats(design)
    route_length = stats["route_length"]
    p_int = (
        c_wire * route_length * params.delta_v ** 2 * params.f_clk * activity
    )
    return {
        "p_mca": p_mca,
        "p_det": p_det,
        "p_interconnect": p_int,
        "p_total": p_mca + p_det + p_int,
    }


def delay_report(design, params, i_dtcs_base=I_DTCS_BASE, drive=None):
    """Pipeline timing; raises TimingViolation if the k in-stage switch
    transits do not fit strictly inside one clock period."""
    k = design.config.k
    period = 1.0 / params.f_clk
    if drive is None:
        drive = drive_current(params, k, i_dtcs_base) / k
    t_sw = std_switch_time(drive, params)
    if t_sw is NO_SWITCH:
        raise TimingViolation(
            f"drive current {drive * 1e6:.2f} uA below device threshold"
        )
    if k * t_sw >= period:
        raise TimingViolation(
            f"{k} switch transits of {t_sw * 1e9:.2f} ns do not fit in a "
            f"{period * 1e9:.2f} ns period"
        )
    depth = design.n_stages
    return {
        "pipeline_depth": depth,
        "clock_period": period,
        "switch_time": t_sw,
        "latency": depth * period,
        "throughput": params.f_clk,
    }


def full_report(design, params, sigma=0.0, vectors=10_000, seed=0,
                activity=DEFAULT_ACTIVITY, i_dtcs_base=I_DTCS_BASE,
                c_wire=C_WIRE):
    """EvaluationReport: functional errors, power, delay, energy, area."""
    vecs = input_rows(len(design.tln.inputs), vectors, seed)
    sim = simulate_mapped(design, vecs, sigma=sigma, seed=seed, params=params)
    stats = partition.interconnect_stats(design)
    power = power_report(design, params, activity, i_dtcs_base, c_wire,
                         stats)
    delay = delay_report(design, params, i_dtcs_base)
    energy = power["p_total"] * delay["latency"]
    return {
        "seed": seed,
        "sigma": sigma,
        "errors": sim["errors"],
        "vectors": sim["vectors"],
        "power": power,
        "delay": {k: v for k, v in delay.items()},
        "energy": energy,
        "energy_delay_product": energy * delay["latency"],
        "area_um2": partition.area_estimate(design, stats=stats),
        "links": stats,
        "nodes": len(design.tln.nodes),
        "buffers": design.buffer_count,
    }


def baseline_ratios(report, baseline_energy, baseline_delay):
    """Advantage ratios against user-supplied baseline numbers.

    Baselines (e.g. an FPGA implementation of the same netlist) are not
    derivable here, so they must be measured externally and passed in.
    """
    if baseline_energy <= 0 or baseline_delay <= 0:
        raise ValueError("baseline energy and delay must be positive")
    delay = report["delay"]["latency"]
    return {
        "baseline_energy": baseline_energy,
        "baseline_delay": baseline_delay,
        "energy_ratio": baseline_energy / report["energy"],
        "delay_ratio": baseline_delay / delay,
        "edp_ratio": (baseline_energy * baseline_delay)
        / (report["energy"] * delay),
    }


SWEEP_PARAMS = ("dv", "i_threshold", "k", "subarray_dim")


def sweep(design, params, parameter, grid, source_tln=None,
          activity=DEFAULT_ACTIVITY, i_dtcs_base=I_DTCS_BASE,
          c_wire=C_WIRE):
    """One full power/delay/area evaluation per grid point.

    `k` re-runs the mapping pipeline (needs source_tln); `subarray_dim`
    re-partitions the mapped design at square d x d sub-arrays.
    """
    from .mapping import map_design

    if parameter not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    if not len(grid):
        raise ValueError("empty sweep grid")
    rows = []
    for value in grid:
        p, d = params, design
        if parameter == "dv":
            p = dataclasses.replace(params, delta_v=value)
        elif parameter == "i_threshold":
            p = dataclasses.replace(params, i_threshold=value)
        elif parameter == "k":
            if source_tln is None:
                raise ValueError("k sweep needs the synthesized network")
            cfg = dataclasses.replace(design.config, k=value)
            d = map_design(source_tln, design.source, cfg)
        elif parameter == "subarray_dim":
            if not float(value).is_integer():
                raise ValueError(
                    f"subarray_dim must be a whole number, got {value}")
            d = partition.repartition(design, int(value), int(value))
        stats = partition.interconnect_stats(d)
        power = power_report(d, p, activity, i_dtcs_base, c_wire, stats)
        delay = delay_report(d, p, i_dtcs_base)
        energy = power["p_total"] * delay["latency"]
        rows.append({
            "parameter": parameter,
            "value": value,
            "p_mca": power["p_mca"],
            "p_det": power["p_det"],
            "p_interconnect": power["p_interconnect"],
            "p_total": power["p_total"],
            "latency": delay["latency"],
            "energy": energy,
            "edp": energy * delay["latency"],
            "area_um2": partition.area_estimate(d, stats=stats),
            "routed_links": stats["routed"],
            "route_length": stats["route_length"],
            "cells": partition.cell_count(d),
            "nodes": len(d.tln.nodes),
            "buffers": d.buffer_count,
        })
    return rows


def sweep_csv(rows):
    header = list(rows[0])
    lines = [",".join(header)]
    for r in rows:
        lines.append(",".join(_fmt(r[h]) for h in header))
    return "\n".join(lines) + "\n"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)
