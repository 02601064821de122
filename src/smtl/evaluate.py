"""Crossbar-level functional simulation and power/delay/area reporting.

The crossbar computes each gate's net current as a dot product of input
bits with signed conductance pairs; Monte-Carlo conductance perturbation
models programming inaccuracy. Power splits into the crossbar static
component, the per-gate detection units, and the routing network.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import partition
from .bench import evaluate_many
from .devices import NO_SWITCH, bias_chunks, std_switch_time, weight_to_conductance
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
    from .devices import DeviceParams

    params = params or DeviceParams()
    vectors = np.asarray(vectors, dtype=bool)
    tln = design.tln
    order = tln.topological_order()
    # per node: one input row per weight, then per bias chunk
    g, sizes = [], []
    for nid in order:
        gate = tln.nodes[nid].gate
        pairs = [weight_to_conductance(w, w_max, params) for w in
                 gate.weights + tuple(bias_chunks(gate.bias, w_max))]
        g += [gp for gp, _ in pairs] + [gm for _, gm in pairs]
        sizes.append(len(pairs))
    g = np.array(g)
    if sigma > 0.0:
        g = g * (1.0 + np.random.default_rng(seed).normal(0.0, sigma, g.shape))

    vals = dict(zip(tln.inputs, vectors.T))
    indeterminate = np.zeros(vectors.shape[0], dtype=bool)
    at = 0
    for nid, n in zip(order, sizes):
        gate = tln.nodes[nid].gate
        net = g[at:at + n] - g[at + n:at + 2 * n]
        at += 2 * n
        s, vals[nid] = threshold_step(net[gate.fan_in:].sum(),
                                      net[:gate.fan_in],
                                      [vals[i] for i in gate.inputs])
        if i_threshold_eff > 0.0:
            indeterminate |= np.abs(params.delta_v * s) < i_threshold_eff
    outputs = np.column_stack([vals[o] for o in tln.outputs])

    want = evaluate_many(design.source, vectors)
    bad = (outputs != want).any(axis=1) | indeterminate
    return {
        "outputs": outputs,
        "errors": int(bad.sum()),
        "vectors": int(vectors.shape[0]),
    }


def variation_tolerance(design, sigma_grid, vectors_per_probe=10_000,
                        seeds=(0, 1, 2, 3, 4), vector_seed=12345,
                        params=None, early_stop=True):
    """Largest grid sigma with zero errors across every probe seed.

    Returns (sigma_star, curve) where curve maps each probed sigma to the
    total error count. sigma_star is the top of the zero-error prefix
    (0.0 if even the smallest grid point fails).
    """
    if list(sigma_grid) != sorted(sigma_grid):
        raise ValueError("sigma grid must be ascending")
    vectors = input_rows(len(design.tln.inputs), vectors_per_probe,
                         vector_seed)
    curve = []
    sigma_star = 0.0
    failed = False
    for sig in sigma_grid:
        total = 0
        for seed in seeds:
            total += simulate_mapped(
                design, vectors, sigma=sig, seed=seed, params=params
            )["errors"]
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
                 i_dtcs_base=I_DTCS_BASE, c_wire=C_WIRE):
    k = design.config.k
    n_nodes = len(design.tln.nodes)
    p_det = n_nodes * params.p_detect * (params.f_clk / 500e6)
    i_dtcs = drive_current(params, k, i_dtcs_base)
    p_mca = _active_rows(design) * i_dtcs * params.delta_v * activity
    route_length = partition.interconnect_stats(design)["route_length"]
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
    power = power_report(design, params, activity, i_dtcs_base, c_wire)
    delay = delay_report(design, params, i_dtcs_base)
    stats = partition.interconnect_stats(design)
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
        "area_um2": partition.area_estimate(design),
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
            d = partition.repartition(design, int(value), int(value))
        power = power_report(d, p, activity, i_dtcs_base, c_wire)
        delay = delay_report(d, p, i_dtcs_base)
        stats = partition.interconnect_stats(d)
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
            "area_um2": partition.area_estimate(d),
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
