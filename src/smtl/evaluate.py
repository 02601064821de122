"""Crossbar-level functional simulation and power/delay/area reporting.

The crossbar computes each gate's net current as a dot product of input
bits with signed conductance pairs; Monte-Carlo conductance perturbation
models programming inaccuracy. The simulation feeds the programmed net
conductances of several Monte-Carlo seeds at once to the one check
against the Boolean oracle (`tlg.check`, on bit-packed vectors), whose
kernel simulates each seed only where it differs from the first row. Power
splits into crossbar, per-gate detection and routing components.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import partition
# evaluate_many is not called here, but perfbench's tracer test patches it
# on every smtl module that imports it, this one included
from .bench import evaluate_many, pack, unpack  # noqa: F401
from .devices import (DeviceParams, bias_chunks, std_switch_time,
                      weight_to_conductance)
from .tlg import check, ideal_tables, input_words, lowered, prove

I_DTCS_BASE = 5e-6        # A per input row, quoted at the 2 uA device threshold
I_THRESHOLD_REF = 2e-6    # A, device threshold the drive current is sized for
C_WIRE = 0.2e-15          # F per block-pitch unit of route
DEFAULT_ACTIVITY = 0.5


class TimingViolation(Exception):
    pass


def crossbar_net_current(weights, bias, x, params):
    """Net column current for one gate and one input vector."""
    if len(x) != len(weights):
        raise ValueError("input vector length mismatch")
    current = 0.0
    for w, xi in zip(weights, x):
        gp, gm = weight_to_conductance(w, params)
        current += int(bool(xi)) * (gp - gm)
    for chunk in bias_chunks(bias):
        gp, gm = weight_to_conductance(chunk, params)
        current += gp - gm
    return params.delta_v * current


def programmed(low, params, sigma, seeds):
    """Net conductance g+ - g- of every crossbar row of the lowered network
    `low` as programmed under each seed, one row per seed.

    A row of level w holds the pair `weight_to_conductance(w)`, and every
    device is programmed once: g' = g * (1 + e), e ~ N(0, sigma) drawn by
    `default_rng(seed)` per node in topological order, its g+ devices then
    its g- devices. At sigma 0 every seed programs g exactly, and one row
    stands for all of them. Raises ValueError for a negative or NaN sigma,
    a level above W_MAX or a conductance that overflows.
    """
    if not sigma >= 0.0:  # also NaN
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    levels, at = np.unique(low.levels, return_inverse=True)
    pairs = np.array([weight_to_conductance(int(w), params)
                      for w in levels]).reshape(-1, 2)[at]
    # a node's first row f and its m rows hold draws 2f .. 2f + 2m - 1
    plus = low.first + np.arange(len(at))
    minus = plus + np.bincount(low.first)[low.first]
    g = np.empty(2 * len(at))
    g[plus], g[minus] = pairs.T
    # one seed's devices at a time: its draws become g * (1 + e) in place,
    # the bits of g * (1 + normal(0, sigma)), and only its row is kept
    net = np.empty((len(seeds) if sigma > 0.0 else 1, len(at)))
    for i, row in enumerate(net):
        dev = g
        if sigma > 0.0:
            dev = np.random.default_rng(seeds[i]).standard_normal(g.size)
            with np.errstate(over="ignore"):  # an overflow is raised below
                dev *= sigma
                dev += 1.0
                dev *= g
        if not np.isfinite(dev).all():
            raise ValueError(f"programmed conductances overflow a double "
                             f"(sigma {sigma})")
        np.subtract(dev[plus], dev[minus], out=row)
    return net


def simulate_mapped(design, vectors, sigma=0.0, seed=0, params=None):
    """Simulate the mapped design through the crossbar current model.

    Each device conductance is perturbed once per call (per-device
    programming error, not per-vector noise): g' = g * (1 + e),
    e ~ N(0, sigma), drawn per node in topological order, its g+ devices
    then its g- devices. Returns outputs plus the error count against the
    Boolean oracle.
    """
    params = params or DeviceParams()
    vectors = np.asarray(vectors, dtype=bool)
    count = vectors.shape[0]
    low = lowered(design.tln, design.source)
    out, errors = check(low, design.source, pack(vectors), count,
                        programmed(low, params, sigma, [seed]))
    return {
        "outputs": unpack(out.row(0), count).T,
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
    if vectors_per_probe < 1 or not len(seeds):
        raise ValueError(f"variation tolerance needs at least one vector "
                         f"and one seed, got {vectors_per_probe} vectors "
                         f"and {len(seeds)} seeds")
    params = params or DeviceParams()
    n = len(design.tln.inputs)
    words = input_words(n, vectors_per_probe, vector_seed)
    count = min(vectors_per_probe, 2 ** n)
    # row 0, the unperturbed crossbar, is what every other row overlays;
    # sigma 0 programs one row for all seeds
    sigmas = (0.0, *sigma_grid)
    ends = np.cumsum([len(seeds) if sig > 0.0 else 1 for sig in sigmas])
    low = lowered(design.tln, design.source)
    # every sigma's rows in one array, no concatenation
    nets = np.empty((ends[-1], len(low.levels)))
    for sig, lo, hi in zip(sigmas, (0, *ends), ends):
        nets[lo:hi] = programmed(low, params, sig, seeds)
    _, errors = check(low, design.source, words, count, nets)
    curve = []
    sigma_star = 0.0
    failed = False
    for sig, probe in zip(sigma_grid, np.split(errors, ends[:-1])[1:]):
        probe = np.broadcast_to(probe, len(seeds))
        if early_stop:
            total = next((int(e) for e in probe if e), 0)
        else:
            total = int(probe.sum())
        curve.append((sig, total))
        if total == 0 and not failed:
            sigma_star = sig
        else:
            failed = True
            if early_stop:
                break
    return sigma_star, curve


def drive_current(params, k):
    """Per-row source current: scaled with k to hold throughput, and with
    the device threshold so switching margin is preserved."""
    return I_DTCS_BASE * k * (params.i_threshold / I_THRESHOLD_REF)


def _design_figures(design, v=None):
    """What the costs take from the design alone, whatever the device
    parameters: its `partition.interconnect_stats` on `v` (the network's
    view, if given) and the input rows of its blocks (`block_rows`)."""
    tln = design.tln
    active_rows = sum(
        partition.block_rows([tln.nodes[nid].gate for nid in colnodes])
        for blks in design.blocks.values() for colnodes in blks)
    return partition.interconnect_stats(design, v), active_rows


def power_report(design, params):
    """Power split into crossbar, detection and routing.

    The crossbar term counts the occupied input rows of every block
    (`partition.block_rows`), each driven at `drive_current`.
    """
    return _power(design, params, *_design_figures(design))


def _power(design, params, stats, active_rows):
    """`power_report` from the design's `_design_figures`."""
    k = design.config.k
    p_det = len(design.tln.nodes) * params.p_detect * (params.f_clk / 500e6)
    p_mca = (active_rows * drive_current(params, k) * params.delta_v
             * DEFAULT_ACTIVITY)
    route_length = stats["route_length"]
    p_int = (C_WIRE * route_length * params.delta_v ** 2 * params.f_clk
             * DEFAULT_ACTIVITY)
    return {
        "p_mca": p_mca,
        "p_det": p_det,
        "p_interconnect": p_int,
        "p_total": p_mca + p_det + p_int,
    }


def delay_report(design, params):
    """Pipeline timing; raises TimingViolation if the k in-stage switch
    transits do not fit strictly inside one clock period."""
    k = design.config.k
    period = 1.0 / params.f_clk
    drive = drive_current(params, k) / k
    t_sw = std_switch_time(drive, params)
    if t_sw is None:
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


def _costs(design, params, figures):
    """Links, power, delay, energy and area: what a report and a sweep
    row take from the design without simulating it, given the design's
    `_design_figures`."""
    stats, active_rows = figures
    power = _power(design, params, stats, active_rows)
    delay = delay_report(design, params)
    energy = power["p_total"] * delay["latency"]
    return {
        "links": stats,
        "power": power,
        "delay": delay,
        "energy": energy,
        "energy_delay_product": energy * delay["latency"],
        "area_um2": partition.area_estimate(design, stats=stats),
    }


def full_report(design, params, sigma=0.0, vectors=10_000, seed=0):
    """EvaluationReport: functional errors, power, delay, energy, area.

    The design is lowered (`tlg.lowered`) and programmed once. At sigma
    0, a crossbar whose truth tables are those of its integer levels
    (`tlg.ideal_tables`) and whose integer network is proved equivalent
    to the source (`tlg.prove`) has 0 errors on any vectors, so none are
    drawn. Otherwise `vectors` vectors of `seed` are simulated."""
    tln, source = design.tln, design.source
    n = len(tln.inputs)
    count = min(vectors, 2 ** n)
    low = lowered(tln, source)
    net = programmed(low, params, sigma, [seed])
    proved = sigma == 0.0 and ideal_tables(low, net) and prove(tln, source)
    errors = [0] if proved else check(
        low, source, input_words(n, vectors, seed), count, net)[1]
    return {
        "seed": seed,
        "sigma": sigma,
        "errors": int(errors[0]),
        "vectors": int(count),
        **_costs(design, params, _design_figures(design)),
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
    ratios = {
        "baseline_energy": baseline_energy,
        "baseline_delay": baseline_delay,
        "energy_ratio": baseline_energy / report["energy"],
        "delay_ratio": baseline_delay / delay,
        "edp_ratio": (baseline_energy * baseline_delay)
        / (report["energy"] * delay),
    }
    if not all(map(math.isfinite, ratios.values())):
        raise ValueError("baseline ratios overflow a double")
    return ratios


SWEEP_PARAMS = ("dv", "i_threshold", "k", "subarray_dim")


def sweep(design, params, parameter, grid, source_tln=None):
    """One full power/delay/area evaluation per grid point.

    `k` re-runs the mapping pipeline (needs source_tln); `subarray_dim`
    re-partitions the mapped design at square d x d sub-arrays.
    """
    from .mapping import map_design

    if parameter not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    if not len(grid):
        raise ValueError("empty sweep grid")
    rows, last = [], None
    # re-binning leaves the network as it is: one view serves every point
    view = design.tln.view() if parameter == "subarray_dim" else None
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
            if not float(value).is_integer() or value < 1:
                raise ValueError(f"subarray_dim must be a whole number "
                                 f">= 1, got {value}")
            d = partition.repartition(design, int(value), int(value), view)
        if d is not last:  # dv and i_threshold keep one design
            last, figures = d, _design_figures(d, view)
        c = _costs(d, p, figures)
        stats = c["links"]
        rows.append({
            "parameter": parameter,
            "value": value,
            **c["power"],  # p_mca, p_det, p_interconnect, p_total
            "latency": c["delay"]["latency"],
            "energy": c["energy"],
            "edp": c["energy_delay_product"],
            "area_um2": c["area_um2"],
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
