"""Crossbar simulation, variation tolerance and the power/delay/area
reports."""

import itertools
import json
import math

import numpy as np
import pytest

from smtl import evaluate, partition
from smtl.bench import parse_bench
from smtl.devices import DeviceParams
from smtl.mapping import MappedDesign, MappingConfig, map_design
from smtl.synthesis import exhaustive_vectors, synthesize_tln
from smtl.tlg import ThresholdGate, ThresholdLogicNetwork, eval_tlg

UA = 1e-6


# --- crossbar current -----------------------------------------------------

def test_single_full_weight_current(params):
    g = ThresholdGate(("a",), (6,), 0)
    i = evaluate.crossbar_net_current((6,), 0, (1,), params)
    # 20 uS x 50 mV, minus the off-state leak of the unused polarity
    assert i == pytest.approx(1.0 * UA, rel=0.01)
    assert eval_tlg(g, (1,)) == 1


def test_zero_inputs_zero_bias_zero_current(params):
    assert evaluate.crossbar_net_current((3, -2), 0, (0, 0), params) == 0.0


def test_bias_chunks_contribute(params):
    i = evaluate.crossbar_net_current((2,), -9, (0,), params)
    assert i < 0
    i = evaluate.crossbar_net_current((6, 6), -9, (1, 1), params)
    assert i > 0


def test_sign_consistency_and2(params):
    g = ThresholdGate(("a", "b"), (2, 2), -3)
    for x in itertools.product((0, 1), repeat=2):
        i = evaluate.crossbar_net_current(g.weights, g.bias, x, params)
        assert (i >= 0) == bool(eval_tlg(g, x))


def test_sign_consistency_all_synthesized_gates(c432_tln, params):
    for node in c432_tln.nodes.values():
        g = node.gate
        for x in itertools.product((0, 1), repeat=g.fan_in):
            i = evaluate.crossbar_net_current(g.weights, g.bias, x, params)
            assert (i >= 0) == bool(eval_tlg(g, x)), (node.id, x)


def test_crossbar_length_check(params):
    with pytest.raises(ValueError):
        evaluate.crossbar_net_current((1, 1), 0, (1,), params)


# --- mapped simulation ----------------------------------------------------

def test_sigma_zero_exact(c17_mapped, params):
    res = evaluate.simulate_mapped(
        c17_mapped, exhaustive_vectors(5), sigma=0.0, params=params
    )
    assert res["errors"] == 0 and res["vectors"] == 32


def test_small_sigma_still_exact(c17_mapped, params):
    res = evaluate.simulate_mapped(
        c17_mapped, exhaustive_vectors(5), sigma=0.05, seed=0, params=params
    )
    assert res["errors"] == 0


def test_gross_sigma_breaks(c17_mapped, params):
    total = sum(
        evaluate.simulate_mapped(
            c17_mapped, exhaustive_vectors(5), sigma=0.5, seed=s,
            params=params,
        )["errors"]
        for s in range(10)
    )
    assert total > 0


def test_simulation_deterministic(c17_mapped, params):
    a = evaluate.simulate_mapped(
        c17_mapped, exhaustive_vectors(5), sigma=0.1, seed=3, params=params
    )
    b = evaluate.simulate_mapped(
        c17_mapped, exhaustive_vectors(5), sigma=0.1, seed=3, params=params
    )
    assert (a["outputs"] == b["outputs"]).all()
    assert a["errors"] == b["errors"]


@pytest.mark.parametrize("sigma", [-1.0, float("nan")])
def test_simulate_rejects_a_negative_or_nan_sigma(c17_mapped, params, sigma):
    # both once simulated the unperturbed crossbar and reported 0 errors
    with pytest.raises(ValueError, match="sigma must be >= 0"):
        evaluate.simulate_mapped(c17_mapped, exhaustive_vectors(5),
                                 sigma=sigma, params=params)


@pytest.mark.parametrize("width", [4, 6])
def test_simulate_rejects_vectors_of_the_wrong_width(c17_mapped, params,
                                                      width):
    with pytest.raises(ValueError, match="expected 5 rows of input words"):
        evaluate.simulate_mapped(c17_mapped, np.zeros((8, width), bool),
                                 params=params)


# --- variation tolerance --------------------------------------------------

def _high_margin_design():
    net = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n")
    tln = ThresholdLogicNetwork(inputs=["a", "b"])
    tln.add_node("y", ThresholdGate(("a", "b"), (6, 6), -9))
    tln.outputs = ["y"]
    return map_design(tln, net)


def test_tolerance_high_margin_reaches_top_of_grid(params):
    design = _high_margin_design()
    grid = [0.001, 0.005, 0.01]
    star, curve = evaluate.variation_tolerance(design, grid, params=params)
    assert star == 0.01
    assert curve == [(0.001, 0), (0.005, 0), (0.01, 0)]


def test_tolerance_stops_at_first_failure(c17_mapped, params):
    star, curve = evaluate.variation_tolerance(
        c17_mapped, [0.01, 0.5], vectors_per_probe=32, params=params
    )
    assert star == 0.01
    assert curve[-1][1] > 0


def test_tolerance_rejects_unsorted_grid(c17_mapped, params):
    with pytest.raises(ValueError):
        evaluate.variation_tolerance(c17_mapped, [0.1, 0.05], params=params)


@pytest.mark.parametrize("kw", [dict(vectors_per_probe=0),
                                dict(vectors_per_probe=-5), dict(seeds=())])
def test_tolerance_rejects_a_probe_that_simulates_nothing(c17_mapped, params,
                                                          kw):
    # each once returned the top of the grid over a curve of zeros
    with pytest.raises(ValueError, match="at least one vector and one seed"):
        evaluate.variation_tolerance(c17_mapped, [0.0, 0.5], params=params,
                                     **kw)


# --- power ----------------------------------------------------------------

def test_empty_design_zero_power(params):
    design = MappedDesign(
        config=MappingConfig(), tln=ThresholdLogicNetwork(), source=None
    )
    rep = evaluate.power_report(design, params)
    assert rep == {"p_mca": 0.0, "p_det": 0.0, "p_interconnect": 0.0,
                   "p_total": 0.0}


def test_drive_current_scaling(params):
    base = evaluate.drive_current(params, k=1)
    assert base == pytest.approx(5 * UA)
    assert evaluate.drive_current(params, k=2) == pytest.approx(10 * UA)
    hi = type(params)(**{**params.to_json(), "i_threshold": 4e-6})
    assert evaluate.drive_current(hi, k=1) == pytest.approx(10 * UA)


def test_doubling_dv_scales_power_terms(c432_mapped, params):
    p2 = type(params)(**{**params.to_json(), "delta_v": 0.10})
    a = evaluate.power_report(c432_mapped, params)
    b = evaluate.power_report(c432_mapped, p2)
    assert b["p_mca"] == pytest.approx(2 * a["p_mca"])
    assert b["p_interconnect"] == pytest.approx(4 * a["p_interconnect"])
    assert b["p_det"] == a["p_det"]


def test_pipeline_granularity_power_tradeoff(c432, c432_tln, params):
    reps = {
        k: evaluate.power_report(
            map_design(c432_tln, c432, MappingConfig(k=k)), params
        )
        for k in (1, 2)
    }
    assert reps[2]["p_det"] <= reps[1]["p_det"]
    assert reps[2]["p_mca"] >= reps[1]["p_mca"]


# --- delay ----------------------------------------------------------------

def test_latency_is_depth_times_period(c432_mapped, params):
    rep = evaluate.delay_report(c432_mapped, params)
    assert rep["clock_period"] == pytest.approx(2e-9)
    assert rep["latency"] == pytest.approx(c432_mapped.n_stages * 2e-9)
    assert rep["throughput"] == params.f_clk


def test_switch_budget_violation_at_low_drive(c17_mapped):
    # the 5 uA drive transits in 0.4 t_switch_ref; at this t_switch_ref
    # k = 2 transits of exactly 1 ns fill the 2 ns period: flagged (2.5 ns
    # itself rounds to a transit one ulp short of 1 ns)
    slow = DeviceParams(t_switch_ref=math.nextafter(2.5e-9, 1.0))
    with pytest.raises(evaluate.TimingViolation, match="do not fit"):
        evaluate.delay_report(c17_mapped, slow)
    fits = evaluate.delay_report(c17_mapped,
                                 DeviceParams(t_switch_ref=2.4e-9))
    assert 2 * fits["switch_time"] < fits["clock_period"]


def test_default_drive_meets_timing(c17_mapped, params):
    rep = evaluate.delay_report(c17_mapped, params)
    k = c17_mapped.config.k
    assert k * rep["switch_time"] < rep["clock_period"]


# --- full report and sweeps -----------------------------------------------

def test_full_report_consistency(c17_mapped, params):
    rep = evaluate.full_report(c17_mapped, params, vectors=32)
    assert rep["errors"] == 0 and rep["vectors"] == 32
    assert rep["energy"] == pytest.approx(
        rep["power"]["p_total"] * rep["delay"]["latency"]
    )
    assert rep["energy_delay_product"] == pytest.approx(
        rep["energy"] * rep["delay"]["latency"]
    )
    assert rep["area_um2"] > 0


def test_baseline_ratios(c17_mapped, params):
    rep = evaluate.full_report(c17_mapped, params, vectors=32)
    ratios = evaluate.baseline_ratios(rep, 1e-9, 1e-7)
    assert ratios["energy_ratio"] == pytest.approx(1e-9 / rep["energy"])
    assert ratios["delay_ratio"] == pytest.approx(
        1e-7 / rep["delay"]["latency"]
    )
    assert ratios["edp_ratio"] == pytest.approx(
        ratios["energy_ratio"] * ratios["delay_ratio"]
    )
    with pytest.raises(ValueError):
        evaluate.baseline_ratios(rep, 0.0, 1e-7)


def test_sweep_single_point_matches_power_report(c432_mapped, params):
    rows = evaluate.sweep(c432_mapped, params, "dv", [params.delta_v])
    rep = evaluate.power_report(c432_mapped, params)
    assert len(rows) == 1
    assert rows[0]["p_total"] == pytest.approx(rep["p_total"])


def test_sweep_dv_strictly_increasing(c432_mapped, params):
    rows = evaluate.sweep(c432_mapped, params, "dv",
                          [0.025, 0.05, 0.1, 0.2])
    totals = [r["p_total"] for r in rows]
    assert all(a < b for a, b in zip(totals, totals[1:]))


def test_sweep_k_needs_source(c432_mapped, params):
    with pytest.raises(ValueError, match="synthesized"):
        evaluate.sweep(c432_mapped, params, "k", [1, 2])


def test_sweep_k_buffer_trend(c432_mapped, c432_tln, params):
    rows = evaluate.sweep(c432_mapped, params, "k", [1, 2, 3],
                          source_tln=c432_tln)
    buffers = [r["buffers"] for r in rows]
    assert buffers[0] >= buffers[1] >= buffers[2]


def test_sweep_subarray_dim(c432_mapped, params):
    rows = evaluate.sweep(c432_mapped, params, "subarray_dim", [16, 64])
    assert rows[0]["routed_links"] >= rows[1]["routed_links"]
    assert rows[0]["cells"] <= rows[1]["cells"]


def test_sweep_rejects_bad_input(c432_mapped, params):
    with pytest.raises(ValueError):
        evaluate.sweep(c432_mapped, params, "voltage", [1.0])
    with pytest.raises(ValueError):
        evaluate.sweep(c432_mapped, params, "dv", [])


def test_sweep_leaves_the_design_unchanged(c432_mapped, c432_tln, params):
    before = json.dumps(c432_mapped.to_json(), sort_keys=True)
    for parameter, grid in (("dv", [0.1]), ("i_threshold", [4e-6]),
                            ("k", [1, 3]), ("subarray_dim", [8, 16])):
        evaluate.sweep(c432_mapped, params, parameter, grid,
                       source_tln=c432_tln)
        after = json.dumps(c432_mapped.to_json(), sort_keys=True)
        assert after == before, parameter


def test_sweep_rejects_fractional_subarray_dim(c432_mapped, params):
    with pytest.raises(ValueError, match="whole number"):
        evaluate.sweep(c432_mapped, params, "subarray_dim", [16.7])
    rows = evaluate.sweep(c432_mapped, params, "subarray_dim", [16.0])
    assert rows[0]["cells"] == partition.cell_count(
        partition.repartition(c432_mapped, 16, 16))


def test_sweep_csv_format(c432_mapped, params):
    rows = evaluate.sweep(c432_mapped, params, "dv", [0.05, 0.1])
    text = evaluate.sweep_csv(rows)
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].split(",")[:2] == ["parameter", "value"]
    assert all(len(l.split(",")) == len(lines[0].split(","))
               for l in lines[1:])


def test_mapped_equals_ideal_at_sigma_zero(c432, c432_mapped, params):
    rng = np.random.default_rng(17)
    vectors = rng.integers(0, 2, size=(500, len(c432.inputs))).astype(bool)
    res = evaluate.simulate_mapped(c432_mapped, vectors, sigma=0.0,
                                   params=params)
    assert res["errors"] == 0
    ideal = c432_mapped.tln.evaluate_many(vectors)
    assert (res["outputs"] == ideal).all()
