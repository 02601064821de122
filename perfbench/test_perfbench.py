"""Tests of the benchmark's own parts.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import netgen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from smtl import bench, cli, evaluate, synthesis, tlg  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_generator_is_deterministic_per_seed():
    a = netgen.generate(200, 8, 0.1, 7)
    assert a == netgen.generate(200, 8, 0.1, 7)
    assert a != netgen.generate(200, 8, 0.1, 8)
    assert netgen.netlist_hash(a) == netgen.netlist_hash(
        netgen.generate(200, 8, 0.1, 7))


def test_generated_netlist_has_requested_shape():
    net = bench.parse_bench(netgen.generate(200, 8, 0.25, 3))
    assert len(net.gates) == 200
    assert len(net.inputs) > 20   # keeps the CLI check sampled
    assert sum(g.kind == "XOR" for g in net.gates) == 8 * round(25 * 0.25)
    read = {i for g in net.gates for i in g.inputs}
    assert set(net.outputs) == {g.name for g in net.gates} - read


def _snapshot():
    return {
        "cli.synthesize_tln": cli.synthesize_tln,
        "synthesis.synthesize_tln": synthesis.synthesize_tln,
        "bench.evaluate_many": bench.evaluate_many,
        "synthesis.evaluate_many": synthesis.evaluate_many,
        "evaluate.evaluate_many": evaluate.evaluate_many,
        "tlg.solve_weights": tlg.solve_weights,
        "synthesis.solve_weights": synthesis.solve_weights,
        "topological_order":
            tlg.ThresholdLogicNetwork.__dict__["topological_order"],
        "from_json": tlg.ThresholdLogicNetwork.__dict__["from_json"],
        "synth.callback": cli.synth.callback,
    }


def test_tracer_wraps_every_importer_and_restores_originals():
    before = _snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        during = _snapshot()
        assert all(during[k] is not before[k] for k in before)
        assert cli.synthesize_tln is synthesis.synthesize_tln
        assert synthesis.evaluate_many is bench.evaluate_many
        net = bench.parse_bench(netgen.generate(60, 4, 0.1, 1))
        synthesis.synthesize_tln(net)
        with pytest.raises(ValueError):
            tlg.solve_weights((0, 1, 1))   # not a power-of-two table
    finally:
        t.uninstall()
    assert all(v is before[k] for k, v in _snapshot().items())
    assert not t.skipped
    names = t.by_name()
    assert names["synthesis.synthesize_tln"][0] == 1
    assert names["tlg.solve_weights"][0] >= 1
    assert t._stack == []   # the raising call closed its span


def test_tracer_skips_a_missing_target(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "mapping",
                        tracer.TARGETS["mapping"] + ("no_such_pass",))
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert any("mapping.no_such_pass" in note for note in t.skipped)


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    t.spans = [["m", "mapping", 0.0, 10.0, -1],
               ["p", "partition", 1.0, 4.0, 0],
               ["t", "tlg", 2.0, 3.0, 1]]
    self_s = t.self_times()
    assert self_s["mapping"] == 7.0
    assert self_s["partition"] == 2.0
    assert self_s["tlg"] == 1.0


def test_ledger_counts_failures_and_changed_artifacts():
    ledger = workloads.Ledger()
    assert ledger.record("a", "ok", 1.0, "d1")
    assert not ledger.record("b", "timeout", 2.0)
    assert not ledger.record("a", "ok", 1.5, "d2")
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert ledger.busy_s == 4.5
    assert not ledger.correct


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.per_layer_units()
    for name in list(e2e) + list(layer):
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in spec["workloads"]} <= set(
        workloads.WORKLOADS)
