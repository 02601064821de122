"""End-to-end command-line tests: the synth -> map -> evaluate -> sweep
chain, its exit codes, and byte-level determinism of the artifacts."""

import gc
import importlib.util
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from smtl import cli, evaluate, tlg
from smtl.bench import load_bench
from smtl.cli import main
from smtl.mapping import MappedDesign, validate
from smtl.synthesis import synthesize_tln

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
C17 = str(BENCH_DIR / "c17.bench")
C432 = str(BENCH_DIR / "c432_like.bench")


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def artifacts(runner, tmp_path_factory):
    """One synth+map chain shared by the read-only CLI tests."""
    d = tmp_path_factory.mktemp("chain")
    tln = str(d / "tln.json")
    mapped = str(d / "mapped.json")
    r = runner.invoke(main, ["synth", "--bench", C17, "-o", tln])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["map", "--tln", tln, "-o", mapped])
    assert r.exit_code == 0, r.output
    return {"dir": d, "tln": tln, "mapped": mapped}


def test_version(runner):
    r = runner.invoke(main, ["--version"])
    assert r.exit_code == 0


# --- synth ----------------------------------------------------------------

def test_synth_writes_verified_tln(runner, artifacts):
    doc = json.loads(Path(artifacts["tln"]).read_text())
    assert doc["fanin_limit"] == 4 and doc["w_max"] == 6
    assert len(doc["tln"]["nodes"]) <= 6
    assert doc["source"]["inputs"] == ["1", "2", "3", "6", "7"]


def test_synth_missing_file(runner, tmp_path):
    r = runner.invoke(main, ["synth", "--bench", str(tmp_path / "nope.bench")])
    assert r.exit_code == 1


def test_synth_rejects_bad_fanin(runner, tmp_path):
    for fanin in ("1", "5"):
        r = runner.invoke(main, ["synth", "--bench", C17, "--fanin", fanin,
                                 "-o", str(tmp_path / "t.json")])
        assert r.exit_code == 1
        assert "fan-in" in r.output


def test_synth_rejects_malformed_bench(runner, tmp_path):
    bad = tmp_path / "bad.bench"
    bad.write_text("INPUT(a)\nOUTPUT(n)\nn = NAND(a, n)\n")
    r = runner.invoke(main, ["synth", "--bench", str(bad),
                             "-o", str(tmp_path / "t.json")])
    assert r.exit_code == 1
    assert "cycle" in r.output


def test_synth_deterministic(runner, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert runner.invoke(main, ["synth", "--bench", C17, "-o", a]).exit_code == 0
    assert runner.invoke(main, ["synth", "--bench", C17, "-o", b]).exit_code == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()


# --- map ------------------------------------------------------------------

def test_map_reports_summary(runner, artifacts):
    doc = json.loads(Path(artifacts["mapped"]).read_text())
    assert doc["config"]["k"] == 2
    assert doc["blocks"]


def test_map_infeasible_rows(runner, artifacts, tmp_path):
    r = runner.invoke(main, ["map", "--tln", artifacts["tln"], "--rows", "2",
                             "-o", str(tmp_path / "m.json")])
    assert r.exit_code == 3


@pytest.mark.parametrize("bench,rows", [(C432, "8"), (C432, "6"),
                                        (C17, "8")])
def test_map_counts_bias_rows_as_the_crossbar_programs_them(runner, tmp_path,
                                                            bench, rows):
    # validate counted bias rows at --wmax 2 (ceil(|b| / 2)) while binning
    # and the crossbar use 6 levels, so c432_like at 8 rows exited 3 with
    # "stage 1 block 3: needs 10 rows > 8" for a block binning had built;
    # c17 also needs absorption to keep a block within its rows
    tln, mapped, rep = (str(tmp_path / f) for f in
                        ("t.json", "m.json", "r.json"))
    r = runner.invoke(main, ["synth", "--bench", bench, "--wmax", "2",
                             "-o", tln])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["map", "--tln", tln, "--rows", rows,
                             "-o", mapped])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["evaluate", "--mapped", mapped, "--vectors",
                             "2000", "--report", rep])
    assert r.exit_code == 0, r.output
    assert json.loads(Path(rep).read_text())["errors"] == 0


def test_map_splits_fanout_twice_under_a_block_budget(runner, tmp_path):
    # the second fan-out split named its copies "236$c1" again, so a valid
    # file exited 1 with "bad TLN file ...: duplicate node id '236$c1'";
    # then its copies went uncounted and the map exited 3 with "stage 1: 2
    # blocks > 1 blocks per stage"
    tln, mapped = str(tmp_path / "t.json"), str(tmp_path / "m.json")
    r = runner.invoke(main, ["synth", "--bench", C432, "--fanin", "3",
                             "-o", tln])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["map", "--tln", tln, "--levels-per-stage", "2",
                             "--cols", "32", "--blocks", "1", "--fmax", "3",
                             "-o", mapped])
    assert r.exit_code == 0, r.output
    design = MappedDesign.from_json(json.loads(Path(mapped).read_text()))
    assert validate(design, fanin_limit=3)
    assert all(len(blks) == 1 for blks in design.blocks.values())
    report = tmp_path / "r.json"
    r = runner.invoke(main, ["evaluate", "--mapped", mapped, "--sigma", "0",
                             "--report", str(report)])
    assert r.exit_code == 0, r.output
    assert json.loads(report.read_text())["errors"] == 0


def test_map_exit_3_counts_the_fan_out_copies_of_pass_through_values(
        runner, tmp_path):
    # the message named 22 pass-through values against a 23-column budget,
    # as if a column were left for a node; their fan-out copies take it
    tln = str(tmp_path / "t.json")
    r = runner.invoke(main, ["synth", "--bench", C432, "--fanin", "2",
                             "-o", tln])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["map", "--tln", tln, "--levels-per-stage", "1",
                             "--cols", "23", "--blocks", "1", "--fmax", "3",
                             "-o", str(tmp_path / "m.json")])
    assert r.exit_code == 3, r.output
    lines = [l for l in r.output.splitlines() if l.strip()]
    assert len(lines) == 1 and lines[0].endswith(
        "stage 20 left with no node: 22 pass-through values and their "
        "fan-out copies take 24 columns, budget 23 columns")


def test_map_bad_tln_file(runner, tmp_path):
    bad = tmp_path / "tln.json"
    bad.write_text("{}")
    r = runner.invoke(main, ["map", "--tln", str(bad),
                             "-o", str(tmp_path / "m.json")])
    assert r.exit_code == 1


def test_map_buffer_trend_with_k(runner, tmp_path):
    tln = str(tmp_path / "t432.json")
    assert runner.invoke(main, ["synth", "--bench", C432,
                                "-o", tln]).exit_code == 0
    buffers = {}
    for k in ("1", "2"):
        out = str(tmp_path / f"m{k}.json")
        r = runner.invoke(main, ["map", "--tln", tln,
                                 "--levels-per-stage", k, "-o", out])
        assert r.exit_code == 0, r.output
        buffers[k] = int(r.output.split("buffers=")[1].split()[0])
    assert buffers["1"] >= buffers["2"]


# --- evaluate -------------------------------------------------------------

def test_evaluate_sigma_zero(runner, artifacts, tmp_path):
    rep = tmp_path / "report.json"
    r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                             "--vectors", "32", "--report", str(rep)])
    assert r.exit_code == 0, r.output
    doc = json.loads(rep.read_text())
    assert doc["errors"] == 0 and doc["vectors"] == 32
    assert doc["power"]["p_total"] > 0


def test_evaluate_variation_errors_are_data(runner, artifacts, tmp_path):
    rep = tmp_path / "report.json"
    r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                             "--sigma", "0.5", "--seed", "0",
                             "--vectors", "32", "--report", str(rep)])
    assert r.exit_code == 0, r.output
    assert json.loads(rep.read_text())["errors"] > 0


def test_evaluate_sigma_zero_mismatch_exit_code(runner, artifacts, tmp_path):
    doc = json.loads(Path(artifacts["mapped"]).read_text())
    out = next(n for n in doc["tln"]["nodes"]
               if n["id"] in doc["tln"]["outputs"])
    out["weights"][0] = -out["weights"][0]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    r = runner.invoke(main, ["evaluate", "--mapped", str(broken),
                             "--vectors", "32",
                             "--report", str(tmp_path / "rep.json")])
    assert r.exit_code == 4
    assert "sigma=0" in r.output


def test_evaluate_corrupt_params(runner, artifacts, tmp_path):
    bad = tmp_path / "params.json"
    bad.write_text("{not json")
    r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                             "--params", str(bad),
                             "--report", str(tmp_path / "rep.json")])
    assert r.exit_code == 1


def test_evaluate_timing_violation_exit_code(runner, artifacts, tmp_path,
                                             params):
    fast = tmp_path / "fast.json"
    fast.write_text(json.dumps({**params.to_json(), "f_clk": 2e9}))
    r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                             "--params", str(fast), "--vectors", "32",
                             "--report", str(tmp_path / "rep.json")])
    assert r.exit_code == 5


def test_evaluate_baseline_ratios(runner, artifacts, tmp_path):
    rep = tmp_path / "report.json"
    r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                             "--vectors", "32", "--report", str(rep),
                             "--baseline-energy", "1e-9",
                             "--baseline-delay", "1e-7"])
    assert r.exit_code == 0, r.output
    doc = json.loads(rep.read_text())
    assert doc["baseline"]["energy_ratio"] > 1.0


def test_evaluate_params_env_override(runner, artifacts, tmp_path, params):
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps({**params.to_json(), "f_clk": 250e6}))
    rep = tmp_path / "report.json"
    r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                             "--vectors", "32", "--report", str(rep)],
                      env={"SMTL_PARAMS": str(slow)})
    assert r.exit_code == 0, r.output
    doc = json.loads(rep.read_text())
    assert doc["delay"]["clock_period"] == pytest.approx(4e-9)


def test_evaluate_deterministic(runner, artifacts, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for rep in (a, b):
        r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                                 "--sigma", "0.1", "--vectors", "32",
                                 "--report", str(rep)])
        assert r.exit_code == 0
    assert a.read_bytes() == b.read_bytes()


# --- sweep ----------------------------------------------------------------

def test_sweep_dv_csv(runner, artifacts, tmp_path):
    out = tmp_path / "sweep.csv"
    r = runner.invoke(main, ["sweep", "--mapped", artifacts["mapped"],
                             "--param", "dv", "--grid", "25,50,100,200",
                             "-o", str(out)])
    assert r.exit_code == 0, r.output
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5
    col = lines[0].split(",").index("p_total")
    totals = [float(l.split(",")[col]) for l in lines[1:]]
    assert all(x < y for x, y in zip(totals, totals[1:]))


def test_sweep_empty_grid(runner, artifacts, tmp_path):
    r = runner.invoke(main, ["sweep", "--mapped", artifacts["mapped"],
                             "--param", "dv", "--grid", ",",
                             "-o", str(tmp_path / "s.csv")])
    assert r.exit_code == 1


def test_sweep_bad_grid(runner, artifacts, tmp_path):
    r = runner.invoke(main, ["sweep", "--mapped", artifacts["mapped"],
                             "--param", "dv", "--grid", "25,potato",
                             "-o", str(tmp_path / "s.csv")])
    assert r.exit_code == 1


def test_sweep_k_requires_tln(runner, artifacts, tmp_path):
    r = runner.invoke(main, ["sweep", "--mapped", artifacts["mapped"],
                             "--param", "k", "--grid", "1,2",
                             "-o", str(tmp_path / "s.csv")])
    assert r.exit_code == 1
    assert "--tln" in r.output


def test_sweep_k_with_tln(runner, artifacts, tmp_path):
    out = tmp_path / "s.csv"
    r = runner.invoke(main, ["sweep", "--mapped", artifacts["mapped"],
                             "--tln", artifacts["tln"],
                             "--param", "k", "--grid", "1,2",
                             "-o", str(out)])
    assert r.exit_code == 0, r.output
    assert len(out.read_text().strip().split("\n")) == 3


# --- write-sim ------------------------------------------------------------

def test_write_sim_bits_trend(runner, tmp_path):
    out = tmp_path / "ws.csv"
    r = runner.invoke(main, ["write-sim", "--bits", "4,8", "--trials", "60",
                             "-o", str(out)])
    assert r.exit_code == 0, r.output
    lines = out.read_text().strip().split("\n")
    col = lines[0].split(",").index("mean_error")
    means = [float(l.split(",")[col]) for l in lines[1:]]
    assert means[0] > means[1]


def test_write_sim_bad_bits(runner, tmp_path):
    r = runner.invoke(main, ["write-sim", "--bits", "four",
                             "-o", str(tmp_path / "ws.csv")])
    assert r.exit_code == 1


# --- boundary checks: exit 1 with one `error:` line, never a traceback ----

def _assert_input_error(r, flag):
    assert r.exit_code == 1, r.output
    assert isinstance(r.exception, SystemExit)
    lines = [l for l in r.output.splitlines() if l.strip()]
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert flag in lines[0]


@pytest.mark.parametrize("wmax", ["0", "1"])
def test_synth_rejects_wmax_below_two(runner, tmp_path, wmax):
    out = tmp_path / "t.json"
    r = runner.invoke(main, ["synth", "--bench", C17, "--wmax", wmax,
                             "-o", str(out)])
    _assert_input_error(r, "--wmax")
    assert not out.exists()


def test_map_rejects_zero_levels_per_stage(runner, artifacts, tmp_path):
    r = runner.invoke(main, ["map", "--tln", artifacts["tln"],
                             "--levels-per-stage", "0",
                             "-o", str(tmp_path / "m.json")])
    _assert_input_error(r, "--levels-per-stage")


def test_map_rejects_fmax_below_two(runner, artifacts, tmp_path):
    r = runner.invoke(main, ["map", "--tln", artifacts["tln"], "--fmax", "1",
                             "-o", str(tmp_path / "m.json")])
    _assert_input_error(r, "--fmax")


@pytest.mark.parametrize("field", [{"cols": 2.5}, {"f_max": 2.5},
                                   {"b_max": "4"}, {"min_fill": "x"},
                                   {"reorder_sweeps": 1.5}])
def test_mapped_config_checked_at_load(runner, artifacts, tmp_path, field):
    # each was evaluated with exit 0, and `sweep --param k` failed with
    # Python's own message
    doc = json.loads(Path(artifacts["mapped"]).read_text())
    doc["config"].update(field)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for args in (["evaluate", "--mapped", str(bad), "--sigma", "0",
                  "--report", str(tmp_path / "r.json")],
                 ["sweep", "--mapped", str(bad), "--tln", artifacts["tln"],
                  "--param", "k", "--grid", "1,2",
                  "-o", str(tmp_path / "s.csv")]):
        r = runner.invoke(main, args)
        _assert_input_error(r, f"bad mapped design {bad}: {next(iter(field))}")


def test_evaluate_rejects_zero_vectors(runner, artifacts, tmp_path):
    rep = tmp_path / "report.json"
    r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                             "--vectors", "0", "--report", str(rep)])
    _assert_input_error(r, "--vectors")
    assert not rep.exists()


@pytest.mark.parametrize("sigma", ["0.1", "0"])
def test_evaluate_rejects_vectors_beyond_memory(runner, artifacts, tmp_path,
                                                monkeypatch, sigma):
    # 10^14 vectors of 36 inputs (c432_like's) take 288 GiB of words; a
    # stand-in refuses the allocation instead of trying it, since an
    # overcommitting host may grant it. At sigma 0 the design is made to
    # fail the proof, which would otherwise draw no vectors.
    def refuse(n, count=None, seed=0):
        raise MemoryError(f"Unable to allocate words for {count} vectors")

    monkeypatch.setattr(evaluate, "input_words", refuse)
    monkeypatch.setattr(evaluate, "prove", lambda tln, source: False)
    rep = tmp_path / "report.json"
    r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                             "--sigma", sigma, "--vectors", "100000000000000",
                             "--report", str(rep)])
    _assert_input_error(r, "--vectors")
    assert "100000000000000 vectors" in r.output
    assert not rep.exists()


def test_write_sim_rejects_zero_trials(runner, tmp_path):
    out = tmp_path / "ws.csv"
    r = runner.invoke(main, ["write-sim", "--trials", "0", "-o", str(out)])
    _assert_input_error(r, "--trials")
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--blocks", "0"), ("--blocks", "-2"),
                                        ("--cols", "0"), ("--rows", "0"),
                                        ("--rows", "-1")])
def test_map_rejects_non_positive_dimensions(runner, artifacts, tmp_path,
                                             flag, value):
    # --blocks 0 made every stage overflow, so capacity enforcement never
    # ended; --cols 0 ended in a range() traceback
    out = tmp_path / "m.json"
    r = runner.invoke(main, ["map", "--tln", artifacts["tln"], flag, value,
                             "-o", str(out)])
    _assert_input_error(r, flag)
    assert not out.exists()


def test_synth_rejects_fanin_above_four(runner, tmp_path):
    out = tmp_path / "t.json"
    r = runner.invoke(main, ["synth", "--bench", C17, "--fanin", "5",
                             "-o", str(out)])
    _assert_input_error(r, "--fanin")
    assert "fan-in" in r.output
    assert not out.exists()


def test_map_blocks_bound_counts_row_forced_blocks(runner, artifacts,
                                                   tmp_path):
    # four rows split c17's first stage into two blocks; --blocks 1 let
    # that through because only nodes <= blocks x cols was checked
    out = tmp_path / "m.json"
    r = runner.invoke(main, ["map", "--tln", artifacts["tln"], "--blocks",
                             "1", "--rows", "4", "-o", str(out)])
    assert r.exit_code == 3, r.output
    lines = [l for l in r.output.splitlines() if l.strip()]
    assert len(lines) == 1 and lines[0].startswith("error: stage 1")
    assert "blocks" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["-0.1", "nan"])
def test_evaluate_rejects_negative_sigma(runner, artifacts, tmp_path, sigma):
    rep = tmp_path / "report.json"
    r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                             "--sigma", sigma, "--report", str(rep)])
    _assert_input_error(r, "--sigma")
    assert not rep.exists()


@pytest.mark.parametrize("param,grid", [("dv", "0"), ("i_threshold", "0"),
                                        ("k", "0"), ("k", "1.5")])
def test_sweep_rejects_invalid_grid_values(runner, artifacts, tmp_path,
                                           param, grid):
    out = tmp_path / "s.csv"
    r = runner.invoke(main, ["sweep", "--mapped", artifacts["mapped"],
                             "--tln", artifacts["tln"], "--param", param,
                             "--grid", grid, "-o", str(out)])
    _assert_input_error(r, param if param == "k" else "must be positive")
    assert not out.exists()


def test_sweep_infeasible_subarray_exit_code(runner, artifacts, tmp_path):
    out = tmp_path / "s.csv"
    r = runner.invoke(main, ["sweep", "--mapped", artifacts["mapped"],
                             "--param", "subarray_dim", "--grid", "1",
                             "-o", str(out)])
    assert r.exit_code == 3, r.output
    lines = [l for l in r.output.splitlines() if l.strip()]
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not out.exists()


def test_synth_caps_wmax(runner, tmp_path):
    from smtl.tlg import W_MAX

    out = tmp_path / "t.json"
    for wmax in (W_MAX + 1, 8):  # weights the crossbar cannot program
        r = runner.invoke(main, ["synth", "--bench", C17, "--wmax",
                                 str(wmax), "-o", str(out)])
        _assert_input_error(r, "--wmax")
        assert not out.exists()
    r = runner.invoke(main, ["synth", "--bench", C17, "--fanin", "2",
                             "--wmax", str(W_MAX), "-o", str(out)])
    assert r.exit_code == 0, r.output


def test_evaluate_rejects_negative_seed(runner, artifacts, tmp_path):
    # a negative seed reached numpy's default_rng and ended in a traceback
    rep = tmp_path / "report.json"
    r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                             "--sigma", "0.05", "--seed", "-1",
                             "--report", str(rep)])
    _assert_input_error(r, "--seed")
    assert not rep.exists()


def test_write_sim_rejects_negative_seed(runner, tmp_path):
    out = tmp_path / "ws.csv"
    r = runner.invoke(main, ["write-sim", "--trials", "2", "--seed", "-1",
                             "-o", str(out)])
    _assert_input_error(r, "--seed")
    assert not out.exists()


def test_sweep_rejects_fractional_subarray_dim(runner, artifacts, tmp_path):
    # 16.7 was partitioned at 16 but written to the CSV as 16.7
    out = tmp_path / "s.csv"
    r = runner.invoke(main, ["sweep", "--mapped", artifacts["mapped"],
                             "--param", "subarray_dim", "--grid", "16.7",
                             "-o", str(out)])
    _assert_input_error(r, "subarray_dim")
    assert not out.exists()
    r = runner.invoke(main, ["sweep", "--mapped", artifacts["mapped"],
                             "--param", "subarray_dim", "--grid", "16",
                             "-o", str(out)])
    assert r.exit_code == 0, r.output
    assert out.read_text().splitlines()[1].startswith("subarray_dim,16,")


@pytest.mark.parametrize("grid", ["0", "-16", "16,0"])
def test_sweep_rejects_subarray_dim_below_one(runner, artifacts, tmp_path,
                                              grid):
    # exited 3 with "node 11 needs 3 rows, block has 0"
    out = tmp_path / "s.csv"
    r = runner.invoke(main, ["sweep", "--mapped", artifacts["mapped"],
                             "--param", "subarray_dim", f"--grid={grid}",
                             "-o", str(out)])
    _assert_input_error(r, "subarray_dim")
    assert not out.exists()


@pytest.mark.parametrize("inputs,weights,message", [
    (["1"] * 11, [2] * 11, "fan-in 11"),
    (["1"], [7], "weight magnitude > 6")])
def test_evaluate_rejects_gates_it_cannot_simulate(runner, artifacts,
                                                   tmp_path, inputs, weights,
                                                   message):
    # a hand-edited design: fan-in 11 would need 2^11-row truth tables, and
    # weight 7 exceeds the 6 conductance levels; `validate` rejects both at
    # load
    doc = json.loads(Path(artifacts["mapped"]).read_text())
    doc["tln"]["nodes"][0].update(inputs=inputs, weights=weights)
    mapped, rep = tmp_path / "m.json", tmp_path / "report.json"
    mapped.write_text(json.dumps(doc))
    r = runner.invoke(main, ["evaluate", "--mapped", str(mapped),
                             "--report", str(rep)])
    _assert_input_error(r, message)
    assert not rep.exists()


def _source_gate(**fields):
    return lambda doc: doc["source"]["gates"][0].update(fields)


# edits of a synthesized or mapped document that no loader or check
# lets through, and what the one error line says
BAD_DOCS = {
    # ended in KeyError: 'FOO'
    "unknown-kind": (_source_gate(kind="FOO"), "unknown gate kind 'FOO'"),
    # was evaluated as NOT of its first input
    "two-input-not": (_source_gate(kind="NOT"), "NOT takes exactly 1 input"),
    # the repeat was dropped
    "repeated-gate": (lambda doc: doc["source"]["gates"].append(
        doc["source"]["gates"][0]), "duplicate definition"),
    # the later node replaced the earlier one
    "repeated-node": (lambda doc: doc["tln"]["nodes"].append(
        doc["tln"]["nodes"][0]), "duplicate node id"),
    # ended in a KeyError traceback
    "unresolved-output": (lambda doc: doc["tln"]["outputs"].__setitem__(
        0, "ghost"), "output 'ghost' unresolved"),
    # exited 4 with 22 functional errors at sigma=0
    "reversed-inputs": (lambda doc: doc["source"]["inputs"].reverse(),
                        "primary input mismatch"),
    # exited 4 with 10 functional errors: the words broadcast
    "one-output-fewer": (lambda doc: doc["source"]["outputs"].pop(),
                         "primary output arity mismatch"),
}


@pytest.mark.parametrize("case", sorted(BAD_DOCS))
def test_evaluate_rejects_a_design_that_does_not_line_up(runner, artifacts,
                                                         tmp_path, case):
    edit, message = BAD_DOCS[case]
    doc = json.loads(Path(artifacts["mapped"]).read_text())
    edit(doc)
    mapped, rep = tmp_path / "m.json", tmp_path / "report.json"
    mapped.write_text(json.dumps(doc))
    r = runner.invoke(main, ["evaluate", "--mapped", str(mapped),
                             "--vectors", "32", "--report", str(rep)])
    _assert_input_error(r, message)
    assert not rep.exists()


@pytest.mark.parametrize("case", ["unknown-kind", "two-input-not",
                                  "repeated-gate", "repeated-node",
                                  "reversed-inputs", "one-output-fewer"])
def test_map_rejects_a_source_or_node_it_cannot_load(runner, artifacts,
                                                      tmp_path, case):
    # each was copied into mapped.json with exit 0
    edit, message = BAD_DOCS[case]
    doc = json.loads(Path(artifacts["tln"]).read_text())
    edit(doc)
    tln, out = tmp_path / "t.json", tmp_path / "m.json"
    tln.write_text(json.dumps(doc))
    r = runner.invoke(main, ["map", "--tln", str(tln), "-o", str(out)])
    _assert_input_error(r, message)
    assert not out.exists()


def test_sweep_k_rejects_a_network_of_another_source(runner, artifacts,
                                                     tmp_path):
    # exited 0 and wrote c432_like's figures as c17's sweep
    tln, out = tmp_path / "t.json", tmp_path / "s.csv"
    r = runner.invoke(main, ["synth", "--bench", C432, "-o", str(tln)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["sweep", "--mapped", artifacts["mapped"],
                             "--tln", str(tln), "--param", "k",
                             "--grid", "1,2", "-o", str(out)])
    _assert_input_error(r, "primary input mismatch")
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "INPUT(a)\n",
                                  "INPUT(a)\nINPUT(b)\ng = AND(a, b)\n"])
def test_synth_rejects_netlist_without_outputs(runner, tmp_path, text):
    # an empty netlist ended in "need at least one array to concatenate"
    bench, out = tmp_path / "empty.bench", tmp_path / "t.json"
    bench.write_text(text)
    r = runner.invoke(main, ["synth", "--bench", str(bench), "-o", str(out)])
    _assert_input_error(r, "no outputs")
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1", "3", "nan", "inf"])
def test_write_sim_rejects_bad_programming_current(runner, tmp_path, value):
    # 0 ended in a ValueError traceback and nan in "cannot convert float
    # NaN"; 3 uA is below the 5 uA write threshold
    out = tmp_path / "ws.csv"
    r = runner.invoke(main, ["write-sim", "--iprog", value, "--trials", "2",
                             "-o", str(out)])
    _assert_input_error(r, "--iprog")
    assert not out.exists()


@pytest.mark.parametrize("bits", ["0", "-3", "4,0", "65"])
def test_write_sim_rejects_bits_out_of_range(runner, tmp_path, bits):
    # 0 and -3 bits exited 0 with errors for a meaningless comparator
    out = tmp_path / "ws.csv"
    r = runner.invoke(main, ["write-sim", "--bits", bits, "--trials", "2",
                             "-o", str(out)])
    _assert_input_error(r, "--bits")
    assert not out.exists()


@pytest.mark.parametrize("tmax", ["-1", "0", "nan", "inf"])
def test_write_sim_rejects_non_positive_timeout(runner, tmp_path, tmax):
    # -1 exited 0 reporting mean error 2.09: the write loop never ran
    out = tmp_path / "ws.csv"
    r = runner.invoke(main, ["write-sim", "--tmax", tmax, "--trials", "2",
                             "-o", str(out)])
    _assert_input_error(r, "--tmax")
    assert not out.exists()


@pytest.mark.parametrize("grid", ["nan", "inf", "25,-inf"])
def test_sweep_rejects_non_finite_grid(runner, artifacts, tmp_path, grid):
    # exited 0 with a CSV row of NaNs
    out = tmp_path / "s.csv"
    r = runner.invoke(main, ["sweep", "--mapped", artifacts["mapped"],
                             "--param", "dv", "--grid", grid, "-o", str(out)])
    _assert_input_error(r, "grid")
    assert not out.exists()


@pytest.mark.parametrize("given,missing", [
    ("--baseline-energy", "--baseline-delay"),
    ("--baseline-delay", "--baseline-energy")])
def test_evaluate_rejects_half_a_baseline(runner, artifacts, tmp_path, given,
                                         missing):
    # one baseline figure alone was silently ignored
    rep = tmp_path / "report.json"
    r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                             "--vectors", "32", given, "1e-9",
                             "--report", str(rep)])
    _assert_input_error(r, missing)
    assert not rep.exists()


@pytest.mark.parametrize("flag,value", [("--baseline-energy", "-1"),
                                        ("--baseline-delay", "0"),
                                        ("--baseline-delay", "nan"),
                                        ("--sigma", "inf")])
def test_evaluate_rejects_non_finite_or_non_positive_figures(
        runner, artifacts, tmp_path, flag, value):
    rep = tmp_path / "report.json"
    args = {"--baseline-energy": "1e-9", "--baseline-delay": "1e-7"}
    args[flag] = value
    r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                             "--vectors", "32", "--report", str(rep),
                             *(x for kv in args.items() for x in kv)])
    _assert_input_error(r, flag)
    assert not rep.exists()


def test_evaluate_corrupt_params_prints_one_error_line(runner, artifacts,
                                                       tmp_path):
    bad = tmp_path / "params.json"
    bad.write_text("{not json")
    r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                             "--params", str(bad),
                             "--report", str(tmp_path / "rep.json")])
    _assert_input_error(r, "bad device parameters")


# --- defects the command-line fuzz found: exit 1, one `error:` line ------

@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_unwritable_output_is_an_input_error(runner, tmp_path, where):
    # ended in IsADirectoryError / FileNotFoundError tracebacks
    out = tmp_path if where == "directory" else tmp_path / "no" / "t.json"
    r = runner.invoke(main, ["synth", "--bench", C17, "-o", str(out)])
    _assert_input_error(r, "cannot write")


def _edited(artifact, tmp_path, edit):
    doc = json.loads(Path(artifact).read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("text", ["[]", "null", '{"tln": 1, "source": 2}'])
@pytest.mark.parametrize("command,flag", [("map", "--tln"),
                                          ("evaluate", "--mapped")])
def test_json_of_the_wrong_shape_is_an_input_error(runner, tmp_path, text,
                                                   command, flag):
    # ended in TypeError tracebacks
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    r = runner.invoke(main, [command, flag, str(bad), "-o" if command ==
                             "map" else "--report", str(tmp_path / "out")])
    _assert_input_error(r, str(bad))


def _first_node(**fields):
    return lambda doc: doc["tln"]["nodes"][0].update(fields)


@pytest.mark.parametrize("edit,message", [
    (lambda doc: _first_node(inputs=[doc["tln"]["nodes"][-1]["id"]] * 2)(
        doc), "cycle"),
    (_first_node(weights=["a", 1]), "integers"),
    (_first_node(weights=[7, 7]), "weight magnitude"),
    (_first_node(weights=[0, 0]), "zero weight"),
    (lambda doc: doc.update(w_max="6"), "bad TLN file"),
    (lambda doc: doc["tln"].update(outputs=["ghost"]), "unresolved"),
    # node 11 is a NAND: stripped as a buffer, it mapped and then failed
    # 18 vectors at sigma 0
    (_first_node(is_buffer=True), "true only on a buffer gate"),
    (_first_node(is_buffer=1), "is_buffer must be a bool"),
    # mapped at the file's own bounds, then evaluate exited 1 with "|-7|
    # exceeds 6 conductance levels"
    (lambda doc: (doc.update(w_max=8),
                  _first_node(weights=[-7, -7], bias=10)(doc)), "w_max"),
    (lambda doc: doc.update(fanin_limit=9), "fanin_limit")])
def test_map_rejects_a_hand_edited_tln(runner, artifacts, tmp_path, edit,
                                       message):
    # each ended in a ValueError or TypeError traceback
    r = runner.invoke(main, ["map", "--tln", _edited(artifacts["tln"],
                                                     tmp_path, edit),
                             "-o", str(tmp_path / "m.json")])
    _assert_input_error(r, message)


@pytest.mark.parametrize("edit", [
    lambda doc: doc["blocks"]["1"][0].append("ghost"),
    lambda doc: doc["blocks"]["1"][0].pop(),
    lambda doc: doc["input_blocks"][0].pop(),
    lambda doc: doc["absorbed"].append("ghost")])
def test_sweep_rejects_blocks_that_misplace_nodes(runner, artifacts, tmp_path,
                                                  edit):
    # an unknown node in a block ended in "KeyError: 'ghost'", and so did
    # one in `absorbed` for a subarray_dim sweep
    r = runner.invoke(main, ["sweep", "--mapped",
                             _edited(artifacts["mapped"], tmp_path, edit),
                             "--param", "subarray_dim", "--grid", "16",
                             "-o", str(tmp_path / "s.csv")])
    _assert_input_error(r, "place every node")


@pytest.mark.parametrize("command", [
    ["evaluate", "--vectors", "32", "--report"],
    ["sweep", "--param", "subarray_dim", "--grid", "16", "-o"]])
def test_a_design_relabelled_to_another_k_is_rejected(runner, artifacts,
                                                      tmp_path, command):
    # c17 mapped at k 2 and relabelled k 1 evaluated with exit 0 and
    # P_total 2.68 instead of 4.30 uW: its in-stage edges need k > 1
    mapped = _edited(artifacts["mapped"], tmp_path,
                     lambda doc: doc["config"].update(k=1))
    out = tmp_path / "out"
    r = runner.invoke(main, [command[0], "--mapped", mapped, *command[1:],
                             str(out)])
    _assert_input_error(r, "spans 0 boundaries")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["evaluate", "--vectors", "32", "--report"],
    ["sweep", "--param", "subarray_dim", "--grid", "16", "-o"]])
def test_a_design_whose_blocks_are_a_list_is_rejected(runner, artifacts,
                                                      tmp_path, command):
    # ended in "AttributeError: 'list' object has no attribute 'items'"
    mapped = _edited(artifacts["mapped"], tmp_path,
                     lambda doc: doc.update(blocks=[]))
    r = runner.invoke(main, [command[0], "--mapped", mapped, *command[1:],
                             str(tmp_path / "out")])
    _assert_input_error(r, "blocks must be an object")


@pytest.mark.parametrize("fields", [{"level": "2"}, {"stage": 1.0},
                                    {"level": None}])
def test_a_design_whose_levels_or_stages_are_not_integers_is_rejected(
        runner, artifacts, tmp_path, fields):
    # `validate` compares them as arrays, where a string level compares as
    # text; a stage of 1.0 loaded
    mapped = _edited(artifacts["mapped"], tmp_path, _first_node(**fields))
    r = runner.invoke(main, ["evaluate", "--mapped", mapped, "--vectors",
                             "32", "--report", str(tmp_path / "r.json")])
    _assert_input_error(r, "level and stage must be integers")


def test_validate_names_the_first_stored_bad_backward_edge(artifacts,
                                                          tmp_path):
    # the backward edges were checked in the order of a set, so the edge
    # the message named changed with the hash seed (1->22 at 0, 2->23 at 1)
    mapped = _edited(artifacts["mapped"], tmp_path, lambda doc: doc.update(
        backward_edges=[["1", "22"], ["2", "23"], ["6", "16"]],
        absorbed=["16", "22", "23"]))
    path = [str(Path(cli.__file__).resolve().parents[1])]
    path += filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))
    messages = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                   PYTHONHASHSEED=seed)
        r = subprocess.run([sys.executable, "-m", "smtl.cli", "evaluate",
                            "--mapped", mapped, "--report",
                            str(tmp_path / "r.json")],
                           env=env, capture_output=True, text=True)
        assert r.returncode == 1, r.stderr
        messages.add(r.stderr)
    assert messages == {f"error: bad mapped design {mapped}: backward "
                        f"connection 1->22 is not an edge\n"}


def test_a_chain_crossing_a_thousand_stages_maps(runner, tmp_path):
    # 1,120 levels at one a stage: `insert_buffers` recursed once per stage
    # a buffer chain crosses and ended in a RecursionError
    lines = ["INPUT(a)", "INPUT(b)", "OUTPUT(out)", "g0 = XOR(a, b)",
             "g1 = XOR(g0, b)"]
    lines += [f"g{i} = XOR(g{i - 1}, g{i - 2})" for i in range(2, 560)]
    bench = tmp_path / "chain.bench"
    bench.write_text("\n".join(lines + ["out = AND(g559, a)"]) + "\n")
    tln, mapped = str(tmp_path / "tln.json"), str(tmp_path / "mapped.json")
    rep = tmp_path / "r.json"
    for argv in (["synth", "--bench", str(bench), "-o", tln],
                 ["map", "--tln", tln, "--levels-per-stage", "1", "-o",
                  mapped],
                 ["evaluate", "--mapped", mapped, "--sigma", "0",
                  "--report", str(rep)]):
        r = runner.invoke(main, argv)
        assert r.exit_code == 0, r.output
    assert json.loads(rep.read_text())["errors"] == 0
    assert json.loads(Path(mapped).read_text())["config"]["k"] == 1


def test_evaluate_rejects_baseline_ratios_that_overflow(runner, artifacts,
                                                        tmp_path):
    # wrote "energy_ratio": Infinity into the report
    rep = tmp_path / "r.json"
    r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                             "--vectors", "32", "--baseline-energy", "1e308",
                             "--baseline-delay", "1e-8", "--report",
                             str(rep)])
    _assert_input_error(r, "--baseline-energy")
    assert not rep.exists()


def test_evaluate_rejects_a_sigma_that_overflows(runner, artifacts, tmp_path):
    # a conductance of inf programmed NaN currents and exited 0
    r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                             "--sigma", "1e308", "--report",
                             str(tmp_path / "r.json")])
    _assert_input_error(r, "sigma")


@pytest.mark.parametrize("param,grid", [("dv", "1e300"),
                                        ("subarray_dim", "1e300")])
def test_sweep_rejects_figures_that_overflow(runner, artifacts, tmp_path,
                                            param, grid):
    # ended in OverflowError tracebacks
    out = tmp_path / "s.csv"
    r = runner.invoke(main, ["sweep", "--mapped", artifacts["mapped"],
                             "--param", param, "--grid", grid, "-o",
                             str(out)])
    _assert_input_error(r, "overflows")
    assert not out.exists()


def test_sweep_unknown_parameter_is_one_line(runner, artifacts, tmp_path):
    # a click usage error: exit 2 (the equivalence-failure code) and four
    # lines of usage text
    r = runner.invoke(main, ["sweep", "--mapped", artifacts["mapped"],
                             "--param", "gain", "--grid", "1", "-o",
                             str(tmp_path / "s.csv")])
    _assert_input_error(r, "--param")


@pytest.mark.parametrize("bench", [C17, C432], ids=["c17", "c432_like"])
@pytest.mark.parametrize("blocks", [[], ["--blocks", "1000"]],
                         ids=["unbounded", "blocks1000"])
def test_map_of_a_mapped_design_reproduces_it(runner, tmp_path, bench,
                                              blocks):
    # the path buffers of mapped.json were stripped only under --blocks, so
    # without it c432_like re-mapped to 326 nodes and 125 buffers, not 293
    # and 92
    tln, mapped, again = (str(tmp_path / f) for f in
                          ("t.json", "m.json", "again.json"))
    assert runner.invoke(main, ["synth", "--bench", bench,
                                "-o", tln]).exit_code == 0
    assert runner.invoke(main, ["map", "--tln", tln,
                                "-o", mapped]).exit_code == 0
    r = runner.invoke(main, ["map", "--tln", mapped, *blocks, "-o", again])
    assert r.exit_code == 0, r.output
    want = json.loads(Path(mapped).read_text())
    got = json.loads(Path(again).read_text())
    assert got["tln"] == want["tln"]
    assert got["blocks"] == want["blocks"]


# --- artifact writer ---------------------------------------------------------

def test_artifacts_take_the_umask_mode(runner, artifacts, tmp_path):
    # mkstemp made every artifact 0600, and turned an overwritten 0644 file
    # into 0600
    old = os.umask(0o022)
    try:
        fresh, kept = tmp_path / "new.json", tmp_path / "old.json"
        kept.write_text("{}")
        kept.chmod(0o644)
        for out in (fresh, kept):
            r = runner.invoke(main, ["map", "--tln", artifacts["tln"],
                                     "-o", str(out)])
            assert r.exit_code == 0, r.output
            assert stat.S_IMODE(out.stat().st_mode) == 0o644
        os.umask(0o077)
        assert runner.invoke(main, ["map", "--tln", artifacts["tln"], "-o",
                                    str(kept)]).exit_code == 0
        assert stat.S_IMODE(kept.stat().st_mode) == 0o600
    finally:
        os.umask(old)


_TRICKY = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n\t\r",
                           "é", "☃", "\U0001f600", "\ud800", "a\"b\\c"])
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 1e16, 5e-324, 1e-7, 2.0 ** 63])
            | st.text() | _TRICKY)
_JSON = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                  | st.dictionaries(st.text() | _TRICKY, kids)
                  | st.dictionaries(st.integers(-2, 2) | st.booleans()
                                    | st.sampled_from([-0.0, 0.5, 1.0]),
                                    kids)),
    max_leaves=30)


def _chunk_boundaries(test):
    """`test` with explicit examples where `_dump` starts and ends its
    chunks: lists of 0, 1, CHUNK - 1, CHUNK, CHUNK + 1 and 3 CHUNK + 5
    items, mixed and of lists, at the top level and in a dict section."""
    kinds = (lambda i: i, lambda i: i / 7, lambda i: f"s{i}\u00e9",
             lambda i: None, lambda i: [[i], [], (i, "x")],
             lambda i: {"k": i, "v": (i, i % 2 == 0)})
    for n in (0, 1, cli.CHUNK - 1, cli.CHUNK, cli.CHUNK + 1,
              3 * cli.CHUNK + 5):
        mixed = [kinds[i % len(kinds)](i) for i in range(n)]
        lists = [[i, [i] * (i % 3)] for i in range(n)]
        for obj in (mixed, lists, tuple(mixed), [lists, mixed],
                    {"a": mixed, "b": n, "c": {"d": lists, "e": {}}},
                    {0: [mixed, lists], 1: "one", 2.5: lists}):
            test = example(obj=obj)(test)
    return test


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(obj=_JSON)
@_chunk_boundaries
def test_dump_matches_the_stdlib_encoder(obj):
    want = json.dumps(obj, indent=1, sort_keys=True, allow_nan=False) + "\n"
    assert "".join(cli._dump(obj)) == want


@pytest.mark.parametrize("obj", [[], {}, (), [[]], {"a": {}}, [1, True, 0,
                                 False, None], {"b": (1, [2.5, "x"])},
                                 -0.0, 1e16, 5e-324, True, None, "é",
                                 [np.float64(0.1), np.float64(-0.0)],
                                 [{True: 1}, {1: 2}, {1.0: 3}],
                                 [{"a": 1, "b": [{}]}, {"a": True, "b": []}],
                                 [{"x{y}": [[1], []]}, {"x{y}": [(2,)]}]])
def test_dump_matches_the_stdlib_encoder_on_edge_cases(obj):
    want = json.dumps(obj, indent=1, sort_keys=True, allow_nan=False) + "\n"
    assert "".join(cli._dump(obj)) == want


@pytest.mark.parametrize("bad", [{1}, object(), {(1, 2): 3}])
def test_dump_rejects_other_types(bad):
    with pytest.raises(TypeError):
        "".join(cli._dump([bad]))


def _stdlib_text(doc):
    return json.dumps(doc, indent=1, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize("bench", [C17, C432], ids=["c17", "c432_like"])
def test_section_wise_artifacts_equal_the_stdlib_encoding(runner, tmp_path,
                                                          bench):
    # synth and map write their artifacts a section at a time; each file
    # holds the bytes of its whole document through the stdlib encoder
    tln, mapped, report = (str(tmp_path / f) for f in
                           ("t.json", "m.json", "r.json"))
    for argv in (["synth", "--bench", bench, "-o", tln],
                 ["map", "--tln", tln, "-o", mapped],
                 ["evaluate", "--mapped", mapped, "--vectors", "64",
                  "--report", report]):
        assert runner.invoke(main, argv).exit_code == 0
    net = load_bench(bench)
    net_tln = synthesize_tln(net)
    assert Path(tln).read_text() == _stdlib_text(
        {"tln": net_tln.to_json(), "source": net.to_json(),
         "fanin_limit": 4, "w_max": 6})
    design = MappedDesign.from_json(json.loads(Path(mapped).read_text()))
    assert "".join(cli._dump(design.sections())) == Path(
        mapped).read_text() == _stdlib_text(design.to_json())
    assert Path(report).read_text() == _stdlib_text(
        json.loads(Path(report).read_text()))


_NETGEN = importlib.util.spec_from_file_location(
    "netgen", Path(__file__).resolve().parent.parent / "perfbench"
    / "netgen.py")
netgen = importlib.util.module_from_spec(_NETGEN)
_NETGEN.loader.exec_module(netgen)


def _traced_peak_mb(call):
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _ok(runner, argv):
    def call():
        r = runner.invoke(main, argv)
        assert r.exit_code == 0, r.output
    return call


def test_synth_and_map_peak_memory_at_1200_gates(runner, tmp_path,
                                                 monkeypatch):
    # a command holds one copy of its network: synth and map build and
    # encode their artifacts a section, and a long list CHUNK items, at a
    # time, map drops the loaded document and the unmapped network before
    # it writes, and the loaders free the document as they build. The
    # bounds lie between the peaks traced on Python 3.11 for this netlist
    # (1,293 synthesized and 1,895 mapped nodes) with whole-document
    # writing (synth 4.52 MB), with whole-section writing (map 3.46 MB)
    # and whole-document loading (`_load_design` 2.94 MB), and without
    # them (synth 3.63, map 2.73 and `_load_design` 2.44 MB)
    bench = tmp_path / "gen1200.bench"
    bench.write_text(netgen.generate(1200, 48, 0.1, 1))
    tln, mapped = str(tmp_path / "t.json"), str(tmp_path / "m.json")
    monkeypatch.setattr(tlg, "_lattice_cache", {})  # as in a new process
    assert _traced_peak_mb(_ok(runner, ["synth", "--bench", str(bench),
                                        "-o", tln])) < 4.1
    assert _traced_peak_mb(_ok(runner, ["map", "--tln", tln,
                                        "-o", mapped])) < 3.1
    assert _traced_peak_mb(lambda: cli._load_design(mapped)) < 2.7


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_figures_exit_1_and_keep_the_old_artifact(
        runner, artifacts, tmp_path, monkeypatch, value):
    report = tmp_path / "r.json"
    report.write_text("old\n")
    full_report = evaluate.full_report

    def bad_report(*args, **kwargs):
        rep = full_report(*args, **kwargs)
        rep["power"]["p_total"] = value
        return rep

    monkeypatch.setattr(evaluate, "full_report", bad_report)
    r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                             "--vectors", "32", "--report", str(report)])
    _assert_input_error(r, "overflows")
    assert report.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]


def test_a_nan_in_the_last_chunk_of_a_long_list_exits_1(runner, artifacts,
                                                        tmp_path,
                                                        monkeypatch):
    # the chunks before it are written to the temporary file first
    report = tmp_path / "r.json"
    report.write_text("old\n")
    full_report = evaluate.full_report

    def bad_report(*args, **kwargs):
        rep = full_report(*args, **kwargs)
        rep["long"] = [0.5] * (3 * cli.CHUNK + 4) + [math.nan]
        return rep

    monkeypatch.setattr(evaluate, "full_report", bad_report)
    written = []
    write = cli._atomic_write
    monkeypatch.setattr(cli, "_atomic_write", lambda path, chunks: write(
        path, (written.append(c) or c for c in chunks)))
    r = runner.invoke(main, ["evaluate", "--mapped", artifacts["mapped"],
                             "--vectors", "32", "--report", str(report)])
    _assert_input_error(r, cli.OVERFLOW)
    key = next(i for i, c in enumerate(written) if '"long": ' in c)
    assert [c.count("0.5") for c in written[key + 1:]] == [cli.CHUNK] * 3
    assert report.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
