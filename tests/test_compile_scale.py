"""`tools/compile_scale.py` on a small generated netlist."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compile_scale",
    Path(__file__).resolve().parent.parent / "tools" / "compile_scale.py")
compile_scale = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compile_scale)


def test_measure_runs_each_command_in_a_fresh_process():
    got = compile_scale.measure(100)
    assert (got["gates"], got["layers"]) == (100, 4)
    assert got["seed"] == compile_scale.SEED
    assert got["mapped_nodes"] > got["buffers"] > 0
    for name in ("synth", "map", "evaluate"):
        assert got[f"{name}_s"] > 0 and got[f"{name}_rss_mb"] > 0
    assert got["compile_s_per_1k_gates"] == pytest.approx(
        (got["synth_s"] + got["map_s"]) * 10, abs=1e-3)


def test_a_failing_command_stops_the_tool(tmp_path):
    with pytest.raises(RuntimeError, match="smtl synth exited 1: error: "):
        compile_scale.run_command(["synth", "--bench", "missing.bench"],
                                  tmp_path)


@pytest.mark.parametrize("argv", (["--gates", "0"],
                                  ["--gates", "10", "--layers", "0"]))
def test_rejects_empty_netlists(argv):
    with pytest.raises(SystemExit) as exc:
        compile_scale.main(argv)
    assert exc.value.code == 2
