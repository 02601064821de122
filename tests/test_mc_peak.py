"""`tools/mc_peak.py` on a small generated design."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "mc_peak", Path(__file__).resolve().parent.parent / "tools" / "mc_peak.py")
mc_peak = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mc_peak)


def test_measure_reports_the_call_in_a_fresh_process():
    got = mc_peak.measure(100)
    assert (got["gates"], got["layers"]) == (100, 4)
    assert got["seed"] == mc_peak.SEED
    assert got["mapped_nodes"] > 0 and got["tolerance_s"] >= 0
    assert [sigma for sigma, _ in got["curve"]] == list(mc_peak.SIGMA_GRID)
    assert all(0 <= e <= mc_peak.VECTORS * len(mc_peak.SEEDS)
               for _, e in got["curve"])
    assert got["sigma_star"] in (0.0,) + mc_peak.SIGMA_GRID
    # peaks only rise: importing, synth, map (before the call), the call
    assert 0 < got["rss_import_mb"] <= got["rss_synth_mb"] \
        <= got["rss_before_mb"] <= got["rss_after_mb"]


@pytest.mark.parametrize("argv", (["--gates", "0"],
                                  ["--gates", "10", "--layers", "0"]))
def test_rejects_empty_designs(argv):
    with pytest.raises(SystemExit) as exc:
        mc_peak.main(argv)
    assert exc.value.code == 2
