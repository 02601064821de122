"""The summary of `tools/pairs.py` on fixed runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def test_summary_gives_quartiles_and_pairs_won():
    parent = [{"run_s": v, "ok_rate": 1.0, "sigma": 0.02}
              for v in (0.40, 0.36, 0.38, 0.37, 0.39)]
    change = [{"run_s": v, "ok_rate": r, "sigma": 0.04}
              for v, r in ((0.26, 1.0), (0.37, 1.0), (0.25, 0.9),
                           (0.27, 1.0), (0.28, 1.0))]
    rows = pairs.summarize(parent, change,
                           {"run_s": "lower", "ok_rate": "higher",
                            "absent": "lower"})
    assert list(rows) == ["run_s", "ok_rate"]
    run = rows["run_s"]
    assert run["parent"] == pytest.approx((0.37, 0.38, 0.39))
    assert run["change"] == pytest.approx((0.26, 0.27, 0.28))
    # pair 2 went the other way: 0.36 -> 0.37
    assert run["won"] == 4
    # equal is not a win, and a lower rate loses
    assert rows["ok_rate"]["won"] == 0
    assert rows["ok_rate"]["change"] == pytest.approx((1.0, 1.0, 1.0))


def test_summary_of_one_pair_and_bad_input():
    rows = pairs.summarize([{"run_s": 2.0}], [{"run_s": 1.0}],
                           {"run_s": "lower"})
    assert rows == {"run_s": {"parent": (2.0, 2.0, 2.0),
                              "change": (1.0, 1.0, 1.0), "won": 1}}
    with pytest.raises(ValueError):
        pairs.summarize([{"run_s": 1.0}], [], {"run_s": "lower"})
    with pytest.raises(ValueError):
        pairs.summarize([], [], {"run_s": "lower"})
