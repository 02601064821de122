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



# ten parent runs with quartiles 0.98/1.0/1.02: an IQR of 0.04
PARENT = [0.95, 0.97, 0.98, 0.98, 0.99, 1.01, 1.02, 1.02, 1.03, 1.05]
# a skewed parent, quartiles 1.0/1.005/1.1: an IQR of 0.1
SKEWED = [1.0] * 5 + [1.01] + [1.1] * 4


@pytest.mark.parametrize("before,after,direction,bound,want", [
    # every pair won, the median 0.1 lower: more than the IQR
    (PARENT, [v - 0.1 for v in PARENT], "lower", 0.05, "better"),
    # the same runs of a "higher" metric: a median 10% worse, past 5%
    (PARENT, [v - 0.1 for v in PARENT], "higher", 0.05, "worse"),
    # 8/10 pairs won by 0.1 are too few for a gain, and lose nothing
    (PARENT, [v - 0.1 for v in PARENT[:8]] + [v + 0.01 for v in PARENT[8:]],
     "lower", 0.05, "within bound"),
    # the IQR is wider than a bound of 2%: 9/10 pairs won and a median
    # 0.01 lower are neither a gain nor a clean result
    (PARENT, [v - 0.01 for v in PARENT[:9]] + [1.2], "lower", 0.02,
     "unresolved"),
    # ... unless every change run beats every parent run
    (SKEWED, [0.99] * 10, "lower", 0.02, "within bound"),
])
def test_verdict_per_end_to_end_metric(before, after, direction, bound,
                                       want):
    assert pairs.verdict(before, after, direction, bound) == want
