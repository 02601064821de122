"""Device model checks: conductance mapping, switching, MTJ read-out and
the closed-loop programming simulation."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smtl
from smtl import devices
from smtl.devices import (
    DeviceParams,
    K_WRITE,
    ReadDisturbError,
    bias_chunks,
    bias_rows,
    std_read,
    std_switch_time,
    weight_to_conductance,
    write_sim_trials,
)

UA = 1e-6


# --- parameters -----------------------------------------------------------

def test_default_params_match_packaged_table(params):
    assert DeviceParams.load() == params


def test_params_round_trip(tmp_path, params):
    p = tmp_path / "params.json"
    p.write_text(json.dumps(params.to_json()))
    assert DeviceParams.load(p) == params


def test_params_reject_nonpositive():
    with pytest.raises(ValueError):
        DeviceParams(i_threshold=0.0)
    with pytest.raises(ValueError):
        DeviceParams(r_memristor_min=2e6, r_memristor_max=1e6)


# --- bias helpers ---------------------------------------------------------

def test_bias_rows():
    assert bias_rows(0) == 0
    assert bias_rows(-3) == 1
    assert bias_rows(6) == 1
    assert bias_rows(-9) == 2
    assert bias_rows(13) == 3


def test_bias_chunks():
    assert bias_chunks(0) == []
    assert bias_chunks(-9) == [-6, -3]
    assert bias_chunks(13) == [6, 6, 1]
    assert sum(bias_chunks(-17)) == -17
    assert all(abs(c) <= 6 for c in bias_chunks(-17))


# --- conductances ---------------------------------------------------------

def test_full_weight_hits_r_min(params):
    gp, gm = weight_to_conductance(6, params)
    assert gp == pytest.approx(1.0 / 50e3)           # 20 uS
    assert gm == pytest.approx(1.0 / 10e6)           # off-state leak


def test_unit_weight_proportional(params):
    gp, _ = weight_to_conductance(1, params)
    assert gp == pytest.approx(1.0 / 300e3)          # 3.33 uS


def test_negative_weight_uses_minus_side(params):
    gp, gm = weight_to_conductance(-4, params)
    assert gm == pytest.approx(4.0 / (6 * 50e3))
    assert gp == pytest.approx(1.0 / 10e6)


def test_zero_weight_both_off(params):
    gp, gm = weight_to_conductance(0, params)
    assert gp == gm == pytest.approx(1.0 / 10e6)


def test_overweight_rejected(params):
    with pytest.raises(ValueError):
        weight_to_conductance(7, params)


# --- switching ------------------------------------------------------------

def test_switch_time_at_threshold(params):
    assert std_switch_time(2 * UA, params) == 1e-9   # exact, by definition


def test_switch_time_linear(params):
    assert std_switch_time(4 * UA, params) == pytest.approx(0.5e-9)
    assert std_switch_time(-4 * UA, params) == pytest.approx(0.5e-9)


def test_subthreshold_no_switch(params):
    assert std_switch_time(1 * UA, params) is None


# --- MTJ read-out ---------------------------------------------------------

def test_read_currents_against_divider_oracle(params):
    r_p = 300e3
    r_ap = r_p * 5.0
    r_ref = math.sqrt(r_p * r_ap)
    out = std_read(params)
    assert out["i_read_parallel"] == pytest.approx(0.6 / (r_p + r_ref))
    assert out["i_read_antiparallel"] == pytest.approx(0.6 / (r_ap + r_ref))
    assert out["i_read_parallel"] == pytest.approx(0.618 * UA, rel=1e-3)
    assert out["i_read_antiparallel"] == pytest.approx(0.276 * UA, rel=2e-3)
    assert max(out["i_read_parallel"], out["i_read_antiparallel"]) < 2 * UA


def test_read_swing(params):
    out = std_read(params)
    assert out["v_swing"] == pytest.approx(0.229, rel=0.01)
    assert out["v_swing"] < params.v_supply / 2


def test_zero_tmr_zero_swing(params):
    p = DeviceParams(**{**params.to_json(), "tmr": 1e-9})
    assert std_read(p)["v_swing"] == pytest.approx(0.0, abs=1e-9)


def test_read_disturb_detected(params):
    p = DeviceParams(**{**params.to_json(), "v_supply": 3.0})
    with pytest.raises(ReadDisturbError):
        std_read(p)


# --- feedback write -------------------------------------------------------

def _single_writes(bits, params, seeds, **kw):
    """(target, |final r - target|) of one-trial `write_sim_trials` runs at
    10 uA: seed s writes the first target `default_rng(s)` draws."""
    for seed in seeds:
        target = np.random.default_rng(seed).uniform(params.r_memristor_min,
                                                     params.r_memristor_max)
        res = write_sim_trials(bits, 10 * UA, params, trials=1, seed=seed,
                               **kw)
        yield target, res["mean_error"] * target


def test_ideal_write_error_within_one_step(params):
    step = K_WRITE * 10 * UA * 1e-9
    for _, miss in _single_writes(float("inf"), params, range(20),
                                  comparator_offset_sigma=0.0):
        assert miss <= step * 1.001


def test_write_quantization_floor(params):
    # 4-bit comparator cannot resolve better than one LSB of the range
    lsb_r = (1e6 - 50e3) / 16
    for _, miss in _single_writes(4, params, range(20),
                                  comparator_offset_sigma=0.0):
        assert miss <= lsb_r + K_WRITE * 10 * UA * 1e-9


def test_write_timeout(params):
    # 50 pulses move the resistance by 5% of its range
    res = write_sim_trials(float("inf"), 10 * UA, params, trials=20,
                           comparator_offset_sigma=0.0, t_max=50e-9)
    assert res["mean_error"] > 0.1


def test_more_comparator_bits_less_error(params):
    errs = [
        write_sim_trials(b, 10 * UA, params, trials=200, seed=0)["mean_error"]
        for b in (4, 6, 8)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_lower_write_current_less_error(params):
    hi = write_sim_trials(float("inf"), 10 * UA, params, trials=60,
                          seed=2)["mean_error"]
    lo = write_sim_trials(float("inf"), 5 * UA, params, trials=60,
                          seed=2)["mean_error"]
    assert lo < hi


def test_longer_timeout_less_error(params):
    errs = [
        write_sim_trials(6, 10 * UA, params, trials=60, t_max=t,
                         seed=0)["mean_error"]
        for t in (0.2e-6, 0.5e-6, 20e-6)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_write_trials_deterministic(params):
    a = write_sim_trials(6, 10 * UA, params, trials=40, seed=9)
    b = write_sim_trials(6, 10 * UA, params, trials=40, seed=9)
    assert a == b


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(st.floats(0, 1e6) | st.sampled_from((0.0, 0.25, 1.0)),
                min_size=1, max_size=499))
def test_p95_is_numpys_linear_quantile(x):
    x = np.array(x)
    assert devices._p95(x) == float(np.quantile(x, 0.95))


def test_write_sim_trials_leave_numpy_ma_unimported():
    # numpy.ma costs about 1.6 MB of resident memory when first imported
    code = ("import sys; from smtl.devices import DeviceParams, "
            "write_sim_trials; write_sim_trials(6, 1e-5, DeviceParams(), "
            "trials=20); print('numpy.ma' in sys.modules)")
    path = [str(Path(smtl.__file__).resolve().parents[1])]
    path += filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]
