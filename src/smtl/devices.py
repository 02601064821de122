"""Behavioral device models: memristor conductances, the feedback write
loop, and the domain-wall threshold device (switching and MTJ read-out).

All electrical quantities are SI (ohms, amps, volts, seconds, watts).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from importlib import resources

import numpy as np

UA = 1e-6
# Distinct conductance levels a memristor is programmed to: the largest
# |weight| (or bias chunk) one crossbar row holds.
W_MAX = 6


class ReadDisturbError(Exception):
    """Sense current would move the domain wall."""


@dataclass
class DeviceParams:
    i_threshold: float = 2e-6        # A, minimum current to move the wall
    t_switch_ref: float = 1e-9       # s, switching time at i_threshold
    v_supply: float = 0.6            # V, detection/supply rail
    delta_v: float = 0.05            # V, crossbar terminal voltage
    r_memristor_min: float = 50e3    # ohm, full-weight state
    r_memristor_max: float = 1e6     # ohm
    r_off: float = 10e6              # ohm, unprogrammed (no-edge) state
    r_mtj_parallel: float = 300e3    # ohm
    tmr: float = 4.0                 # (R_ap - R_p) / R_p
    p_detect: float = 0.15e-6        # W per sensing unit at f_clk
    f_clk: float = 500e6             # Hz
    i_write_threshold: float = 5e-6  # A, below this the state barely moves
    # carried for completeness; not used by any equation here
    metadata: dict = field(default_factory=lambda: {
        "free_domain_nm": [3, 20, 40],
        "Ms_emu_per_cm3": 400,
        "Ku2V_kBT": 20,
        "beta_nonadiabatic": 0.1,
        "alpha_damping": 0.01,
        "mtj_t_ox_nm": 1.8,
        "mtj_area_nm2": [20, 20],
        "cmos_tech_nm": 45,
    })

    def __post_init__(self):
        for name in ("i_threshold", "t_switch_ref", "v_supply", "delta_v",
                     "r_memristor_min", "r_memristor_max", "r_off",
                     "r_mtj_parallel", "tmr", "p_detect", "f_clk"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.r_memristor_min >= self.r_memristor_max:
            raise ValueError("memristor resistance range is inverted")

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, obj):
        return cls(**obj)

    @classmethod
    def load(cls, path=None):
        if path is None:
            text = resources.files("smtl.data").joinpath("table1.json").read_text()
        else:
            with open(path) as f:
                text = f.read()
        return cls.from_json(json.loads(text))


def bias_rows(bias):
    """Always-on input rows needed to realize a gate bias."""
    return math.ceil(abs(bias) / W_MAX)


def bias_chunks(bias):
    """Split a bias into per-row signed conductance levels, |chunk| <= W_MAX."""
    chunks, rest = [], bias
    while rest:
        step = max(-W_MAX, min(W_MAX, rest))
        chunks.append(step)
        rest -= step
    return chunks


def weight_to_conductance(w, params):
    """Map a signed integer weight to the (g_plus, g_minus) conductance pair.

    |w| scales linearly up to 1/R_min at |w| = W_MAX; the unused polarity
    (and both, for w = 0) sits at the off-state conductance.
    """
    if abs(w) > W_MAX:
        raise ValueError(f"|{w}| exceeds {W_MAX} conductance levels")
    g_unit = (1.0 / params.r_memristor_min) / W_MAX
    g_off = 1.0 / params.r_off
    if w > 0:
        return w * g_unit, g_off
    if w < 0:
        return g_off, -w * g_unit
    return g_off, g_off


def std_switch_time(i_net, params):
    """Domain-wall transit time for a net drive current, or None below the
    threshold current (no transition).

    Linear speed-current model: t = t_ref * I_th / |I|.
    """
    if abs(i_net) < params.i_threshold:
        return None
    return params.t_switch_ref * params.i_threshold / abs(i_net)


def std_read(params):
    """Read currents and output swing of the MTJ voltage divider.

    The reference MTJ is the geometric mean of the two free-layer states,
    which maximizes the symmetric swing. Raises if either read current
    could move the wall.
    """
    r_p = params.r_mtj_parallel
    r_ap = r_p * (1.0 + params.tmr)
    r_ref = math.sqrt(r_p * r_ap)
    i_p = params.v_supply / (r_p + r_ref)
    i_ap = params.v_supply / (r_ap + r_ref)
    v_swing = params.v_supply * r_ref * (
        1.0 / (r_p + r_ref) - 1.0 / (r_ap + r_ref)
    )
    if i_p >= params.i_threshold or i_ap >= params.i_threshold:
        raise ReadDisturbError(
            f"read current {max(i_p, i_ap) / UA:.2f} uA reaches the "
            f"{params.i_threshold / UA:.2f} uA switching threshold"
        )
    return {
        "i_read_parallel": i_p,
        "i_read_antiparallel": i_ap,
        "v_swing": v_swing,
    }


# Ramp-rate constant: a full-range write at 10 uA takes about 1 us.
K_WRITE = (1e6 - 50e3) / (10e-6 * 1e-6)  # ohm per (A * s)


def _check_write(i_prog, params):
    if i_prog < params.i_write_threshold * (1.0 - 1e-9):
        raise ValueError(
            f"programming current {i_prog / UA:.2f} uA below the "
            f"{params.i_write_threshold / UA:.2f} uA write threshold"
        )


def _stop_voltage(target_r, i_prog, comparator_bits, params,
                  comparator_offset_sigma, seed):
    """The comparator's stop level: the target voltage quantized by the
    DAC, plus an offset drawn by `default_rng(seed)`."""
    v_lo = i_prog * params.r_memristor_min
    v_hi = i_prog * params.r_memristor_max
    if math.isfinite(comparator_bits):
        lsb = (v_hi - v_lo) / (2 ** comparator_bits)
        code = round((i_prog * target_r - v_lo) / lsb)
        v_target = v_lo + code * lsb
    else:
        v_target = i_prog * target_r
    rng = np.random.default_rng(seed)
    return v_target + rng.normal(0.0, comparator_offset_sigma)


def _downward_ramp(i_prog, params, dt, t_max):
    """The resistances a write steps through from r_memristor_max towards
    a lower target, one pulse of dt at a time, until it would time out or
    the resistance is clamped at r_memristor_min. Its last entry is where
    a write that never meets its stop level ends."""
    r_min, r_max = params.r_memristor_min, params.r_memristor_max
    step = K_WRITE * i_prog * dt
    r, t = r_max, 0.0
    ramp = [r]
    while t < t_max and r > r_min:
        r += -1.0 * step
        r = min(max(r, r_min), r_max)
        t += dt
        ramp.append(r)
    return np.array(ramp)


def _p95(x):
    """`np.quantile(x, 0.95)` to the bit (its linear method), without the
    `np.unique` call that imports `numpy.ma`."""
    x, at = np.sort(x), (len(x) - 1) * 0.95
    a, b, t = x[int(at)], x[min(int(at) + 1, len(x) - 1)], at % 1
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def write_sim_trials(comparator_bits, i_prog, params, trials=200,
                     comparator_offset_sigma=1e-4, dt=1e-9, t_max=20e-6,
                     seed=0):
    """Monte-Carlo of the closed-loop write over random targets; returns
    mean and p95 error.

    Trial i ramps from r_memristor_max towards a target drawn by
    `default_rng(seed)` and stops at the first pulse whose voltage I*R is
    at or below its stop level (`_stop_voltage`, offset seed
    `seed * 100003 + i`), or at t_max. Every trial below r_memristor_max
    steps through the same resistances, so the ramp is built once and
    each trial's stop step is found by search.
    """
    _check_write(i_prog, params)
    rng = np.random.default_rng(seed)
    ramp = _downward_ramp(i_prog, params, dt, t_max)
    falling = -(i_prog * ramp)  # ascending: the voltages only fall
    errors = []
    for i in range(trials):
        target = rng.uniform(params.r_memristor_min, params.r_memristor_max)
        if target >= params.r_memristor_max:
            # the loop would ramp upwards from its clamp, so never moves
            r = params.r_memristor_max
        else:
            v_target = _stop_voltage(target, i_prog, comparator_bits, params,
                                     comparator_offset_sigma,
                                     seed * 100003 + i)
            stop = np.searchsorted(falling, -v_target)
            r = float(ramp[min(stop, len(ramp) - 1)])
        errors.append(abs(r - target) / target)
    errors = np.array(errors)
    return {
        "bits": comparator_bits,
        "i_prog": i_prog,
        "t_max": t_max,
        "mean_error": float(errors.mean()),
        "p95_error": _p95(errors),
    }
