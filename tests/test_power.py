"""Tests for the power models and energy meter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PowerConfig, default_platform_config
from repro.power.dynamic import dynamic_power_w
from repro.power.energy import EnergyMeter
from repro.power.leakage import leakage_power_w
from repro.power.opp import OppLadder

POWER = PowerConfig()
LADDER = OppLadder(default_platform_config().opp_table)


# ---------------------------------------------------------------------------
# OPP ladder
# ---------------------------------------------------------------------------


def test_ladder_sorted():
    freqs = LADDER.frequencies()
    assert freqs == sorted(freqs)
    assert LADDER.min_point.frequency_hz == 1.6e9
    assert LADDER.max_point.frequency_hz == 3.4e9


def test_ladder_index_and_at():
    index = LADDER.index_of(2.4e9)
    assert LADDER.at(index).frequency_hz == 2.4e9
    assert LADDER.at(-5).frequency_hz == 1.6e9  # clamped
    assert LADDER.at(99).frequency_hz == 3.4e9  # clamped


def test_ladder_nearest():
    assert LADDER.nearest(2.5e9).frequency_hz == 2.4e9
    assert LADDER.nearest(9e9).frequency_hz == 3.4e9


def test_ladder_ceil():
    assert LADDER.ceil(2.1e9).frequency_hz == 2.4e9
    assert LADDER.ceil(0.1e9).frequency_hz == 1.6e9
    assert LADDER.ceil(9e9).frequency_hz == 3.4e9


def test_ladder_step():
    assert LADDER.step(2.4e9, +1).frequency_hz == 2.8e9
    assert LADDER.step(2.4e9, -1).frequency_hz == 2.0e9
    assert LADDER.step(3.4e9, +1).frequency_hz == 3.4e9  # clamped


def test_ladder_unknown_frequency():
    with pytest.raises(KeyError):
        LADDER.index_of(2.5e9)


def test_ladder_rejects_duplicates():
    from repro.config import OperatingPoint

    with pytest.raises(ValueError):
        OppLadder([OperatingPoint(1e9, 0.8), OperatingPoint(1e9, 0.9)])


# ---------------------------------------------------------------------------
# Dynamic power
# ---------------------------------------------------------------------------


def test_dynamic_power_formula():
    p = dynamic_power_w(1.0, 1.1, 3.4e9, POWER)
    assert p == pytest.approx(POWER.c_eff * 1.1 * 1.1 * 3.4e9)
    # A fully active top-OPP core lands near 8 W, matching the chip's
    # ~30 W full-load budget.
    assert 6.0 < p < 10.0


def test_dynamic_power_zero_activity():
    assert dynamic_power_w(0.0, 1.0, 2e9, POWER) == 0.0


def test_dynamic_power_scales_linearly_with_activity():
    half = dynamic_power_w(0.5, 1.0, 2e9, POWER)
    full = dynamic_power_w(1.0, 1.0, 2e9, POWER)
    assert full == pytest.approx(2 * half)


def test_dynamic_power_quadratic_in_voltage():
    low = dynamic_power_w(1.0, 0.8, 2e9, POWER)
    high = dynamic_power_w(1.0, 1.6, 2e9, POWER)
    assert high == pytest.approx(4 * low)


def test_dynamic_power_validates_inputs():
    with pytest.raises(ValueError):
        dynamic_power_w(1.5, 1.0, 2e9, POWER)
    with pytest.raises(ValueError):
        dynamic_power_w(0.5, -1.0, 2e9, POWER)


def test_dvfs_cuts_power_superlinearly():
    """Dropping from the top to the 2.0 GHz OPP cuts dynamic power by
    much more than the frequency ratio (V^2 effect)."""
    top = dynamic_power_w(1.0, LADDER.voltage_for(3.4e9), 3.4e9, POWER)
    low = dynamic_power_w(1.0, LADDER.voltage_for(2.0e9), 2.0e9, POWER)
    assert low / top < (2.0 / 3.4) * 0.8


# ---------------------------------------------------------------------------
# Leakage
# ---------------------------------------------------------------------------


def test_leakage_grows_exponentially_with_temperature():
    cold = leakage_power_w(35.0, 1.0, POWER)
    hot = leakage_power_w(70.0, 1.0, POWER)
    import math

    assert hot / cold == pytest.approx(math.exp(POWER.t_leak * 35.0))


def test_leakage_linear_in_voltage():
    assert leakage_power_w(40.0, 1.0, POWER) == pytest.approx(
        2 * leakage_power_w(40.0, 0.5, POWER)
    )


def test_leakage_magnitude_is_sub_watt_when_idle():
    idle = leakage_power_w(34.0, 0.8, POWER)
    assert 0.1 < idle < 1.5


def test_leakage_rejects_bad_voltage():
    with pytest.raises(ValueError):
        leakage_power_w(40.0, 0.0, POWER)


@given(
    st.floats(min_value=20.0, max_value=100.0),
    st.floats(min_value=0.5, max_value=1.5),
)
@settings(max_examples=50, deadline=None)
def test_leakage_positive(temp, voltage):
    assert leakage_power_w(temp, voltage, POWER) > 0.0


# ---------------------------------------------------------------------------
# Energy meter
# ---------------------------------------------------------------------------


def test_meter_accumulates():
    meter = EnergyMeter()
    meter.record([2.0, 2.0], [0.5, 0.5], 1.0, dt=2.0)
    assert meter.dynamic_j == pytest.approx((4.0 + 1.0) * 2.0)
    assert meter.static_j == pytest.approx(1.0 * 2.0)
    assert meter.total_j == pytest.approx(12.0)
    assert meter.elapsed_s == pytest.approx(2.0)


def test_meter_average_powers():
    meter = EnergyMeter()
    meter.record([3.0], [1.0], 0.0, dt=10.0)
    assert meter.average_dynamic_power_w == pytest.approx(3.0)


def test_meter_empty_averages_are_zero():
    meter = EnergyMeter()
    assert meter.average_dynamic_power_w == 0.0


def test_meter_snapshot_and_since():
    meter = EnergyMeter()
    meter.record([1.0], [0.5], 0.0, dt=1.0)
    snap = meter.snapshot()
    meter.record([2.0], [0.5], 0.0, dt=1.0)
    delta = meter.since(snap)
    assert delta.dynamic_j == pytest.approx(2.0)
    assert delta.static_j == pytest.approx(0.5)
    assert delta.elapsed_s == pytest.approx(1.0)


def test_meter_rejects_bad_dt():
    meter = EnergyMeter()
    with pytest.raises(ValueError):
        meter.record([1.0], [0.0], 0.0, dt=0.0)
