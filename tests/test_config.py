"""Tests for the configuration dataclasses."""

import dataclasses

import pytest

from repro.config import (
    FaultConfig,
    OperatingPoint,
    PlatformConfig,
    SensorConfig,
    SupervisorConfig,
    default_agent_config,
    default_opp_table,
    default_platform_config,
    default_reliability_config,
)


def test_opp_table_sorted_and_positive():
    table = default_opp_table()
    frequencies = [p.frequency_hz for p in table]
    assert frequencies == sorted(frequencies)
    assert all(p.voltage_v > 0 for p in table)


def test_opp_voltage_monotone_in_frequency():
    table = default_opp_table()
    voltages = [p.voltage_v for p in table]
    assert voltages == sorted(voltages)


def test_platform_min_max_frequency():
    platform = default_platform_config()
    frequencies = [p.frequency_hz for p in platform.opp_table]
    assert min(frequencies) == 1.6e9
    assert max(frequencies) == 3.4e9


def test_platform_frequencies_ascending():
    platform = default_platform_config()
    freqs = platform.frequencies()
    assert freqs == sorted(freqs)
    assert len(freqs) == 6


def test_voltage_for_known_point():
    platform = default_platform_config()
    assert platform.voltage_for(3.4e9) == pytest.approx(1.100)


def test_voltage_for_unknown_point_raises():
    platform = default_platform_config()
    with pytest.raises(KeyError):
        platform.voltage_for(9.9e9)


def test_configs_are_frozen():
    platform = default_platform_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        platform.num_cores = 8  # type: ignore[misc]


def test_agent_config_defaults_match_paper_design_point():
    config = default_agent_config()
    assert config.sampling_interval_s == pytest.approx(3.0)
    assert config.decision_epoch_s == pytest.approx(30.0)
    # The decision epoch is a multiple of the sampling interval.
    ratio = config.decision_epoch_s / config.sampling_interval_s
    assert ratio == pytest.approx(round(ratio))


def test_reliability_anchor_is_ten_years():
    reliability = default_reliability_config()
    assert reliability.baseline_mttf_years == pytest.approx(10.0)


def test_reliability_auto_calibrated_atc():
    reliability = default_reliability_config()
    assert reliability.cycling_scale_atc is None  # auto-calibrate


def test_platform_adjacency_within_range():
    platform = default_platform_config()
    for a, b in platform.core_adjacency:
        assert 0 <= a < platform.num_cores
        assert 0 <= b < platform.num_cores


def test_custom_opp_table():
    config = PlatformConfig(opp_table=(OperatingPoint(1e9, 0.8), OperatingPoint(2e9, 1.0)))
    assert max(p.frequency_hz for p in config.opp_table) == 2e9


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        ({"min_c": 100.0, "max_c": 50.0}, "sensor range is empty"),
        ({"quantisation_c": -1.0}, "quantisation_c"),
        ({"noise_std_c": -0.5}, "noise_std_c"),
        ({"ema_tau_s": -2.0}, "ema_tau_s"),
        ({"ema_tau_s": float("nan")}, "ema_tau_s"),
        ({"ema_tau_s": float("inf")}, "ema_tau_s"),
        ({"noise_std_c": float("nan")}, "noise_std_c"),
        ({"quantisation_c": float("inf")}, "quantisation_c"),
        ({"min_c": float("nan")}, "min_c"),
        ({"max_c": float("inf")}, "max_c"),
    ],
)
def test_sensor_config_rejects_invalid(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        SensorConfig(**kwargs)


def test_fault_config_disabled_by_default():
    config = FaultConfig()
    assert not config.enabled
    assert config.dropout_prob == 0.0


def test_fault_config_rejects_bad_probability():
    with pytest.raises(ValueError, match="dropout_prob"):
        FaultConfig(dropout_prob=1.5)
    with pytest.raises(ValueError, match="fail\\+noop"):
        FaultConfig(governor_fail_prob=0.8, governor_noop_prob=0.8)


def test_supervisor_config_disabled_by_default():
    config = SupervisorConfig()
    assert not config.enabled
    assert config.emergency_release_c < config.critical_temp_c


def test_supervisor_config_rejects_inverted_thresholds():
    with pytest.raises(ValueError, match="emergency_release_c"):
        SupervisorConfig(critical_temp_c=70.0, emergency_release_c=80.0)
