"""Tests for the MTTF evaluation and its Table-2 calibration anchor."""

import math

import pytest

from repro.config import ReliabilityConfig, default_reliability_config
from repro.reliability.mttf import (
    aging_mttf_years,
    calibrate_atc,
    cycling_mttf_years,
    evaluate_profile,
    resolved_atc,
    sofr_mttf_years,
)

REL = default_reliability_config()


def test_idle_core_has_baseline_aging_mttf():
    """Table 2 caption: an idle core has an MTTF of 10 years."""
    series = [REL.reference_temp_c] * 100
    assert aging_mttf_years(series, REL) == pytest.approx(REL.baseline_mttf_years)


def test_idle_core_has_baseline_cycling_mttf():
    series = [REL.reference_temp_c] * 100
    assert cycling_mttf_years(series, 100.0, REL) == pytest.approx(
        REL.baseline_mttf_years
    )


def test_hot_core_ages_faster():
    hot = aging_mttf_years([70.0] * 100, REL)
    warm = aging_mttf_years([50.0] * 100, REL)
    assert hot < warm < REL.baseline_mttf_years


def test_cycling_mttf_bounded_by_baseline():
    series = ([40.0, 60.0] * 50)[:100]
    mttf = cycling_mttf_years(series, 100.0, REL)
    assert 0.0 < mttf < REL.baseline_mttf_years


def test_cycling_mttf_decreases_with_amplitude():
    small = cycling_mttf_years(([45.0, 52.0] * 50)[:100], 500.0, REL)
    large = cycling_mttf_years(([40.0, 62.0] * 50)[:100], 500.0, REL)
    assert large < small


def test_calibration_reference_profile():
    """The 45<->55 triangle at 20 s period hits the configured target."""
    atc = calibrate_atc(REL)
    # Build the exact reference: one full cycle per 20 s.
    cycles_per_second = 1.0 / 20.0
    from repro.reliability.rainflow import ThermalCycle
    from repro.reliability.stress import cycle_stress

    cycle = ThermalCycle(amplitude_k=10.0, mean_c=50.0, max_c=55.0, count=1.0)
    stress_rate = cycle_stress(cycle, REL) * cycles_per_second
    raw_mttf_s = atc / stress_rate
    from repro.units import seconds_to_years

    assert seconds_to_years(raw_mttf_s) == pytest.approx(
        REL.cycling_reference_mttf_years, rel=1e-6
    )


def test_resolved_atc_uses_explicit_value():
    config = ReliabilityConfig(cycling_scale_atc=123.0)
    assert resolved_atc(config) == 123.0


def test_sofr_combination():
    assert sofr_mttf_years(10.0, 10.0) == pytest.approx(5.0)
    assert sofr_mttf_years(math.inf, 4.0) == pytest.approx(4.0)
    assert math.isinf(sofr_mttf_years(math.inf, math.inf))
    assert sofr_mttf_years(0.0, 5.0) == 0.0


def test_evaluate_profile_summary_fields():
    series = ([40.0, 55.0] * 60)[:120]
    report = evaluate_profile(series, 1.0, REL)
    assert report.average_temp_c == pytest.approx(sum(series) / len(series))
    assert report.peak_temp_c == pytest.approx(55.0)
    assert report.stress > 0.0
    assert report.num_cycles > 10
    assert 0.0 < report.cycling_mttf_years < REL.baseline_mttf_years
    assert 0.0 < report.aging_mttf_years < REL.baseline_mttf_years
    combined = sofr_mttf_years(report.aging_mttf_years, report.cycling_mttf_years)
    assert combined < min(
        report.cycling_mttf_years, report.aging_mttf_years
    )


def test_evaluate_empty_profile():
    report = evaluate_profile([], 1.0, REL)
    assert report.aging_mttf_years == REL.baseline_mttf_years
    assert report.cycling_mttf_years == REL.baseline_mttf_years
    assert report.num_cycles == 0.0


def test_paper_band_hot_steady_profile():
    """A 70 degC steady profile ages to well under a year, like the
    paper's hottest Linux row (tachyon set 1: 0.7 years)."""
    mttf = aging_mttf_years([71.0] * 600, REL)
    assert 0.2 < mttf < 1.2
