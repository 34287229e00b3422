"""Tests for the analysis helpers."""

import math

import pytest

from repro.analysis.autocorrelation import autocorrelation, decimate
from repro.analysis.tables import format_table


def test_autocorrelation_of_smooth_series():
    series = [math.sin(i / 50.0) for i in range(500)]
    assert autocorrelation(series) > 0.99


def test_autocorrelation_of_alternating_series():
    series = [1.0, -1.0] * 100
    assert autocorrelation(series) < -0.9


def test_autocorrelation_of_constant_series():
    assert autocorrelation([5.0] * 50) == 0.0


def test_autocorrelation_lag():
    series = [float(i % 4) for i in range(100)]
    assert autocorrelation(series, lag=4) > 0.99


def test_autocorrelation_validation():
    with pytest.raises(ValueError):
        autocorrelation([1.0, 2.0], lag=1)
    with pytest.raises(ValueError):
        autocorrelation([1.0] * 10, lag=0)


def test_decimate():
    assert decimate(list(range(10)), 3) == [0, 3, 6, 9]
    assert decimate(list(range(5)), 1) == list(range(5))
    with pytest.raises(ValueError):
        decimate([1], 0)


def test_format_table_alignment():
    text = format_table(["name", "value"], [["a", 1.5], ["long-name", 2.25]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert all(len(line) == len(lines[1]) for line in lines[3:])


def test_format_table_validates_width():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [["only-one"]])


def test_format_table_float_format():
    text = format_table(["x"], [[1.23456]], float_format="{:.1f}")
    assert "1.2" in text and "1.23" not in text
