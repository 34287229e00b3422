"""Tests for unit helpers."""

import math

from repro.units import (
    BOLTZMANN_EV,
    SECONDS_PER_YEAR,
    celsius_to_kelvin,
    ghz,
    seconds_to_years,
    years_to_seconds,
)


def test_celsius_kelvin_roundtrip():
    assert celsius_to_kelvin(0.0) == 273.15
    assert celsius_to_kelvin(42.5) - 273.15 == 42.5


def test_celsius_kelvin_negative():
    assert celsius_to_kelvin(-273.15) == 0.0


def test_year_conversions_roundtrip():
    assert math.isclose(seconds_to_years(years_to_seconds(3.7)), 3.7)


def test_seconds_per_year_magnitude():
    assert 3.1e7 < SECONDS_PER_YEAR < 3.2e7


def test_ghz():
    assert ghz(3.4) == 3.4e9


def test_boltzmann_constant():
    assert math.isclose(BOLTZMANN_EV, 8.617e-5, rel_tol=1e-3)
