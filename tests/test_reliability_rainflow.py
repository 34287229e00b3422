"""Tests for the Downing-Socie rainflow counter, incl. property tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability.rainflow import (
    ThermalCycle,
    count_cycles,
    extract_reversals,
    total_cycle_count,
)


def max_amplitude(cycles):
    """Largest cycle amplitude in kelvin (0.0 for an empty list)."""
    return max((cycle.amplitude_k for cycle in cycles), default=0.0)


# ---------------------------------------------------------------------------
# Reversal extraction
# ---------------------------------------------------------------------------


def test_reversals_of_monotone_series():
    assert extract_reversals([1, 2, 3, 4]) == [1, 4]


def test_reversals_of_triangle():
    assert extract_reversals([0, 5, 0]) == [0, 5, 0]


def test_reversals_collapse_plateaus():
    assert extract_reversals([0, 5, 5, 5, 0]) == [0, 5, 0]


def test_reversals_empty_and_constant():
    assert extract_reversals([]) == []
    assert extract_reversals([3, 3, 3]) == []


def test_reversals_keep_endpoints():
    revs = extract_reversals([2, 8, 4, 9, 1])
    assert revs[0] == 2
    assert revs[-1] == 1


# ---------------------------------------------------------------------------
# Cycle counting — hand-checked cases
# ---------------------------------------------------------------------------


def test_single_triangle_counts_half_cycles():
    cycles = count_cycles([0.0, 10.0, 0.0])
    assert total_cycle_count(cycles) == pytest.approx(1.0)  # two halves
    assert max_amplitude(cycles) == pytest.approx(10.0)


def test_repeated_triangles_count_full_cycles():
    series = [0.0, 10.0] * 6 + [0.0]
    cycles = count_cycles(series)
    assert total_cycle_count(cycles) == pytest.approx(6.0)
    assert all(c.amplitude_k == pytest.approx(10.0) for c in cycles)


def test_astm_reference_history():
    """The classic ASTM E1049 example history.

    Series -2, 1, -3, 5, -1, 3, -4, 4, -2 counts ranges
    {3: 0.5, 4: 1.5, 6: 0.5, 8: 1.0, 9: 0.5} (full equivalents).
    """
    series = [-2, 1, -3, 5, -1, 3, -4, 4, -2]
    cycles = count_cycles(series)
    by_range = {}
    for c in cycles:
        by_range[c.amplitude_k] = by_range.get(c.amplitude_k, 0.0) + c.count
    assert by_range[3.0] == pytest.approx(0.5)
    assert by_range[4.0] == pytest.approx(1.5)
    assert by_range[6.0] == pytest.approx(0.5)
    assert by_range[8.0] == pytest.approx(1.0)
    assert by_range[9.0] == pytest.approx(0.5)
    assert total_cycle_count(cycles) == pytest.approx(4.0)


def test_nested_cycle_extracted():
    # A small cycle riding on a large one: 0 -> 10 with a 6/4 dip inside.
    series = [0.0, 6.0, 4.0, 10.0, 0.0]
    cycles = count_cycles(series)
    amplitudes = sorted(c.amplitude_k for c in cycles)
    assert amplitudes[0] == pytest.approx(2.0)  # the nested 6->4 cycle
    assert amplitudes[-1] == pytest.approx(10.0)


def test_cycle_records_max_and_mean():
    cycles = count_cycles([20.0, 50.0, 20.0])
    assert all(c.max_c == pytest.approx(50.0) for c in cycles)
    assert all(c.mean_c == pytest.approx(35.0) for c in cycles)
    assert all(c.min_c == pytest.approx(20.0) for c in cycles)


def test_empty_and_trivial_series():
    assert count_cycles([]) == []
    assert count_cycles([5.0]) == []
    assert count_cycles([5.0, 5.0, 5.0]) == []


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------


temperature_series = st.lists(
    st.floats(min_value=-20.0, max_value=120.0, allow_nan=False), min_size=0, max_size=120
)


@given(temperature_series)
@settings(max_examples=200, deadline=None)
def test_cycle_count_bounded_by_reversals(series):
    reversals = extract_reversals(series)
    cycles = count_cycles(series)
    # Each counted (full or half) cycle consumes reversal ranges; the
    # full-cycle-equivalent count can never exceed half the reversals.
    assert total_cycle_count(cycles) <= max(0, len(reversals)) / 2 + 1e-9


@given(temperature_series)
@settings(max_examples=200, deadline=None)
def test_amplitudes_bounded_by_series_range(series):
    cycles = count_cycles(series)
    if not cycles:
        return
    span = max(series) - min(series)
    assert max_amplitude(cycles) <= span + 1e-9


@given(temperature_series)
@settings(max_examples=200, deadline=None)
def test_cycle_extremes_within_series(series):
    cycles = count_cycles(series)
    if not cycles:
        return
    low, high = min(series), max(series)
    for cycle in cycles:
        assert low - 1e-9 <= cycle.min_c
        assert cycle.max_c <= high + 1e-9


@given(temperature_series)
@settings(max_examples=200, deadline=None)
def test_counts_are_half_or_full(series):
    for cycle in count_cycles(series):
        assert cycle.count in (0.5, 1.0)
        assert cycle.amplitude_k > 0.0


coarse_series = st.lists(
    st.floats(min_value=-20.0, max_value=120.0, allow_nan=False).map(
        lambda x: round(x, 3)
    ),
    min_size=0,
    max_size=120,
)


@given(coarse_series, st.floats(min_value=-50.0, max_value=50.0, allow_nan=False).map(lambda x: round(x, 3)))
@settings(max_examples=100, deadline=None)
def test_counting_is_shift_invariant(series, offset):
    # Values are rounded to milli-kelvin so the shift cannot absorb
    # sub-epsilon differences between samples (a float artefact, not a
    # property of the algorithm).
    base = count_cycles(series)
    shifted = count_cycles([x + offset for x in series])
    assert total_cycle_count(base) == pytest.approx(total_cycle_count(shifted))
    assert max_amplitude(base) == pytest.approx(max_amplitude(shifted), abs=1e-6)


def test_thermal_cycle_is_frozen():
    cycle = ThermalCycle(5.0, 40.0, 42.5, 1.0)
    with pytest.raises(Exception):
        cycle.amplitude_k = 9.0  # type: ignore[misc]
