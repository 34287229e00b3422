"""Downing-Socie "simple rainflow" cycle counting (paper ref. [5]).

The paper extracts thermal cycles from a temperature profile using the
simple rainflow counting algorithm of Downing & Socie (1982).  We
implement the one-pass three-point variant standardised as ASTM E1049-85
"Rainflow Counting": the series is reduced to its reversal points, a stack
of candidate reversals is maintained, and whenever the most recent range
``X`` is at least as large as the previous range ``Y``, ``Y`` is counted —
as a full cycle when it is interior, or as a half cycle when it contains
the starting data point.  The residue left on the stack at the end of the
history is counted as half cycles.

Each counted cycle records the attributes Eq. 3 of the paper needs:

* ``amplitude_k`` — the full range ``deltaT`` of the cycle in kelvin,
* ``max_c`` — the maximum temperature touched by the cycle (``Tmax``),
* ``mean_c`` — the mean of the two endpoints,
* ``count`` — 1.0 for a full cycle, 0.5 for a half cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class ThermalCycle:
    """A single rainflow-counted thermal cycle.

    Attributes
    ----------
    amplitude_k:
        Peak-to-peak range of the cycle in kelvin (``deltaT_i`` in Eq. 3).
    mean_c:
        Mean temperature of the cycle endpoints in degrees Celsius.
    max_c:
        Maximum temperature of the cycle in degrees Celsius
        (``Tmax(i)`` in Eq. 3).
    count:
        1.0 for a full cycle, 0.5 for a half cycle (residue).
    """

    amplitude_k: float
    mean_c: float
    max_c: float
    count: float

    @property
    def min_c(self) -> float:
        """Minimum temperature of the cycle in degrees Celsius."""
        return self.max_c - self.amplitude_k


def extract_reversals(series: Sequence[float]) -> List[float]:
    """Reduce a temperature series to its sequence of reversal points.

    A reversal is a local maximum or minimum; consecutive equal samples
    are collapsed first so that plateaus do not produce spurious
    zero-range reversals.  The first and last samples are always kept
    (they bound the residue half-cycles).

    Parameters
    ----------
    series:
        Temperature samples in degrees Celsius.

    Returns
    -------
    list of float
        The reversal sequence; empty when fewer than two distinct
        samples exist.
    """
    # Collapse repeats.
    collapsed: List[float] = []
    for value in series:
        if not collapsed or value != collapsed[-1]:
            collapsed.append(float(value))
    if len(collapsed) < 2:
        return []

    reversals = [collapsed[0]]
    for index in range(1, len(collapsed) - 1):
        previous, current, following = (
            collapsed[index - 1],
            collapsed[index],
            collapsed[index + 1],
        )
        if (current - previous) * (following - current) < 0.0:
            reversals.append(current)
    reversals.append(collapsed[-1])
    return reversals


def _make_cycle(first: float, second: float, count: float) -> ThermalCycle:
    """Build a :class:`ThermalCycle` from two reversal endpoints."""
    high = max(first, second)
    low = min(first, second)
    return ThermalCycle(
        amplitude_k=high - low,
        mean_c=0.5 * (high + low),
        max_c=high,
        count=count,
    )


def count_cycles(series: Sequence[float]) -> List[ThermalCycle]:
    """Rainflow-count the thermal cycles of a temperature profile.

    Parameters
    ----------
    series:
        Temperature samples in degrees Celsius, in time order.

    Returns
    -------
    list of :class:`ThermalCycle`
        Counted cycles; full cycles carry ``count == 1.0`` and residue
        half-cycles ``count == 0.5``.  Zero-amplitude cycles are never
        produced.

    Notes
    -----
    The number of counted cycles (summing half cycles as 0.5) is bounded
    by half the number of reversals, a property the test-suite checks
    with hypothesis.
    """
    reversals = extract_reversals(series)
    cycles: List[ThermalCycle] = []
    stack: List[float] = []

    for point in reversals:
        stack.append(point)
        while len(stack) >= 3:
            x_range = abs(stack[-1] - stack[-2])
            y_range = abs(stack[-2] - stack[-3])
            if x_range < y_range:
                break
            if len(stack) == 3:
                # Y contains the starting point: count as a half cycle and
                # retire the starting point.
                if y_range > 0.0:
                    cycles.append(_make_cycle(stack[0], stack[1], 0.5))
                stack.pop(0)
            else:
                # Interior range: count Y as a full cycle and remove its
                # two endpoints from the stack.
                if y_range > 0.0:
                    cycles.append(_make_cycle(stack[-3], stack[-2], 1.0))
                del stack[-3:-1]

    # Residue: remaining ranges are half cycles.
    for index in range(len(stack) - 1):
        if stack[index] != stack[index + 1]:
            cycles.append(_make_cycle(stack[index], stack[index + 1], 0.5))
    return cycles


def total_cycle_count(cycles: Sequence[ThermalCycle]) -> float:
    """Total number of cycles, counting half cycles as 0.5."""
    return sum(cycle.count for cycle in cycles)
