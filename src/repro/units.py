"""Physical constants and unit helpers used across the simulator.

All internal computation uses SI units unless a name says otherwise:
temperatures are kelvin internally in the thermal solver, but most public
interfaces (sensors, profiles, reliability) speak degrees Celsius because
that is what the paper reports and what Linux ``coretemp`` exposes.
"""

from __future__ import annotations

#: Boltzmann constant in electron-volts per kelvin (used by Arrhenius terms).
BOLTZMANN_EV = 8.617333262e-5

#: Conversion offset between Celsius and kelvin.
KELVIN_OFFSET = 273.15

#: Seconds in a (Julian) year, used to express MTTF in years.
SECONDS_PER_YEAR = 365.25 * 24.0 * 3600.0


def celsius_to_kelvin(temp_c: float) -> float:
    """Convert a temperature from degrees Celsius to kelvin."""
    return temp_c + KELVIN_OFFSET


def seconds_to_years(seconds: float) -> float:
    """Convert a duration in seconds to years."""
    return seconds / SECONDS_PER_YEAR


def years_to_seconds(years: float) -> float:
    """Convert a duration in years to seconds."""
    return years * SECONDS_PER_YEAR


def ghz(value: float) -> float:
    """Return ``value`` gigahertz expressed in hertz."""
    return value * 1e9
