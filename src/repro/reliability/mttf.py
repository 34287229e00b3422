"""MTTF evaluation and calibration (Eqs. 2, 4 and the Table 2 anchor).

Two wear-out channels are evaluated on every core's thermal profile:

* **aging MTTF** — Eq. 2 integrated for the Weibull lifetime
  ``R(t) = exp(-(t A)^beta)`` gives ``MTTF = Gamma(1 + 1/beta) / A``.
  With the Arrhenius aging rate of :mod:`repro.reliability.aging` and the
  calibration anchor below this collapses to
  ``baseline_mttf_years / mean_aging_rate``;
* **cycling MTTF** — Eqs. 3-5 collapse to
  ``MTTF = A_TC * sum(t_i) / Stress`` (the paper derives exactly this),
  combined with the baseline wear-out channel as a sum-of-failure-rates
  so an idle (all-elastic) profile reports the baseline 10 years.

The caption of Table 2 states that the scaling parameters are selected so
an unstressed (idle) core has an MTTF of 10 years; both channels here are
calibrated to that anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.config import ReliabilityConfig
from repro.reliability.aging import mean_aging_rate
from repro.reliability.rainflow import ThermalCycle, count_cycles
from repro.reliability.stress import thermal_stress
from repro.units import BOLTZMANN_EV, celsius_to_kelvin, seconds_to_years, years_to_seconds


@dataclass(frozen=True)
class MttfReport:
    """Reliability summary of one core's thermal profile.

    Mirrors the columns of Table 2 of the paper.
    """

    #: Time-average temperature over the profile (degC).
    average_temp_c: float
    #: Peak temperature over the profile (degC).
    peak_temp_c: float
    #: Total thermal stress (Eq. 6) of the profile.
    stress: float
    #: Time-averaged aging rate relative to an idle core.
    mean_aging_rate: float
    #: Number of rainflow cycles counted (half cycles as 0.5).
    num_cycles: float
    #: MTTF due to average temperature / aging, in years.
    aging_mttf_years: float
    #: MTTF due to thermal cycling, in years.
    cycling_mttf_years: float


def calibrate_atc(config: ReliabilityConfig) -> float:
    """Coffin-Manson scale ``A_TC`` from the documented reference profile.

    The reference is a core cycling with 10 K amplitude around 50 degC
    (i.e. 45 <-> 55 degC) with a 20 s period; ``A_TC`` is chosen so that
    profile's raw cycling MTTF equals
    ``config.cycling_reference_mttf_years``.

    Returns
    -------
    float
        ``A_TC`` such that ``MTTF = A_TC * duration / stress``.
    """
    amplitude_k = 10.0
    t_max_c = 55.0
    period_s = 20.0
    effective = amplitude_k - config.elastic_threshold_k
    if effective <= 0.0:
        raise ValueError("elastic threshold exceeds the calibration amplitude")
    arrhenius = math.exp(
        -config.cycling_activation_energy_ev
        / (BOLTZMANN_EV * celsius_to_kelvin(t_max_c))
    )
    stress_per_cycle = effective**config.coffin_manson_exponent * arrhenius
    stress_rate = stress_per_cycle / period_s
    target_s = years_to_seconds(config.cycling_reference_mttf_years)
    return target_s * stress_rate


def resolved_atc(config: ReliabilityConfig) -> float:
    """The configured ``A_TC``, auto-calibrating when it is ``None``."""
    if config.cycling_scale_atc is not None:
        return config.cycling_scale_atc
    return calibrate_atc(config)


def aging_mttf_years(series_c: Sequence[float], config: ReliabilityConfig) -> float:
    """Aging (average-temperature) MTTF of a profile, in years.

    An idle profile pinned at the reference temperature yields exactly
    ``config.baseline_mttf_years``; hotter profiles decay exponentially
    per the Arrhenius aging rate.
    """
    rate = mean_aging_rate(series_c, config)
    return config.baseline_mttf_years / rate


def cycling_mttf_years(
    series_c: Sequence[float],
    duration_s: float,
    config: ReliabilityConfig,
    cycles: Optional[Sequence[ThermalCycle]] = None,
) -> float:
    """Thermal-cycling MTTF of a profile, in years.

    Combines the raw Coffin-Manson/Miner MTTF with the baseline wear-out
    channel (sum of failure rates), so the result is bounded above by
    ``config.baseline_mttf_years`` and equals it for an all-elastic
    profile.

    Parameters
    ----------
    series_c:
        Temperature samples in degrees Celsius.
    duration_s:
        Observation time represented by the samples.
    config:
        Device parameters.
    cycles:
        Optionally pre-counted rainflow cycles, to avoid recounting.
    """
    if cycles is None:
        cycles = count_cycles(series_c)
    stress = thermal_stress(list(cycles), config)
    baseline_s = years_to_seconds(config.baseline_mttf_years)
    if stress <= 0.0 or duration_s <= 0.0:
        return config.baseline_mttf_years
    raw_mttf_s = resolved_atc(config) * duration_s / stress
    combined_s = 1.0 / (1.0 / raw_mttf_s + 1.0 / baseline_s)
    return seconds_to_years(combined_s)


def sofr_mttf_years(*mttfs_years: float) -> float:
    """Combine per-channel MTTFs under the sum-of-failure-rates model."""
    rate = 0.0
    for mttf in mttfs_years:
        if mttf <= 0.0:
            return 0.0
        if math.isfinite(mttf):
            rate += 1.0 / mttf
    if rate == 0.0:
        return math.inf
    return 1.0 / rate


def evaluate_profile(
    series_c: Sequence[float],
    sample_period_s: float,
    config: ReliabilityConfig,
) -> MttfReport:
    """Full reliability report for one core's temperature profile.

    Parameters
    ----------
    series_c:
        Uniformly spaced temperature samples in degrees Celsius.
    sample_period_s:
        Spacing of the samples in seconds.
    config:
        Device parameters.
    """
    samples = list(series_c)
    if not samples:
        return MttfReport(
            average_temp_c=config.reference_temp_c,
            peak_temp_c=config.reference_temp_c,
            stress=0.0,
            mean_aging_rate=1.0,
            num_cycles=0.0,
            aging_mttf_years=config.baseline_mttf_years,
            cycling_mttf_years=config.baseline_mttf_years,
        )
    duration_s = len(samples) * sample_period_s
    cycles = count_cycles(samples)
    stress = thermal_stress(cycles, config)
    rate = mean_aging_rate(samples, config)
    return MttfReport(
        average_temp_c=sum(samples) / len(samples),
        peak_temp_c=max(samples),
        stress=stress,
        mean_aging_rate=rate,
        num_cycles=sum(c.count for c in cycles),
        aging_mttf_years=config.baseline_mttf_years / rate,
        cycling_mttf_years=cycling_mttf_years(samples, duration_s, config, cycles),
    )
