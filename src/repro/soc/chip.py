"""The chip: thermal network + power model + energy meter.

One :meth:`Chip.step` call advances the die one tick: per-core dynamic
power is evaluated from the scheduler's activity factors, leakage from
the *current* temperatures (capturing the leakage/temperature feedback
loop), the RC network integrates the total heat, and the energy meter
accumulates both channels.

``step`` is on the simulation's hot path, so the per-core power math
runs off a precomputed :class:`~repro.power.table.PowerTable` (one dict
lookup per core instead of a ladder scan plus re-validated free-function
calls) and the thermal update goes through the RC model's unchecked
``_step_into`` — both bit-identical to the seed arithmetic.  Per-core
dynamic power depends on nothing but the activities and frequencies, so
a step that gets the previous step's reuses its dynamic list (quiet
scheduler ticks repeat both exactly).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import PlatformConfig
from repro.perf.timer import SectionTimer
from repro.power.energy import EnergyMeter
from repro.power.leakage import leakage_power_w
from repro.power.opp import OppLadder
from repro.power.table import PowerTable
from repro.thermal.floorplan import Floorplan
from repro.thermal.rc_model import RCThermalModel
from repro.thermal.sensors import SensorBank


class Chip:
    """Steppable model of the quad-core die.

    Parameters
    ----------
    config:
        Platform configuration (power, thermal, sensors, OPPs).
    seed:
        Seed for the sensor noise RNG.
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = (
        "thermal",
        "sensors",
        "energy",
        "_last_dynamic",
        "_last_static",
        "_drift_rng",
    )
    #: Construction values, the dt-keyed drift constants (a fresh
    #: ``_drift_dt`` of None recomputes them on the next step) and the
    #: input-keyed dynamic-power memo.
    DERIVED_FIELDS = (
        "config",
        "ladder",
        "power_table",
        "floorplan",
        "_drift_enabled",
        "_drift_dt",
        "_drift_pull_gain",
        "_drift_kick_scale",
        "_idle_package_power_w",
        "_uncore_per_active_w",
        "_timer",
        "_power_memo",
    )

    def __init__(self, config: PlatformConfig, seed: int = 0) -> None:
        self.config = config
        self.ladder = OppLadder(config.opp_table)
        self.power_table = PowerTable(self.ladder, config.power)
        self.floorplan = Floorplan(
            num_cores=config.num_cores, adjacency=config.core_adjacency
        )
        self.thermal = RCThermalModel(self.floorplan, config.thermal, config.dt)
        self.sensors = SensorBank(config.num_cores, config.sensor, seed=seed)
        self.energy = EnergyMeter()
        self._last_dynamic: List[float] = [0.0] * config.num_cores
        self._last_static: List[float] = [0.0] * config.num_cores
        self._drift_rng = np.random.default_rng(seed + 7)
        # Ornstein-Uhlenbeck drift constants, cached per tick length
        # (recomputed only when a caller changes dt between steps).
        self._drift_enabled = config.thermal.ambient_drift_sigma_c > 0.0
        self._drift_dt: Optional[float] = None
        self._drift_pull_gain = 0.0
        self._drift_kick_scale = 0.0
        # Uncore-power constants (PowerConfig is frozen).
        self._idle_package_power_w = config.power.idle_package_power
        self._uncore_per_active_w = config.power.uncore_power_per_active_core
        self._timer: Optional[SectionTimer] = None
        # (activities, frequencies) of the last evaluated step, with its
        # dynamic list, per-core leakage scales and uncore power.
        self._power_memo: Optional[
            Tuple[List[float], List[float], List[float], List[float], float]
        ] = None

    def _after_restore(self) -> None:
        self._power_memo = None

    def attach_timer(self, timer: Optional[SectionTimer]) -> None:
        """Attach (or detach, with None) a per-phase section timer."""
        self._timer = timer

    @property
    def num_cores(self) -> int:
        """Number of cores on the die."""
        return self.config.num_cores

    def core_temps_c(self) -> np.ndarray:
        """True (un-sensed) core temperatures."""
        return self.thermal.core_temps_c()

    def read_sensors(self) -> np.ndarray:
        """One quantised+noisy sensor sample per core."""
        return self.sensors.read(self.core_temps_c())

    def step(
        self,
        activities: Sequence[float],
        frequencies_hz: Sequence[float],
        dt: float,
    ) -> None:
        """Advance the die one tick.

        Parameters
        ----------
        activities:
            Per-core switching-activity factors from the scheduler.
        frequencies_hz:
            Per-core clock frequencies (must be OPP frequencies).
        dt:
            Tick length in seconds.
        """
        num_cores = self.config.num_cores
        if len(activities) != num_cores or len(frequencies_hz) != num_cores:
            raise ValueError(f"expected {num_cores} activities and frequencies")
        if self._drift_enabled:
            # Ornstein-Uhlenbeck airflow/ambient fluctuation.
            if dt != self._drift_dt:
                thermal_cfg = self.config.thermal
                tau = thermal_cfg.ambient_drift_tau_s
                self._drift_pull_gain = dt / tau
                self._drift_kick_scale = thermal_cfg.ambient_drift_sigma_c * np.sqrt(
                    2.0 * dt / tau
                )
                self._drift_dt = dt
            thermal = self.thermal
            current = thermal.ambient_c
            pull = (self.config.thermal.ambient_c - current) * self._drift_pull_gain
            kick = self._drift_kick_scale * self._drift_rng.normal()
            thermal.set_ambient_c(current + pull + kick)
        timer = self._timer
        if timer is not None:
            mark = timer.now()
        t_leak = self.power_table.t_leak
        exp = math.exp
        # Plain-float temperatures: one C-level conversion instead of a
        # boxed numpy scalar per core (same IEEE doubles either way).
        temps = self.thermal._temps.tolist()
        memo = self._power_memo
        if (
            memo is not None
            and activities == memo[0]
            and frequencies_hz == memo[1]
        ):
            # Same inputs as the last evaluated step (already validated
            # then): its dynamic powers, leakage scales and uncore power.
            dynamic, scales, uncore = memo[2], memo[3], memo[4]
            static = [scale * exp(t_leak * temp) for scale, temp in zip(scales, temps)]
        else:
            table = self.power_table
            by_frequency = table._by_frequency
            c_eff = table.c_eff
            dynamic = []
            scales: List[float] = []
            static = []
            for core in range(num_cores):
                frequency = frequencies_hz[core]
                entry = by_frequency.get(frequency)
                if entry is None:
                    entry = table.entry_for_hz(frequency)
                activity = activities[core]
                if not 0.0 <= activity <= 1.0:
                    raise ValueError(f"activity {activity} outside [0, 1]")
                voltage = entry.voltage_v
                dynamic.append(activity * c_eff * voltage * voltage * frequency)
                scale = entry.leakage_scale_w
                scales.append(scale)
                static.append(scale * exp(t_leak * temps[core]))
            uncore = (
                self._idle_package_power_w
                + self._uncore_per_active_w * sum(activities)
            )
            self._power_memo = (
                list(activities), list(frequencies_hz), dynamic, scales, uncore
            )
        self.energy.record(dynamic, static, uncore, dt)
        self._last_dynamic = dynamic
        self._last_static = static
        total = [d + s for d, s in zip(dynamic, static)]
        if timer is not None:
            mark = timer.lap("power", mark)
        self.thermal._step_into(total, uncore)
        if timer is not None:
            timer.lap("thermal", mark)

    def last_core_powers_w(self) -> List[float]:
        """Total per-core power of the most recent tick."""
        return [
            self._last_dynamic[c] + self._last_static[c] for c in range(self.num_cores)
        ]

    def warm_start_idle(self) -> None:
        """Jump the die to the steady state of an idle chip.

        Uses the leakage at the lowest operating point as the idle power,
        iterating the leakage/temperature fixed point a few times.
        """
        voltage = self.ladder.min_point.voltage_v
        temps = self.core_temps_c()
        for _ in range(5):
            powers = [
                leakage_power_w(temps[c], voltage, self.config.power)
                for c in range(self.num_cores)
            ]
            self.thermal.warm_start(
                powers, spreader_power_w=self.config.power.idle_package_power
            )
            temps = self.core_temps_c()
