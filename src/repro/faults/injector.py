"""Deterministic fault injection for the observe/actuate paths.

The :class:`FaultInjector` sits between the platform and the controllers
and replays the failure modes of a physical DTM substrate:

* **sensor path** — per-core static offsets (miscalibration), slow
  drift, stuck-at latching, transient spikes and dropped samples (NaN),
  applied to every :meth:`repro.soc.simulator.Simulation.read_sensors`
  result *after* the sensor model but *before* the supervisor;
* **actuation path** — ``set_governor`` / ``set_mapping`` calls that
  fail transiently (the transition is rejected, as a non-zero
  ``cpufreq-set`` exit status) or silently no-op (the call "succeeds"
  but the hardware state does not change).

All randomness comes from one dedicated ``numpy`` Generator seeded from
the (run seed, fault seed) pair, so fault schedules are exactly
reproducible and independent of the sensor-noise streams: enabling a
fault with probability 0 perturbs nothing and changes no other RNG
stream in the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

from repro.config import FaultConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.instrument import Instrumentation

#: Actuation-call outcomes.
OUTCOME_OK = "ok"
OUTCOME_FAIL = "fail"
OUTCOME_NOOP = "noop"


@dataclass
class FaultInjectionStats:
    """Counters of every injected fault, for the experiment record."""

    sensor_reads: int = 0
    dropouts: int = 0
    spikes: int = 0
    stuck_events: int = 0
    stuck_reads: int = 0
    governor_calls: int = 0
    governor_failures: int = 0
    governor_noops: int = 0
    mapping_calls: int = 0
    mapping_failures: int = 0
    mapping_noops: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Flatten to the fault-stats dict of a simulation result."""
        return {
            "sensor_reads": float(self.sensor_reads),
            "dropouts": float(self.dropouts),
            "spikes": float(self.spikes),
            "stuck_events": float(self.stuck_events),
            "stuck_reads": float(self.stuck_reads),
            "governor_calls": float(self.governor_calls),
            "governor_failures": float(self.governor_failures),
            "governor_noops": float(self.governor_noops),
            "mapping_calls": float(self.mapping_calls),
            "mapping_failures": float(self.mapping_failures),
            "mapping_noops": float(self.mapping_noops),
        }


class FaultInjector:
    """Seeded perturbation of sensor readings and actuation calls.

    Parameters
    ----------
    config:
        Fault probabilities and magnitudes.
    num_cores:
        Number of per-core sensors.
    seed:
        Run seed, mixed with ``config.seed`` so distinct runs draw
        distinct fault schedules while staying reproducible.
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = ("_rng", "_stuck_until", "_stuck_value", "stats")
    #: Construction values and the attach-time observability hook.
    DERIVED_FIELDS = ("config", "num_cores", "obs")

    def __init__(self, config: FaultConfig, num_cores: int, seed: int = 0) -> None:
        self.config = config
        self.num_cores = num_cores
        self._rng = np.random.default_rng((seed, config.seed))
        self._stuck_until = np.full(num_cores, -np.inf)
        self._stuck_value = np.zeros(num_cores)
        self.stats = FaultInjectionStats()
        #: Optional observation-only hook (set by the simulation).
        self.obs: "Optional[Instrumentation]" = None

    # ------------------------------------------------------------------
    # Sensor path
    # ------------------------------------------------------------------

    def perturb_sensors(self, now_s: float, readings: Sequence[float]) -> np.ndarray:
        """Apply the configured sensor faults to one reading vector.

        Parameters
        ----------
        now_s:
            Simulation time of the read (drives drift and stuck expiry).
        readings:
            Clean per-core sensor readings (degC).

        Returns
        -------
        numpy.ndarray
            Perturbed readings; may contain NaN (dropouts) and values
            outside the sensor's saturation range (spikes).
        """
        config = self.config
        out = np.array(readings, dtype=float, copy=True)
        if out.shape != (self.num_cores,):
            raise ValueError(f"expected {self.num_cores} readings")
        self.stats.sensor_reads += 1

        if config.offset_c:
            offsets = [
                config.offset_c[core % len(config.offset_c)]
                for core in range(self.num_cores)
            ]
            out += np.asarray(offsets)
        if config.drift_rate_c_per_s != 0.0:
            out += config.drift_rate_c_per_s * now_s

        if config.stuck_prob > 0.0:
            rolls = self._rng.random(self.num_cores)
            stuck_now = 0
            for core in range(self.num_cores):
                if now_s < self._stuck_until[core]:
                    out[core] = self._stuck_value[core]
                    self.stats.stuck_reads += 1
                    stuck_now += 1
                elif rolls[core] < config.stuck_prob:
                    self._stuck_until[core] = now_s + config.stuck_duration_s
                    self._stuck_value[core] = out[core]
                    self.stats.stuck_events += 1
                    self.stats.stuck_reads += 1
                    stuck_now += 1
            if stuck_now and self.obs is not None:
                self.obs.emit(
                    "fault", now_s, path="sensor", kind="stuck", count=stuck_now
                )

        if config.spike_prob > 0.0:
            rolls = self._rng.random(self.num_cores)
            signs = np.where(self._rng.random(self.num_cores) < 0.5, -1.0, 1.0)
            spiking = rolls < config.spike_prob
            out[spiking] += signs[spiking] * config.spike_magnitude_c
            spike_count = int(np.count_nonzero(spiking))
            self.stats.spikes += spike_count
            if spike_count and self.obs is not None:
                self.obs.emit(
                    "fault", now_s, path="sensor", kind="spike", count=spike_count
                )

        if config.dropout_prob > 0.0:
            rolls = self._rng.random(self.num_cores)
            dropping = rolls < config.dropout_prob
            out[dropping] = np.nan
            drop_count = int(np.count_nonzero(dropping))
            self.stats.dropouts += drop_count
            if drop_count and self.obs is not None:
                self.obs.emit(
                    "fault", now_s, path="sensor", kind="dropout", count=drop_count
                )

        return out

    # ------------------------------------------------------------------
    # Actuation path
    # ------------------------------------------------------------------

    def _outcome(self, fail_prob: float, noop_prob: float) -> str:
        if fail_prob <= 0.0 and noop_prob <= 0.0:
            return OUTCOME_OK
        roll = self._rng.random()
        if roll < fail_prob:
            return OUTCOME_FAIL
        if roll < fail_prob + noop_prob:
            return OUTCOME_NOOP
        return OUTCOME_OK

    def governor_outcome(self) -> str:
        """Outcome of one ``set_governor`` call."""
        self.stats.governor_calls += 1
        outcome = self._outcome(
            self.config.governor_fail_prob, self.config.governor_noop_prob
        )
        if outcome == OUTCOME_FAIL:
            self.stats.governor_failures += 1
        elif outcome == OUTCOME_NOOP:
            self.stats.governor_noops += 1
        return outcome

    def mapping_outcome(self) -> str:
        """Outcome of one ``set_mapping`` call."""
        self.stats.mapping_calls += 1
        outcome = self._outcome(
            self.config.mapping_fail_prob, self.config.mapping_noop_prob
        )
        if outcome == OUTCOME_FAIL:
            self.stats.mapping_failures += 1
        elif outcome == OUTCOME_NOOP:
            self.stats.mapping_noops += 1
        return outcome
