"""Graceful degradation: sensor sanitisation and supervised actuation.

Two cooperating components harden the observe/decide/actuate loop:

* :class:`SensorSupervisor` — sanity-checks every reading vector before
  it reaches any controller: non-finite and out-of-range values, rate-
  of-change violations (spikes) and stuck-at sensors are detected and
  replaced by the cross-core median of the healthy sensors, falling
  back to the last accepted value and finally to the fail-hot sensor
  ceiling.  The output is guaranteed finite and inside the sensor's
  ``[min_c, max_c]`` range, so the Q-learning update never consumes a
  NaN or implausible observation.

* :class:`ActuationSupervisor` — mediates ``set_governor`` /
  ``set_mapping``: every request is verified against the platform state
  (catching both rejected transitions and silent no-ops) and retried
  with bounded exponential backoff.  When a sanitised reading crosses
  the critical threshold, or a requested actuation is still not in
  force after the fault deadline, it engages a thermal-emergency safe
  state that clamps the chip to the minimum operating point — the
  software analogue of PROCHOT hardware throttling, which is why the
  clamp itself bypasses the (possibly faulty) cpufreq software path.

Both keep per-event counters that experiments read back through
``SimulationResult.supervisor_stats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

from repro.config import SensorConfig, SupervisorConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.instrument import Instrumentation
    from repro.sched.affinity import AffinityMapping
    from repro.soc.simulator import Simulation

#: Sentinel distinguishing "no mapping requested yet" from a requested
#: ``None`` mapping (the OS default is itself a valid request).
_UNSET = object()


class SensorSupervisor:
    """Reading sanitisation in front of every controller.

    Parameters
    ----------
    config:
        Supervision thresholds.
    sensor:
        The platform's sensor model, providing the plausible
        ``[min_c, max_c]`` range the output is guaranteed to stay in.
    num_cores:
        Number of per-core sensors.
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = (
        "_last_good",
        "_last_time",
        "_stuck_ref",
        "_stuck_run",
        "last_max_c",
        "reads",
        "dropouts_blocked",
        "range_blocked",
        "rate_blocked",
        "stuck_blocked",
        "median_fallbacks",
        "hold_fallbacks",
        "failsafe_fallbacks",
    )
    #: Construction values and the attach-time observability hook.
    DERIVED_FIELDS = ("config", "sensor", "num_cores", "obs")

    def __init__(
        self, config: SupervisorConfig, sensor: SensorConfig, num_cores: int
    ) -> None:
        self.config = config
        self.sensor = sensor
        self.num_cores = num_cores
        #: Optional observation-only hook (set by the simulation).  It
        #: deliberately survives :meth:`reset` — per-run filter state is
        #: forgotten, the attached sinks are not.
        self.obs: "Optional[Instrumentation]" = None
        self.reset()

    def reset(self) -> None:
        """Forget all per-run filter state."""
        self._last_good: Optional[np.ndarray] = None
        self._last_time: Optional[float] = None
        self._stuck_ref = np.full(self.num_cores, np.nan)
        self._stuck_run = np.zeros(self.num_cores, dtype=int)
        self.last_max_c: Optional[float] = None
        self.reads = 0
        self.dropouts_blocked = 0
        self.range_blocked = 0
        self.rate_blocked = 0
        self.stuck_blocked = 0
        self.median_fallbacks = 0
        self.hold_fallbacks = 0
        self.failsafe_fallbacks = 0

    def filter(self, now_s: float, readings: Sequence[float]) -> np.ndarray:
        """Sanitise one reading vector.

        Parameters
        ----------
        now_s:
            Simulation time of the read (drives the rate-of-change
            check).
        readings:
            Raw per-core readings, possibly faulted (NaN, spikes,
            stuck values, offsets).

        Returns
        -------
        numpy.ndarray
            Finite readings clipped to the sensor's ``[min_c, max_c]``
            range, with every rejected value replaced by the healthy
            cross-core median, the last accepted value, or — if neither
            exists — the fail-hot sensor ceiling.
        """
        raw = np.asarray(readings, dtype=float)
        if raw.shape != (self.num_cores,):
            raise ValueError(f"expected {self.num_cores} readings")
        self.reads += 1

        finite = np.isfinite(raw)
        self.dropouts_blocked += int(np.count_nonzero(~finite))
        with np.errstate(invalid="ignore"):
            in_range = finite & (raw >= self.sensor.min_c) & (raw <= self.sensor.max_c)
        self.range_blocked += int(np.count_nonzero(finite & ~in_range))
        ok = in_range

        if self._last_good is not None and self._last_time is not None:
            dt = max(now_s - self._last_time, 1e-9)
            with np.errstate(invalid="ignore"):
                too_fast = ok & (
                    np.abs(raw - self._last_good) / dt > self.config.max_rate_c_per_s
                )
            self.rate_blocked += int(np.count_nonzero(too_fast))
            ok = ok & ~too_fast

        # Stuck-at detection: a run of bit-identical raw values longer
        # than any plausible steady-state plateau, confirmed by the
        # healthy cores' median having moved away.  The confirmation
        # step is what keeps a genuinely steady chip (whose quantised
        # readings also repeat) from being flagged.
        with np.errstate(invalid="ignore"):
            same = finite & (raw == self._stuck_ref)
        self._stuck_run = np.where(same, self._stuck_run + 1, 1)
        self._stuck_ref = np.where(finite, raw, self._stuck_ref)
        suspects = ok & (self._stuck_run >= self.config.stuck_window)
        if suspects.any():
            healthy = ok & ~suspects
            if healthy.any():
                median = float(np.median(raw[healthy]))
                confirmed = suspects & (
                    np.abs(raw - median) > self.config.stuck_delta_c
                )
                self.stuck_blocked += int(np.count_nonzero(confirmed))
                ok = ok & ~confirmed

        out = raw.copy()
        bad = ~ok
        if bad.any():
            bad_count = int(np.count_nonzero(bad))
            if ok.any():
                out[bad] = float(np.median(raw[ok]))
                self.median_fallbacks += bad_count
                intervention = "sensor_median_fallback"
            elif self._last_good is not None:
                out[bad] = self._last_good[bad]
                self.hold_fallbacks += bad_count
                intervention = "sensor_hold_fallback"
            else:
                # No reference at all: assume the worst (fail hot), so
                # the emergency logic errs towards protecting the chip.
                out[bad] = self.sensor.max_c
                self.failsafe_fallbacks += bad_count
                intervention = "sensor_failsafe_fallback"
            if self.obs is not None:
                self.obs.emit(
                    "supervisor",
                    now_s,
                    intervention=intervention,
                    count=bad_count,
                )
        out = np.clip(out, self.sensor.min_c, self.sensor.max_c)

        self._last_good = out.copy()
        self._last_time = now_s
        self.last_max_c = float(out.max())
        return out

    def stats(self) -> Dict[str, float]:
        """Counters for the simulation result."""
        return {
            "sensor_reads": float(self.reads),
            "sensor_dropouts_blocked": float(self.dropouts_blocked),
            "sensor_range_blocked": float(self.range_blocked),
            "sensor_rate_blocked": float(self.rate_blocked),
            "sensor_stuck_blocked": float(self.stuck_blocked),
            "sensor_median_fallbacks": float(self.median_fallbacks),
            "sensor_hold_fallbacks": float(self.hold_fallbacks),
            "sensor_failsafe_fallbacks": float(self.failsafe_fallbacks),
        }


@dataclass
class _PendingActuation:
    """A requested transition that is not yet in force."""

    first_requested_s: float
    #: Actuation attempts performed so far (the initial call included).
    attempts: int
    next_retry_s: float
    abandoned: bool = False


class ActuationSupervisor:
    """Verified, retried actuation with a thermal-emergency safe state.

    Parameters
    ----------
    config:
        Retry/backoff bounds and emergency thresholds.
    sensors:
        The sensor supervisor whose sanitised readings drive the
        thermal-emergency decisions.
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = (
        "_desired_governor",
        "_desired_mapping",
        "_pending",
        "emergency_active",
        "_engaged_at_s",
        "requests",
        "deferred",
        "failures_detected",
        "retries",
        "abandoned",
        "emergencies",
        "_emergency_time_s",
    )
    #: Construction values (the sensor supervisor is the simulation's).
    DERIVED_FIELDS = ("config", "sensors")

    def __init__(self, config: SupervisorConfig, sensors: SensorSupervisor) -> None:
        self.config = config
        self.sensors = sensors
        self._desired_governor: Optional[tuple] = None
        self._desired_mapping: object = _UNSET
        self._pending: Dict[str, _PendingActuation] = {}
        self.emergency_active = False
        self._engaged_at_s: Optional[float] = None
        self.requests = 0
        self.deferred = 0
        self.failures_detected = 0
        self.retries = 0
        self.abandoned = 0
        self.emergencies = 0
        self._emergency_time_s = 0.0

    # ------------------------------------------------------------------
    # Requests (called by Simulation.set_governor / set_mapping)
    # ------------------------------------------------------------------

    def request_governor(
        self, sim: "Simulation", name: str, userspace_frequency_hz: Optional[float]
    ) -> None:
        """Record and attempt a supervised governor transition."""
        self.requests += 1
        self._desired_governor = (name, userspace_frequency_hz)
        if self.emergency_active:
            # The clamp owns the hardware; apply once it releases.
            self._pending.pop("governor", None)
            self.deferred += 1
            return
        self._begin("governor", sim)

    def request_mapping(
        self, sim: "Simulation", mapping: "Optional[AffinityMapping]"
    ) -> None:
        """Record and attempt a supervised affinity change."""
        self.requests += 1
        self._desired_mapping = mapping
        if self.emergency_active:
            self._pending.pop("mapping", None)
            self.deferred += 1
            return
        self._begin("mapping", sim)

    # ------------------------------------------------------------------
    # Attempt / verify / retry machinery
    # ------------------------------------------------------------------

    def _attempt_ok(self, sim: "Simulation", kind: str) -> bool:
        """One actuation attempt, verified against the platform state.

        Verification by reading the state back is what catches *silent*
        no-ops, which report success but change nothing.
        """
        if kind == "governor":
            name, hz = self._desired_governor
            accepted = sim._actuate_governor(name, hz)
            return accepted and sim.governor_in_force(name, hz)
        accepted = sim._actuate_mapping(self._desired_mapping)
        return accepted and sim.mapping_in_force(self._desired_mapping)

    def _begin(self, kind: str, sim: "Simulation") -> None:
        self._pending.pop(kind, None)
        if self._attempt_ok(sim, kind):
            return
        self.failures_detected += 1
        self._emit(sim, "actuation_failure_detected")
        pending = _PendingActuation(
            first_requested_s=sim.now,
            attempts=1,
            next_retry_s=sim.now + self.config.retry_backoff_s,
        )
        if pending.attempts >= 1 + self.config.max_retries:
            pending.abandoned = True
            self.abandoned += 1
            self._emit(sim, "actuation_abandoned")
        self._pending[kind] = pending

    def _emit(self, sim: "Simulation", intervention: str) -> None:
        """Record one supervisor intervention through the sim's hook."""
        if sim.obs is not None:
            sim.obs.emit(
                "supervisor", sim.now, intervention=intervention, count=1
            )

    def on_tick(self, sim: "Simulation") -> None:
        """Advance retries and the emergency state machine by one tick."""
        now = sim.now
        last_max = self.sensors.last_max_c

        if self.emergency_active:
            if last_max is not None and last_max <= self.config.emergency_release_c:
                self._release(sim)
            return

        if last_max is not None and last_max >= self.config.critical_temp_c:
            self._engage(sim)
            return
        for pending in self._pending.values():
            if now - pending.first_requested_s >= self.config.fault_deadline_s:
                self._engage(sim)
                return

        for kind in list(self._pending):
            pending = self._pending[kind]
            if pending.abandoned or now + 1e-9 < pending.next_retry_s:
                continue
            if self._attempt_ok(sim, kind):
                del self._pending[kind]
                continue
            self.retries += 1
            self._emit(sim, "actuation_retry")
            pending.attempts += 1
            if pending.attempts >= 1 + self.config.max_retries:
                pending.abandoned = True
                self.abandoned += 1
                self._emit(sim, "actuation_abandoned")
            else:
                backoff = self.config.retry_backoff_s * 2 ** (pending.attempts - 1)
                pending.next_retry_s = now + backoff

    # ------------------------------------------------------------------
    # Thermal-emergency safe state
    # ------------------------------------------------------------------

    def _engage(self, sim: "Simulation") -> None:
        self.emergency_active = True
        self.emergencies += 1
        self._engaged_at_s = sim.now
        self._pending.clear()
        sim._engage_thermal_emergency()
        self._emit(sim, "emergency_engage")

    def _release(self, sim: "Simulation") -> None:
        self.emergency_active = False
        if self._engaged_at_s is not None:
            self._emergency_time_s += sim.now - self._engaged_at_s
            self._engaged_at_s = None
        sim._release_thermal_emergency()
        self._emit(sim, "emergency_release")
        # Re-establish whatever the controller last asked for, through
        # the normal (supervised, possibly faulty) path.
        if self._desired_governor is not None:
            self._begin("governor", sim)
        if self._desired_mapping is not _UNSET:
            self._begin("mapping", sim)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def stats(self, now_s: float) -> Dict[str, float]:
        """Counters for the simulation result (closing any open clamp)."""
        emergency_time = self._emergency_time_s
        if self.emergency_active and self._engaged_at_s is not None:
            emergency_time += now_s - self._engaged_at_s
        return {
            "actuation_requests": float(self.requests),
            "actuation_deferred": float(self.deferred),
            "actuation_failures_detected": float(self.failures_detected),
            "actuation_retries": float(self.retries),
            "actuation_abandoned": float(self.abandoned),
            "emergencies": float(self.emergencies),
            "emergency_active": 1.0 if self.emergency_active else 0.0,
            "emergency_time_s": emergency_time,
        }
