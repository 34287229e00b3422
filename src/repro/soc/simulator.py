"""Discrete-time simulation engine.

A :class:`Simulation` wires together the chip, the scheduler, a frequency
governor, a sequence of applications (run back-to-back, as in the
inter-application experiments) and optionally a thermal manager — the
learning agent of the paper, a baseline controller, or nothing (plain
Linux behaviour).

Managers interact with the engine exactly the way the paper's run-time
system interacts with Linux:

* observe: :meth:`Simulation.read_sensors` (quantised sensor samples),
  :attr:`Simulation.current_app` performance, :attr:`Simulation.perf`
  counters;
* actuate: :meth:`Simulation.set_governor` (``cpufreq-set``) and
  :meth:`Simulation.set_mapping` (affinity masks);
* pay for it: sampling/decision overhead is charged through
  :meth:`repro.sched.scheduler.Scheduler.stall_all` and the perf
  counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.instrument import Instrumentation

from repro.config import (
    FaultConfig,
    PlatformConfig,
    ReliabilityConfig,
    SupervisorConfig,
)
from repro.faults.injector import OUTCOME_FAIL, OUTCOME_OK, FaultInjector
from repro.faults.supervisor import ActuationSupervisor, SensorSupervisor
from repro.perf.timer import SectionTimer
from repro.power.energy import EnergyMeter
from repro.sched.affinity import AffinityMapping
from repro.sched.governors import Governor, UserspaceGovernor, make_governor
from repro.sched.perf import PerfCounters
from repro.sched.scheduler import Scheduler
from repro.soc.chip import Chip
from repro.thermal.profile import ThermalProfile
from repro.thermal.sensors import SensorBank
from repro.workloads.application import Application

#: CPU time stolen from every core by one sensor-sampling event.
SAMPLE_OVERHEAD_S = 0.005
#: CPU time stolen from every core by one learning-decision event.
DECISION_OVERHEAD_S = 0.025

#: Governor names ``Simulation.set_governor`` accepts (cpufreq's menu).
KNOWN_GOVERNORS = (
    "ondemand",
    "conservative",
    "performance",
    "powersave",
    "userspace",
)


def _mapping_masks(mapping: Optional[AffinityMapping]) -> Optional[list]:
    """JSON-ready rendering of a mapping for mapping_change events."""
    if mapping is None:
        return None
    return [
        sorted(mask) if mask is not None else None for mask in mapping.masks
    ]


class ThermalManagerBase:
    """Interface every thermal-management controller implements."""

    #: How often the controller reads the sensors, in seconds: the
    #: period its sensor bank's low-pass filter is discretised for.
    #: Controllers that never read them keep the bank's 1 s default.
    sensor_period_s = 1.0

    def attach(self, sim: "Simulation") -> None:
        """Called once before the run starts."""

    def on_tick(self, sim: "Simulation") -> None:
        """Called after every simulation tick."""

    def on_app_switch(self, sim: "Simulation", app: Application) -> None:
        """Explicit application-switch signal.

        Only controllers that rely on application-layer notification
        (the *modified* Ge & Qiu baseline of Section 6.2) act on this;
        the proposed approach must detect switches autonomously.
        """

    def stats(self) -> Dict[str, float]:
        """Controller-specific statistics for the experiment record."""
        return {}


@dataclass
class AppRecord:
    """Execution record of one application within a run."""

    name: str
    dataset: str
    start_s: float
    end_s: float
    completed_iterations: int
    completed: bool
    #: Chip dynamic energy consumed while this application ran (J).
    dynamic_energy_j: float = 0.0
    #: Chip static (leakage) energy consumed while it ran (J).
    static_energy_j: float = 0.0

    @property
    def execution_time_s(self) -> float:
        """Wall-clock execution time of the application."""
        return self.end_s - self.start_s

    @property
    def throughput(self) -> float:
        """Average iterations (frames) per second."""
        if self.execution_time_s <= 0.0:
            return 0.0
        return self.completed_iterations / self.execution_time_s


@dataclass
class SimulationResult:
    """Everything an experiment needs from one run."""

    profile: ThermalProfile
    energy: EnergyMeter
    perf: PerfCounters
    app_records: List[AppRecord]
    total_time_s: float
    completed: bool
    manager_stats: Dict[str, float] = field(default_factory=dict)
    #: Injected-fault counters (empty when no fault model was active).
    fault_stats: Dict[str, float] = field(default_factory=dict)
    #: Supervisor counters (empty when the loop ran unsupervised).
    supervisor_stats: Dict[str, float] = field(default_factory=dict)

    def reliability(self, config: ReliabilityConfig) -> Dict[str, float]:
        """Worst-core reliability summary of the whole run."""
        return self.profile.worst_case_report(config)

    @property
    def execution_time_s(self) -> float:
        """Total execution time across all applications."""
        return self.total_time_s


class Simulation:
    """One end-to-end run of applications on the simulated platform.

    Parameters
    ----------
    applications:
        Applications executed back-to-back (one for intra-application
        experiments, several for the Figure 3 scenarios).
    platform:
        Platform configuration.
    governor:
        Initial cpufreq governor name.
    userspace_frequency_hz:
        Frequency for the ``userspace`` governor.
    mapping:
        Initial affinity mapping (None = OS default).
    manager:
        Optional thermal-management controller.
    seed:
        Base seed for sensor noise (manager and evaluation sensors get
        distinct derived seeds).
    eval_sample_period_s:
        Sampling period of the evaluation thermal profile — the common
        measuring stick all policies are judged with (1 s by default).
    max_time_s:
        Safety limit; a run that hits it is marked incomplete.
    warm_start:
        Start from the idle steady state instead of ambient.
    faults:
        Optional fault model (see :mod:`repro.faults`).  ``None`` — or a
        config with ``enabled=False`` — means no injector is built and
        the run is bit-identical to one on the fault-free engine.
    supervisor:
        Optional graceful-degradation layer.  When enabled, manager
        sensor readings are sanitised before they are returned and
        governor/mapping requests are verified, retried and backed by a
        thermal-emergency safe state.
    instrumentation:
        Optional observation-only :class:`repro.obs.Instrumentation`
        (metrics registry and/or structured trace emitter).  Attaching
        it never changes the run's trajectory: it only reads values the
        engine already computed and draws no randomness.
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).  The
    #: applications come first: their threads are what the scheduler's
    #: thread-keyed state refers back to.
    STATE_FIELDS = (
        "applications",
        "now",
        "_app_index",
        "_app_start_s",
        "_next_eval_s",
        "_next_watchdog_s",
        "_app_switched_flag",
        "_app_energy_snapshot",
        "_records",
        "chip",
        "perf",
        "_mapping",
        "scheduler",
        "_governor",
        "_pre_emergency_governor",
        "_manager_sensors",
        "_eval_sensors",
        "_profile",
        "manager",
        "_fault_injector",
        "_sensor_supervisor",
        "_actuation_supervisor",
        "obs",
    )
    #: Construction values and run-loop hooks, never checkpointed.
    DERIVED_FIELDS = (
        "platform",
        "eval_sample_period_s",
        "max_time_s",
        "_seed",
        "_dt",
        "faults",
        "supervisor",
        "_timer",
        "_checkpointer",
        "_resume_armed",
    )

    def __init__(
        self,
        applications: Sequence[Application],
        platform: Optional[PlatformConfig] = None,
        governor: str = "ondemand",
        userspace_frequency_hz: Optional[float] = None,
        mapping: Optional[AffinityMapping] = None,
        manager: Optional[ThermalManagerBase] = None,
        seed: int = 0,
        eval_sample_period_s: float = 1.0,
        max_time_s: Optional[float] = None,
        warm_start: bool = True,
        faults: Optional[FaultConfig] = None,
        supervisor: Optional[SupervisorConfig] = None,
        instrumentation: "Optional[Instrumentation]" = None,
    ) -> None:
        if not applications:
            raise ValueError("need at least one application")
        self.platform = platform if platform is not None else PlatformConfig()
        self.applications = list(applications)
        self.chip = Chip(self.platform, seed=seed)
        self.perf = PerfCounters()
        self.scheduler = Scheduler(self.platform.num_cores, perf=self.perf)
        self._governor: Governor = make_governor(
            governor,
            self.chip.ladder,
            self.platform.num_cores,
            userspace_frequency_hz,
        )
        self._mapping = mapping
        self.manager = manager
        self._manager_sensors = SensorBank(
            self.platform.num_cores,
            self.platform.sensor,
            seed=seed + 101,
            sample_period_s=(
                ThermalManagerBase.sensor_period_s
                if manager is None
                else manager.sensor_period_s
            ),
        )
        self._eval_sensors = SensorBank(
            self.platform.num_cores,
            self.platform.sensor,
            seed=seed + 202,
            sample_period_s=eval_sample_period_s,
        )
        self.eval_sample_period_s = eval_sample_period_s
        self.max_time_s = max_time_s
        self._seed = seed
        self._dt = self.platform.dt  # PlatformConfig is frozen
        self.now = 0.0
        self._app_index = -1
        self._app_start_s = 0.0
        self._app_energy_snapshot = self.chip.energy.snapshot()
        self._records: List[AppRecord] = []
        self._profile = ThermalProfile(self.platform.num_cores, eval_sample_period_s)
        self._next_eval_s = eval_sample_period_s
        self._app_switched_flag = False
        self.faults = faults
        self.supervisor = supervisor
        self._fault_injector: Optional[FaultInjector] = None
        if faults is not None and faults.enabled:
            self._fault_injector = FaultInjector(
                faults, self.platform.num_cores, seed=seed
            )
        self._timer: Optional[SectionTimer] = None
        # Duck-typed checkpoint hook (repro.checkpoint.Checkpointer);
        # kept untyped so the core simulator never imports the
        # checkpoint layer.
        self._checkpointer = None
        self._resume_armed = False
        self._sensor_supervisor: Optional[SensorSupervisor] = None
        self._actuation_supervisor: Optional[ActuationSupervisor] = None
        self._next_watchdog_s = 0.0
        self._pre_emergency_governor: Optional[Governor] = None
        if supervisor is not None and supervisor.enabled:
            self._sensor_supervisor = SensorSupervisor(
                supervisor, self.platform.sensor, self.platform.num_cores
            )
            self._actuation_supervisor = ActuationSupervisor(
                supervisor, self._sensor_supervisor
            )
            self._next_watchdog_s = supervisor.watchdog_period_s
        self.obs: "Optional[Instrumentation]" = None
        if instrumentation is not None:
            self.attach_instrumentation(instrumentation)
        if warm_start:
            self.chip.warm_start_idle()

    # ------------------------------------------------------------------
    # Manager-facing API
    # ------------------------------------------------------------------

    @property
    def current_app(self) -> Application:
        """The application currently executing."""
        index = self._app_index
        return self.applications[index if index > 0 else 0]

    @property
    def governor(self) -> Governor:
        """The active frequency governor."""
        return self._governor

    @property
    def mapping(self) -> Optional[AffinityMapping]:
        """The active affinity mapping."""
        return self._mapping

    def read_sensors(self) -> np.ndarray:
        """Sample the on-board sensors (the manager's observation).

        With a fault model active the clean sensor reading is perturbed
        (offsets, drift, stuck-at, spikes, NaN dropouts); with the
        supervisor active the — possibly faulted — reading is sanitised
        before any controller sees it.
        """
        self.perf.record_sample_event()
        self.scheduler.stall_all(SAMPLE_OVERHEAD_S)
        readings = self._manager_sensors.read(self.chip.core_temps_c())
        if self._fault_injector is not None:
            readings = self._fault_injector.perturb_sensors(self.now, readings)
        if self._sensor_supervisor is not None:
            readings = self._sensor_supervisor.filter(self.now, readings)
        return readings

    def set_governor(
        self, name: str, userspace_frequency_hz: Optional[float] = None
    ) -> None:
        """Switch the cpufreq governor (``cpufreq-set -g``).

        Raises
        ------
        ValueError
            For an unknown governor name, or ``userspace`` without a
            frequency.  Argument validation happens before the fault
            model: an invalid request is a caller bug, not a transient
            platform failure.
        """
        if name not in KNOWN_GOVERNORS:
            raise ValueError(
                f"unknown governor {name!r}; expected one of {KNOWN_GOVERNORS}"
            )
        if name == "userspace" and userspace_frequency_hz is None:
            raise ValueError("userspace governor needs an explicit frequency")
        if self._actuation_supervisor is not None:
            self._actuation_supervisor.request_governor(
                self, name, userspace_frequency_hz
            )
            return
        self._actuate_governor(name, userspace_frequency_hz)

    def set_mapping(self, mapping: Optional[AffinityMapping]) -> None:
        """Apply affinity masks (``pthread_setaffinity_np``).

        Raises
        ------
        ValueError
            If the mapping references cores outside the platform.
        """
        if mapping is not None:
            mapping.validate(self.platform.num_cores)
        if self._actuation_supervisor is not None:
            self._actuation_supervisor.request_mapping(self, mapping)
            return
        self._actuate_mapping(mapping)

    # ------------------------------------------------------------------
    # Actuation internals (fault-model aware)
    # ------------------------------------------------------------------

    def _actuate_governor(
        self, name: str, userspace_frequency_hz: Optional[float]
    ) -> bool:
        """Perform one governor transition through the faultable path.

        Returns False when the platform *reports* the transition failed
        (the analogue of a non-zero ``cpufreq-set`` exit status).  A
        silent no-op returns True without changing anything — only
        reading the state back (:meth:`governor_in_force`) can catch it.
        """
        if self._fault_injector is not None:
            outcome = self._fault_injector.governor_outcome()
            if outcome != OUTCOME_OK:
                if self.obs is not None:
                    self.obs.emit(
                        "governor_change",
                        self.now,
                        governor=name,
                        frequency_hz=userspace_frequency_hz,
                        outcome=outcome,
                    )
                    self.obs.emit(
                        "fault", self.now, path="governor", kind=outcome, count=1
                    )
                return outcome != OUTCOME_FAIL
        current = self._governor
        self._governor = make_governor(
            name, self.chip.ladder, self.platform.num_cores, userspace_frequency_hz
        )
        # Adaptive governors inherit the running frequencies, so a
        # governor switch does not teleport the clock.
        if self._governor.adaptive:
            self._governor.inherit_frequencies(current.frequencies())
        if self.obs is not None:
            self.obs.emit(
                "governor_change",
                self.now,
                governor=name,
                frequency_hz=userspace_frequency_hz,
                outcome=OUTCOME_OK,
            )
        return True

    def _actuate_mapping(self, mapping: Optional[AffinityMapping]) -> bool:
        """Perform one affinity change through the faultable path."""
        if self._fault_injector is not None:
            outcome = self._fault_injector.mapping_outcome()
            if outcome != OUTCOME_OK:
                if self.obs is not None:
                    self.obs.emit(
                        "mapping_change",
                        self.now,
                        mapping=_mapping_masks(mapping),
                        outcome=outcome,
                    )
                    self.obs.emit(
                        "fault", self.now, path="mapping", kind=outcome, count=1
                    )
                return outcome != OUTCOME_FAIL
        self._mapping = mapping
        self.scheduler.set_mapping(mapping)
        if self.obs is not None:
            self.obs.emit(
                "mapping_change",
                self.now,
                mapping=_mapping_masks(mapping),
                outcome=OUTCOME_OK,
            )
        return True

    def governor_in_force(
        self, name: str, userspace_frequency_hz: Optional[float] = None
    ) -> bool:
        """Whether the active governor matches a requested transition."""
        governor = self._governor
        if name == "userspace":
            if not isinstance(governor, UserspaceGovernor):
                return False
            if userspace_frequency_hz is None:
                return True
            target = self.chip.ladder.nearest(userspace_frequency_hz).frequency_hz
            return abs(governor.target_frequency_hz - target) < 1.0
        return governor.name == name

    def mapping_in_force(self, mapping: Optional[AffinityMapping]) -> bool:
        """Whether the active mapping equals the requested one.

        Compared by value (mask equality), so a retry with an
        equal-but-distinct :class:`AffinityMapping` object verifies
        correctly.
        """
        if mapping is None or self._mapping is None:
            return self._mapping is mapping
        return self._mapping == mapping

    def _engage_thermal_emergency(self) -> None:
        """Clamp the chip to the minimum operating point.

        Models hardware thermal protection (PROCHOT): the clamp acts
        below the software cpufreq path, so it is immune to the
        injected actuation faults.
        """
        if self._pre_emergency_governor is None:
            self._pre_emergency_governor = self._governor
        self._governor = make_governor(
            "powersave", self.chip.ladder, self.platform.num_cores
        )

    def _release_thermal_emergency(self) -> None:
        """Lift the clamp and restore the pre-emergency governor."""
        if self._pre_emergency_governor is not None:
            self._governor = self._pre_emergency_governor
            self._pre_emergency_governor = None

    def charge_decision_overhead(self) -> None:
        """Charge one learning-decision event's CPU cost."""
        self.perf.record_decision_event()
        self.scheduler.stall_all(DECISION_OVERHEAD_S)

    # ------------------------------------------------------------------
    # Engine
    # ------------------------------------------------------------------

    def _start_next_app(self) -> bool:
        """Advance to the next application; False when all are done."""
        self._app_index += 1
        if self._app_index >= len(self.applications):
            return False
        app = self.applications[self._app_index]
        self.scheduler.set_threads(app.threads, mapping=self._mapping)
        self._app_start_s = self.now
        self._app_energy_snapshot = self.chip.energy.snapshot()
        self._app_switched_flag = True
        if self.obs is not None:
            self.obs.emit(
                "app_switch",
                self.now,
                index=self._app_index,
                app=app.spec.name,
                dataset=app.spec.dataset,
            )
        if self.manager is not None and self._app_index > 0:
            self.manager.on_app_switch(self, app)
        return True

    def _finish_app(self, app: Application, completed: bool) -> None:
        consumed = self.chip.energy.since(self._app_energy_snapshot)
        self._records.append(
            AppRecord(
                name=app.spec.name,
                dataset=app.spec.dataset,
                start_s=self._app_start_s,
                end_s=self.now,
                completed_iterations=app.completed_iterations,
                completed=completed,
                dynamic_energy_j=consumed.dynamic_j,
                static_energy_j=consumed.static_j,
            )
        )

    def attach_instrumentation(self, obs: "Optional[Instrumentation]") -> None:
        """Attach (or detach, with None) the observability layer.

        Propagates the hook to the fault injector and the supervisors
        so their events carry through the same trace/metrics sinks.
        The hook is observation-only; with none attached each call
        site pays one ``is not None`` check.
        """
        self.obs = obs
        if self._fault_injector is not None:
            self._fault_injector.obs = obs
        if self._sensor_supervisor is not None:
            self._sensor_supervisor.obs = obs

    def attach_timer(self, timer: Optional[SectionTimer]) -> None:
        """Attach (or detach, with None) per-phase tick-loop accounting.

        The timer splits each tick into schedule/app/governor (here),
        power/thermal (inside :meth:`Chip.step`) and sensors/manager
        sections.  With no timer attached the loop pays one ``is not
        None`` check per phase.
        """
        self._timer = timer
        self.chip.attach_timer(timer)

    def attach_checkpointer(self, checkpointer) -> None:
        """Attach (or detach, with None) a tick-boundary checkpointer.

        The hook's ``maybe_checkpoint(self)`` is called at the bottom of
        every run-loop iteration.  Checkpointing is observation-only: it
        draws no randomness and mutates nothing, so a checkpointed run
        is bit-identical to a checkpoint-free one.
        """
        self._checkpointer = checkpointer

    @property
    def tick_index(self) -> int:
        """Completed ticks since the start of the run."""
        return int(round(self.now / self._dt))

    def step(self) -> None:
        """Advance the whole system by one tick."""
        timer = self._timer
        dt = self._dt
        app = self.current_app
        if timer is not None:
            mark = timer.now()
        frequencies = self._governor.frequencies()
        loads = self.scheduler.tick(frequencies, dt)
        if timer is not None:
            mark = timer.lap("schedule", mark)
        app.tick(dt)
        if timer is not None:
            mark = timer.lap("app", mark)
        self._governor.update([load.utilisation for load in loads])
        if timer is not None:
            mark = timer.lap("governor", mark)
        # The chip accounts its own power/thermal split with this timer.
        self.chip.step([load.activity for load in loads], frequencies, dt)
        self.now += dt

        if timer is not None:
            mark = timer.now()
        if self.now + 1e-9 >= self._next_eval_s:
            reading = self._eval_sensors.read(self.chip.core_temps_c())
            self._profile.append(reading)
            self._next_eval_s += self.eval_sample_period_s
            if self.obs is not None:
                self.obs.emit(
                    "tick", self.now, temps_c=[float(t) for t in reading]
                )
        if timer is not None:
            mark = timer.lap("sensors", mark)

        if self.manager is not None:
            self.manager.on_tick(self)

        if self._actuation_supervisor is not None:
            self._supervise_tick()
        if timer is not None:
            timer.lap("manager", mark)
            timer.count_tick()

    def _supervise_tick(self) -> None:
        """One supervision round: watchdog sampling, retries, emergency.

        The watchdog samples through :meth:`read_sensors` — paying the
        same overhead a controller pays — so the thermal-emergency
        monitor stays alive even under controllers that never read the
        sensors themselves (the static policies).
        """
        if self.now + 1e-9 >= self._next_watchdog_s:
            self._next_watchdog_s += self.supervisor.watchdog_period_s
            self.read_sensors()
        self._actuation_supervisor.on_tick(self)

    def prepare(self) -> None:
        """Arm the engine for manual stepping.

        Everything :meth:`run` does before its tick loop: reset the
        reading-path filter state, attach the manager and start the
        first application.  Callers that drive :meth:`step` themselves
        (the benchmark harness, tests) call this once first.
        """
        # A reused engine (or sensor bank) must not leak filter state
        # from a previous run into this one.
        self._manager_sensors.reset()
        self._eval_sensors.reset()
        if self._sensor_supervisor is not None:
            self._sensor_supervisor.reset()
        if self.obs is not None:
            self.obs.emit(
                "run_start",
                self.now,
                num_cores=self.platform.num_cores,
                governor=self._governor.name,
                apps=[app.spec.name for app in self.applications],
                seed=self._seed,
            )
        if self.manager is not None:
            self.manager.attach(self)
        self._start_next_app()

    def run(self) -> SimulationResult:
        """Execute every application to completion and build the result."""
        completed = True
        if self._resume_armed:
            # A restored snapshot already carries a fully prepared
            # engine (restore ran prepare() and overwrote its state);
            # re-preparing would emit a second run_start and restart
            # the first application.
            self._resume_armed = False
        else:
            self.prepare()
        checkpointer = self._checkpointer
        while True:
            app = self.current_app
            self.step()
            if app.done:
                self._finish_app(app, completed=True)
                if not self._start_next_app():
                    break
            elif self.max_time_s is not None and self.now >= self.max_time_s:
                self._finish_app(app, completed=False)
                completed = False
                break
            if checkpointer is not None:
                checkpointer.maybe_checkpoint(self)
        supervisor_stats: Dict[str, float] = {}
        if self._sensor_supervisor is not None:
            supervisor_stats.update(self._sensor_supervisor.stats())
        if self._actuation_supervisor is not None:
            supervisor_stats.update(self._actuation_supervisor.stats(self.now))
        if self.obs is not None:
            self.obs.emit(
                "run_end",
                self.now,
                total_time_s=self.now,
                completed=completed,
                ticks=int(round(self.now / self._dt)),
            )
        return SimulationResult(
            profile=self._profile,
            energy=self.chip.energy,
            perf=self.perf,
            app_records=self._records,
            total_time_s=self.now,
            completed=completed,
            manager_stats=self.manager.stats() if self.manager is not None else {},
            fault_stats=(
                self._fault_injector.stats.as_dict()
                if self._fault_injector is not None
                else {}
            ),
            supervisor_stats=supervisor_stats,
        )
