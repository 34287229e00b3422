"""Per-member control-plane views.

Thermal managers (the learning agents and baselines) stay *scalar*
objects in the ensemble engine: each member keeps its own real manager,
fault injector, supervisors and management-path
:class:`~repro.thermal.sensors.SensorBank`.  When a member's manager or
supervisor fires, it is handed a :class:`MemberView` — an adapter with
the same observation/actuation surface as
:class:`repro.soc.simulator.Simulation`, including the faultable
actuation internals and the thermal-emergency hooks the
:class:`~repro.faults.supervisor.ActuationSupervisor` calls — whose
methods read and write that member's rows of the batched arrays.

Because the manager code runs unchanged against this view, every
Q-table update, exploration draw and governor/mapping decision is
bit-identical to the scalar engine *by construction*; only the data
plane underneath is vectorized.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.sched.affinity import AffinityMapping
from repro.soc.simulator import (
    DECISION_OVERHEAD_S,
    KNOWN_GOVERNORS,
    SAMPLE_OVERHEAD_S,
)
from repro.faults.injector import OUTCOME_FAIL, OUTCOME_OK

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ensemble.engine import EnsembleSimulation


class ChipView:
    """Read-only chip facade (managers query the OPP ladder)."""

    def __init__(self, engine: "EnsembleSimulation") -> None:
        self.ladder = engine.chip_template.ladder


class AppView:
    """One member's current application, backed by the batched arrays."""

    def __init__(self, engine: "EnsembleSimulation", member: int) -> None:
        self._engine = engine
        self._member = member

    @property
    def _app(self):
        engine = self._engine
        return engine.members[self._member].applications[
            engine.app_index[self._member]
        ]

    @property
    def spec(self):
        return self._app.spec

    @property
    def name(self) -> str:
        return self._app.spec.name

    @property
    def completed_iterations(self) -> int:
        return len(self._engine.workloads.completions[self._member])

    def throughput(self, window_s: Optional[float] = None) -> float:
        return self._engine.workloads.throughput(self._member, window_s)

    def performance_satisfied(self, window_s: Optional[float] = None) -> bool:
        return self.throughput(window_s) >= self.spec.performance_constraint


class MemberView:
    """The ``Simulation``-shaped handle one member's manager drives."""

    def __init__(self, engine: "EnsembleSimulation", member: int) -> None:
        self._engine = engine
        self._member = member
        self.chip = ChipView(engine)
        self.obs = None
        self._app_view = AppView(engine, member)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._engine.now

    @property
    def current_app(self) -> AppView:
        return self._app_view

    @property
    def mapping(self) -> Optional[AffinityMapping]:
        return self._engine.members[self._member].mapping

    def read_sensors(self) -> np.ndarray:
        """Mirror of ``Simulation.read_sensors`` for one member."""
        engine = self._engine
        member = self._member
        engine.perf.record_sample_event_row(member)
        engine.scheduler.stall_all_row(member, SAMPLE_OVERHEAD_S)
        state = engine.members[member]
        readings = state.manager_sensors.read(engine.chip.core_temps()[member])
        if state.fault_injector is not None:
            readings = state.fault_injector.perturb_sensors(
                engine.now, readings
            )
        if state.sensor_supervisor is not None:
            readings = state.sensor_supervisor.filter(engine.now, readings)
        return readings

    # ------------------------------------------------------------------
    # Actuation
    # ------------------------------------------------------------------
    def set_governor(
        self, name: str, userspace_frequency_hz: Optional[float] = None
    ) -> None:
        """Mirror of ``Simulation.set_governor`` (fault-model aware)."""
        if name not in KNOWN_GOVERNORS:
            raise ValueError(
                f"unknown governor {name!r}; expected one of {KNOWN_GOVERNORS}"
            )
        if name == "userspace" and userspace_frequency_hz is None:
            raise ValueError("userspace governor needs an explicit frequency")
        supervisor = self._engine.members[self._member].actuation_supervisor
        if supervisor is not None:
            supervisor.request_governor(self, name, userspace_frequency_hz)
            return
        self._actuate_governor(name, userspace_frequency_hz)

    def set_mapping(self, mapping: Optional[AffinityMapping]) -> None:
        """Mirror of ``Simulation.set_mapping`` (fault-model aware)."""
        if mapping is not None:
            mapping.validate(self._engine.num_cores)
        supervisor = self._engine.members[self._member].actuation_supervisor
        if supervisor is not None:
            supervisor.request_mapping(self, mapping)
            return
        self._actuate_mapping(mapping)

    def _actuate_governor(
        self, name: str, userspace_frequency_hz: Optional[float]
    ) -> bool:
        """Mirror of ``Simulation._actuate_governor``."""
        engine = self._engine
        member = self._member
        injector = engine.members[member].fault_injector
        if injector is not None:
            outcome = injector.governor_outcome()
            if outcome != OUTCOME_OK:
                return outcome != OUTCOME_FAIL
        engine.governors.switch_row(member, name, userspace_frequency_hz)
        return True

    def _actuate_mapping(self, mapping: Optional[AffinityMapping]) -> bool:
        """Mirror of ``Simulation._actuate_mapping``."""
        engine = self._engine
        member = self._member
        state = engine.members[member]
        if state.fault_injector is not None:
            outcome = state.fault_injector.mapping_outcome()
            if outcome != OUTCOME_OK:
                return outcome != OUTCOME_FAIL
        state.mapping = mapping
        if mapping is None:
            engine.scheduler.clear_mapping_row(member)
        else:
            engine.scheduler.set_mapping_row(member, mapping)
        return True

    def governor_in_force(
        self, name: str, userspace_frequency_hz: Optional[float] = None
    ) -> bool:
        """Mirror of ``Simulation.governor_in_force``."""
        return self._engine.governors.in_force(
            self._member, name, userspace_frequency_hz
        )

    def mapping_in_force(self, mapping: Optional[AffinityMapping]) -> bool:
        """Mirror of ``Simulation.mapping_in_force``."""
        current = self.mapping
        if mapping is None or current is None:
            return current is mapping
        return current == mapping

    def _engage_thermal_emergency(self) -> None:
        """Mirror of ``Simulation._engage_thermal_emergency``."""
        engine = self._engine
        state = engine.members[self._member]
        if state.pre_emergency_governor is None:
            state.pre_emergency_governor = engine.governors.row(self._member)
        engine.governors.switch_row(self._member, "powersave", None)

    def _release_thermal_emergency(self) -> None:
        """Mirror of ``Simulation._release_thermal_emergency``."""
        state = self._engine.members[self._member]
        if state.pre_emergency_governor is not None:
            self._engine.governors.restore_row(
                self._member, state.pre_emergency_governor
            )
            state.pre_emergency_governor = None

    def charge_decision_overhead(self) -> None:
        """Mirror of ``Simulation.charge_decision_overhead``."""
        engine = self._engine
        member = self._member
        engine.perf.record_decision_event_row(member)
        engine.scheduler.stall_all_row(member, DECISION_OVERHEAD_S)
