"""One ensemble member: its control-plane objects and data-plane primitives.

Thermal managers (the learning agents and baselines) stay *scalar*
objects in the ensemble engine: each :class:`EnsembleMember` keeps its
own real manager, fault injector, supervisors and management-path
:class:`~repro.thermal.sensors.SensorBank`, under the attribute names
:class:`~repro.soc.simulator.Simulation` uses.  The member is what its
manager and supervisors are handed.  It inherits the manager-facing
surface — sensor reads, governor and mapping requests, the faultable
actuation internals, the read-backs and the thermal emergency — from
:class:`~repro.soc.simulator.ControlSurface`, the class ``Simulation``
inherits it from, and supplies only the data-plane primitives, which
read and write the member's rows of the batched arrays.

Because the manager and the surface code are the scalar engine's own,
every Q-table update, exploration draw, fault outcome and
governor/mapping decision is bit-identical to the scalar engine *by
construction*; only the data plane underneath is vectorized.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.ensemble.governors import GovernorRow
from repro.sched.affinity import AffinityMapping
from repro.soc.simulator import (
    DECISION_OVERHEAD_S,
    SAMPLE_OVERHEAD_S,
    ControlSurface,
    Simulation,
)

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


class EnsembleMember(ControlSurface):
    """One member of an :class:`EnsembleSimulation`, adopted from ``sim``."""

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).  The
    #: applications carry the generators the batched workloads draw from.
    STATE_FIELDS = (
        "applications",
        "manager",
        "_manager_sensors",
        "_fault_injector",
        "_mapping",
        "_sensor_supervisor",
        "_actuation_supervisor",
        "_next_watchdog_s",
        "_pre_emergency_governor",
    )
    #: The engine row this member is, and construction values.
    DERIVED_FIELDS = (
        "_engine",
        "_member",
        "platform",
        "max_time_s",
        "chip",
        "current_app",
        "obs",
    )

    def __init__(
        self, engine: "EnsembleSimulation", member: int, sim: Simulation
    ) -> None:
        self._engine = engine
        self._member = member
        self.platform = sim.platform
        self.max_time_s = sim.max_time_s
        self.chip = ChipView(engine)
        self.current_app = AppView(engine, member)
        self.obs = None  # ensembles reject instrumented members
        self.applications = list(sim.applications)
        self.manager = sim.manager
        self._manager_sensors = sim._manager_sensors
        self._fault_injector = sim._fault_injector
        self._mapping = sim._mapping
        self._sensor_supervisor = sim._sensor_supervisor
        self._actuation_supervisor = sim._actuation_supervisor
        self._next_watchdog_s = sim._next_watchdog_s
        #: The governor row the thermal emergency parked.
        self._pre_emergency_governor: Optional[GovernorRow] = None

    @property
    def now(self) -> float:
        return self._engine.now

    # ------------------------------------------------------------------
    # Data-plane primitives: this member's rows of the batched arrays
    # ------------------------------------------------------------------
    def _charge_event(self, decision: bool) -> None:
        engine = self._engine
        member = self._member
        if decision:
            engine.perf.record_decision_event_row(member)
            engine.scheduler.stall_all_row(member, DECISION_OVERHEAD_S)
        else:
            engine.perf.record_sample_event_row(member)
            engine.scheduler.stall_all_row(member, SAMPLE_OVERHEAD_S)

    def _core_temps(self) -> np.ndarray:
        return self._engine.chip.core_temps()[self._member]

    def _switch_governor(
        self, name: str, userspace_frequency_hz: Optional[float]
    ) -> None:
        self._engine.governors.switch_row(self._member, name, userspace_frequency_hz)

    def _park_governor(self) -> GovernorRow:
        return self._engine.governors.row(self._member)

    def _restore_governor(self, parked: GovernorRow) -> None:
        self._engine.governors.restore_row(self._member, parked)

    def _apply_mapping(self, mapping: Optional[AffinityMapping]) -> None:
        if mapping is None:
            self._engine.scheduler.clear_mapping_row(self._member)
        else:
            self._engine.scheduler.set_mapping_row(self._member, mapping)

    def governor_in_force(
        self, name: str, userspace_frequency_hz: Optional[float] = None
    ) -> bool:
        return self._engine.governors.in_force(
            self._member, name, userspace_frequency_hz
        )
