"""Vectorized ensemble engine.

:class:`EnsembleSimulation` adopts N constructed-but-unrun scalar
:class:`~repro.soc.simulator.Simulation` objects and steps all of them
together, one vectorized NumPy tick for the whole ensemble.  The
contract is **bit-faithfulness**: every member's results (thermal
profile, energy, perf counters, app records, manager statistics) are
bit-for-bit identical to what its scalar ``Simulation.run()`` would have
produced — verified member-by-member by the ensemble axes of
``tests/test_differential.py``.

The engine splits the system into two planes:

* **data plane** (every member, every tick) — scheduler, thread state
  machine, governors, power/thermal, evaluation sensors — batched into
  structure-of-arrays form (:mod:`repro.ensemble.sched`,
  :mod:`~repro.ensemble.workloads`, :mod:`~repro.ensemble.governors`,
  :mod:`~repro.ensemble.power_thermal`, :mod:`~repro.ensemble.sensors`);
* **control plane** (one member, occasionally) — thermal managers, fault
  injectors, supervisors and management-path sensor banks stay *real
  scalar objects*, held by one
  :class:`~repro.ensemble.member_view.EnsembleMember` per member.  When
  a member's manager is due it runs unchanged against that member, which
  inherits ``Simulation``'s manager-facing code
  (:class:`~repro.soc.simulator.ControlSurface`) and supplies only its
  rows of the batched arrays, so every Q-table update, exploration draw
  and fault outcome is bit-identical by construction.

Managers are gated by a per-member next-fire time harvested from their
``_next_sample_s`` attribute, so the quiescent per-tick cost of the
control plane is one vectorized comparison, not N Python calls.  A
supervised member's tick ends, as the scalar one does, with the shared
supervision round (watchdog read, retries, thermal emergency); an
unsupervised ensemble skips that phase entirely.

A member runs an application *sequence* — a workload job's training
passes then its measured pass, or a scenario's applications — and
switches applications on its own clock, so members of either job kind
share one ensemble.

Members that finish (all applications done, or their ``max_time_s``
reached) have their results frozen at exactly the point the scalar run
loop would have broken; the remaining members keep stepping.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.checkpoint.state import capture_state, restore_state
from repro.ensemble.governors import BatchedGovernors
from repro.ensemble.managers import BatchedControlPlane
from repro.ensemble.member_view import EnsembleMember
from repro.ensemble.power_thermal import BatchedChip
from repro.ensemble.sched import BatchedPerf, BatchedScheduler
from repro.ensemble.sensors import BatchedEvalSensors
from repro.ensemble.workloads import BatchedWorkloads
from repro.perf.timer import SectionTimer
from repro.power.energy import EnergyMeter
from repro.sched.perf import PerfCounters
from repro.soc.simulator import (
    AppRecord,
    Simulation,
    SimulationResult,
    ThermalManagerBase,
)
from repro.thermal.profile import ThermalProfile

#: Initial eval-sample capacity of the batched profile buffer.
_INITIAL_PROFILE_CAPACITY = 64

#: Perf-counter channels snapshotted when a member's run freezes.
_PERF_CHANNELS = (
    "executed_cycles",
    "cache_misses",
    "page_faults",
    "migrations",
    "sample_events",
    "decision_events",
)


def _manager_next_fire(manager: Optional[ThermalManagerBase]) -> float:
    """When the manager next needs an ``on_tick`` call.

    Managers that do not override ``on_tick`` (the static policies)
    never fire.  Managers that do but expose no ``_next_sample_s``
    schedule fire every tick (the scalar engine calls ``on_tick``
    unconditionally, so that is the conservative fallback).
    """
    if manager is None:
        return math.inf
    if type(manager).on_tick is ThermalManagerBase.on_tick:
        return math.inf
    return float(getattr(manager, "_next_sample_s", -math.inf))


class EnsembleSimulation:
    """N scalar simulations, stepped as one vectorized system.

    Parameters
    ----------
    members:
        Constructed-but-unrun :class:`Simulation` objects.  All must
        share one platform configuration and evaluation period.  The
        ensemble *adopts* their state (thermal arrays, governors, RNGs,
        managers); the adopted simulations must not be used afterwards.
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).  The
    #: members come first: the batched workloads' generators refer back
    #: to their applications.
    STATE_FIELDS = (
        "members",
        "now",
        "_next_eval_s",
        "_eval_samples",
        "active",
        "run_completed",
        "app_index",
        "app_start_s",
        "_snap_dynamic_j",
        "_snap_static_j",
        "mgr_next",
        "total_time_s",
        "profile_len",
        "records",
        "_final_perf",
        "_final_energy",
        "workloads",
        "scheduler",
        "governors",
        "chip",
        "eval_sensors",
        "perf",
    )
    #: Construction values, the sample buffer ``_eval_samples`` stands
    #: for, the lazily recomputed run-loop bounds and the control plane
    #: (which holds no state of its own).
    DERIVED_FIELDS = (
        "platform",
        "num_members",
        "num_cores",
        "dt",
        "eval_sample_period_s",
        "chip_template",
        "_eval_count",
        "_profile_buf",
        "_mgr_min",
        "_max_time_vec",
        "_min_max_time",
        "_prepared",
        "_control",
        "_supervised",
        "_timer",
    )

    def __init__(self, members: Sequence[Simulation]) -> None:
        if not members:
            raise ValueError("ensemble needs at least one member simulation")
        reference = members[0]
        platform = reference.platform
        eval_period = reference.eval_sample_period_s
        for index, sim in enumerate(members):
            if sim.platform != platform:
                raise ValueError(
                    f"member {index} has a different platform configuration; "
                    "ensembles require a uniform platform"
                )
            if sim.eval_sample_period_s != eval_period:
                raise ValueError(
                    f"member {index} has a different eval sample period"
                )
            if sim.now != 0.0 or sim._app_index != -1:
                raise ValueError(
                    f"member {index} has already run; ensembles adopt "
                    "freshly constructed simulations only"
                )
            if sim.obs is not None:
                raise ValueError(
                    f"member {index} has instrumentation attached; "
                    "not supported in ensembles"
                )
            if sim._checkpointer is not None:
                raise ValueError(
                    f"member {index} has a checkpointer attached; use "
                    "EnsembleSimulation.capture/restore instead"
                )

        self.platform = platform
        self.num_members = len(members)
        self.num_cores = platform.num_cores
        self.dt = platform.dt
        self.eval_sample_period_s = eval_period
        self.chip_template = reference.chip
        m, c = self.num_members, self.num_cores

        max_slots = max(
            app.spec.num_threads
            for sim in members
            for app in sim.applications
        )
        self.workloads = BatchedWorkloads(m, max_slots)
        self.perf = BatchedPerf(m)
        self.scheduler = BatchedScheduler(
            self.workloads,
            self.perf,
            c,
            rebalance_period_s=np.asarray(
                [sim.scheduler.rebalance_period_s for sim in members]
            ),
            idle_pull_delay_s=np.asarray(
                [sim.scheduler.idle_pull_delay_s for sim in members]
            ),
            packing_threshold=np.asarray(
                [sim.scheduler.packing_threshold for sim in members]
            ),
            pack_cap=np.asarray([sim.scheduler.pack_cap for sim in members]),
            idle_activity=np.asarray(
                [sim.scheduler.idle_activity for sim in members]
            ),
        )
        self.governors = BatchedGovernors(reference.chip.ladder, m, c)
        self.chip = BatchedChip(reference.chip, m)
        self.eval_sensors = BatchedEvalSensors(platform.sensor, m, c, eval_period)

        self.members: List[EnsembleMember] = []
        for member, sim in enumerate(members):
            self.chip.adopt_row(member, sim.chip)
            self.governors.adopt_row(member, sim._governor)
            self.eval_sensors.adopt_rng(sim._eval_sensors._rng)
            self.members.append(EnsembleMember(self, member, sim))
        # The members whose run loop ends each tick with a supervision
        # round (empty for an unsupervised ensemble).
        self._supervised = np.asarray(
            [
                member
                for member, state in enumerate(self.members)
                if state._actuation_supervisor is not None
            ],
            dtype=np.int64,
        )

        # Engine clock and eval schedule (shared: members start together).
        self.now = 0.0
        self._next_eval_s = eval_period
        self._eval_count = 0
        self._profile_buf = np.empty(
            (m, c, _INITIAL_PROFILE_CAPACITY), dtype=np.float64
        )
        # Per-member run bookkeeping.
        self.active = np.ones(m, dtype=bool)
        self.run_completed = np.ones(m, dtype=bool)
        self.app_index = np.full(m, -1, dtype=np.int64)
        self.app_start_s = np.zeros(m, dtype=np.float64)
        self._snap_dynamic_j = np.zeros(m, dtype=np.float64)
        self._snap_static_j = np.zeros(m, dtype=np.float64)
        self.mgr_next = np.full(m, math.inf, dtype=np.float64)
        # Lower bound on min(mgr_next[active]); -inf forces the first
        # tick (and any tick after a restore) to recompute it.
        self._mgr_min = -math.inf
        self.records: List[List[AppRecord]] = [[] for _ in range(m)]
        self.total_time_s = np.zeros(m, dtype=np.float64)
        self.profile_len = np.zeros(m, dtype=np.int64)
        self._final_perf: List[Optional[Dict[str, float]]] = [None] * m
        self._final_energy: List[Optional[tuple]] = [None] * m
        # Vector form of each member's max_time_s (inf = no limit) so
        # the per-tick run-loop bookkeeping is one comparison, not a
        # Python loop over every member.
        self._max_time_vec = np.asarray(
            [
                math.inf if s.max_time_s is None else float(s.max_time_s)
                for s in self.members
            ],
            dtype=np.float64,
        )
        # Lower bound on min(max_time over active members), used with
        # the workloads ``done_dirty`` flag to skip run-loop bookkeeping
        # on ticks where nothing can possibly have finished.
        self._min_max_time = float(np.min(self._max_time_vec))
        self._prepared = False
        # Built in prepare() (after managers attach): the vectorized
        # control plane for proposed-manager members.
        self._control: Optional[BatchedControlPlane] = None
        self._timer: Optional[SectionTimer] = None

    def attach_timer(self, timer: Optional[SectionTimer]) -> None:
        """Attach (or detach, with None) per-phase tick-loop accounting.

        Section names mirror the scalar loop's (schedule/app/governor/
        sensors/manager) plus ``chip`` (the batched power+thermal step)
        and ``advance`` (run-loop bookkeeping), so a report reads the
        same either way: ``manager`` is the control plane, everything
        else the data plane.  With no timer attached each phase pays one
        ``is not None`` check.
        """
        self._timer = timer

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Mirror of ``Simulation.prepare`` for every member."""
        self.eval_sensors.reset()
        for member, state in enumerate(self.members):
            state._manager_sensors.reset()
            if state._sensor_supervisor is not None:
                state._sensor_supervisor.reset()
            if state.manager is not None:
                state.manager.attach(state)
                self.mgr_next[member] = _manager_next_fire(state.manager)
        for member in range(self.num_members):
            self._start_next_app(member)
        self._control = BatchedControlPlane(self)
        self._prepared = True

    def _start_next_app(self, member: int) -> bool:
        """Mirror of ``Simulation._start_next_app`` for one member."""
        state = self.members[member]
        self.app_index[member] += 1
        index = int(self.app_index[member])
        if index >= len(state.applications):
            return False
        app = state.applications[index]
        self.workloads.load_app_row(member, app)
        self.scheduler.set_threads_row(member, state._mapping)
        self.app_start_s[member] = self.now
        self._snap_dynamic_j[member] = self.chip.dynamic_j[member]
        self._snap_static_j[member] = self.chip.static_j[member]
        if state.manager is not None and index > 0:
            state.manager.on_app_switch(state, app)
            self.mgr_next[member] = _manager_next_fire(state.manager)
            self._mgr_min = -math.inf  # fire time may have moved earlier
        return True

    def _finish_app(self, member: int, completed: bool) -> None:
        """Mirror of ``Simulation._finish_app`` for one member."""
        state = self.members[member]
        app = state.applications[int(self.app_index[member])]
        self.records[member].append(
            AppRecord(
                name=app.spec.name,
                dataset=app.spec.dataset,
                start_s=float(self.app_start_s[member]),
                end_s=self.now,
                completed_iterations=len(self.workloads.completions[member]),
                completed=completed,
                dynamic_energy_j=float(
                    self.chip.dynamic_j[member] - self._snap_dynamic_j[member]
                ),
                static_energy_j=float(
                    self.chip.static_j[member] - self._snap_static_j[member]
                ),
            )
        )

    def _freeze(self, member: int, completed: bool) -> None:
        """Snapshot a member's results where its scalar loop would break."""
        self.active[member] = False
        self.run_completed[member] = completed
        self.total_time_s[member] = self.now
        self.profile_len[member] = self._eval_count
        self._final_perf[member] = {
            name: getattr(self.perf, name)[member].item()
            for name in _PERF_CHANNELS
        }
        self._final_energy[member] = (
            float(self.chip.dynamic_j[member]),
            float(self.chip.static_j[member]),
            float(self.chip.energy_elapsed_s[member]),
        )

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Mirror of ``Simulation.step`` across the whole ensemble."""
        timer = self._timer
        dt = self.dt
        if timer is not None:
            mark = timer.now()
        # The scalar loop snapshots governor frequencies at the top of
        # the tick; the governor update below must not feed back into
        # this tick's chip step.  ``update`` always rebinds ``freq`` and
        # its ladder indices ``freq_idx`` to fresh arrays (the in-place
        # writers — adopt/switch/restore — all run after the chip
        # consumed this snapshot), so holding the current arrays IS the
        # snapshot; no defensive copy needed.
        freq_used = self.governors.freq
        idx_used = self.governors.freq_idx
        util, activity = self.scheduler.tick(freq_used, dt)
        if timer is not None:
            mark = timer.lap("schedule", mark)
        self.workloads.tick(dt)
        if timer is not None:
            mark = timer.lap("app", mark)
        self.governors.update(util)
        if timer is not None:
            mark = timer.lap("governor", mark)
        self.chip.step(activity, freq_used, idx_used, dt)
        self.now += dt
        if timer is not None:
            mark = timer.lap("chip", mark)

        if self.now + 1e-9 >= self._next_eval_s:
            reading = self.eval_sensors.read(self.chip.core_temps())
            self._append_eval(reading)
            self._next_eval_s += self.eval_sample_period_s
        if timer is not None:
            mark = timer.lap("sensors", mark)

        # ``_mgr_min`` is a monotone lower bound on the earliest active
        # manager fire time (stale values are only ever too low, which
        # just costs a recompute), so most ticks skip the member scan.
        if self.now + 1e-9 >= self._mgr_min:
            due = np.nonzero(self.active & (self.now + 1e-9 >= self.mgr_next))[0]
            if due.size:
                # Batched members share one vectorized sample; whatever
                # remains runs the scalar loop.
                due = self._control.on_tick(due)
            for member in due:
                state = self.members[member]
                state.manager.on_tick(state)
                self.mgr_next[member] = _manager_next_fire(state.manager)
            self._mgr_min = float(
                np.min(np.where(self.active, self.mgr_next, math.inf))
            )
        supervised = self._supervised
        if supervised.size:
            for member in supervised[self.active[supervised]].tolist():
                self.members[member]._supervise_tick()
        if timer is not None:
            timer.lap("manager", mark)
            timer.count_tick()

    def _append_eval(self, reading: np.ndarray) -> None:
        if self._eval_count == self._profile_buf.shape[2]:
            self._grow_profile()
        self._profile_buf[:, :, self._eval_count] = reading
        self._eval_count += 1

    def _grow_profile(self) -> None:
        capacity = self._profile_buf.shape[2]
        grown = np.empty(
            (self.num_members, self.num_cores, capacity * 2), dtype=np.float64
        )
        grown[:, :, :capacity] = self._profile_buf
        self._profile_buf = grown

    def advance(self) -> None:
        """Mirror of the scalar run loop's bookkeeping after one step."""
        timer = self._timer
        if timer is None:
            self._advance()
            return
        mark = timer.now()
        self._advance()
        timer.lap("advance", mark)

    def _advance(self) -> None:
        w = self.workloads
        # ``done_dirty`` is conservative: it is set whenever any thread
        # may have entered DONE, so a clear flag plus a clock short of
        # every member's time limit proves no trigger can fire.
        if not w.done_dirty and self.now < self._min_max_time:
            return
        done = w.done_mask()
        w.done_dirty = False
        trigger = self.active & (done | (self.now >= self._max_time_vec))
        if not trigger.any():
            return
        for member in np.nonzero(trigger)[0]:
            if done[member]:
                self._finish_app(member, completed=True)
                if not self._start_next_app(member):
                    self._freeze(member, completed=True)
            else:
                # max_time_s reached (the scalar loop's elif branch:
                # checked only when the app is not done).
                self._finish_app(member, completed=False)
                self._freeze(member, completed=False)
        # Frozen members drop out of the time-limit watch; keep the
        # lower bound over the still-active ones.
        self._min_max_time = float(
            np.min(np.where(self.active, self._max_time_vec, math.inf))
        )

    def run(self, max_ticks: Optional[int] = None):
        """Step until every member finishes; return per-member results.

        Returns ``None`` when stopped early by ``max_ticks`` with
        members still active (the benchmark harness does this).
        """
        if not self._prepared:
            self.prepare()
        ticks = 0
        while bool(self.active.any()):
            self.step()
            self.advance()
            ticks += 1
            if max_ticks is not None and ticks >= max_ticks:
                break
        if bool(self.active.any()):
            return None
        return self.results()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def results(self) -> List[SimulationResult]:
        """Per-member :class:`SimulationResult`, scalar-identical."""
        if bool(self.active.any()):
            raise RuntimeError(
                "ensemble still has active members; run() to completion "
                "before collecting results"
            )
        out: List[SimulationResult] = []
        for member in range(self.num_members):
            state = self.members[member]
            supervisor_stats: Dict[str, float] = {}
            if state._sensor_supervisor is not None:
                supervisor_stats.update(state._sensor_supervisor.stats())
            if state._actuation_supervisor is not None:
                supervisor_stats.update(
                    state._actuation_supervisor.stats(
                        float(self.total_time_s[member])
                    )
                )
            profile = ThermalProfile(self.num_cores, self.eval_sample_period_s)
            length = int(self.profile_len[member])
            profile._adopt(self._profile_buf[member, :, :length])
            dynamic_j, static_j, elapsed_s = self._final_energy[member]
            perf = PerfCounters()
            final_perf = self._final_perf[member]
            perf.executed_cycles = final_perf["executed_cycles"]
            perf.cache_misses = final_perf["cache_misses"]
            perf.page_faults = final_perf["page_faults"]
            perf.migrations = int(final_perf["migrations"])
            perf.sample_events = int(final_perf["sample_events"])
            perf.decision_events = int(final_perf["decision_events"])
            out.append(
                SimulationResult(
                    profile=profile,
                    energy=EnergyMeter(dynamic_j, static_j, elapsed_s),
                    perf=perf,
                    app_records=list(self.records[member]),
                    total_time_s=float(self.total_time_s[member]),
                    completed=bool(self.run_completed[member]),
                    manager_stats=(
                        state.manager.stats()
                        if state.manager is not None
                        else {}
                    ),
                    fault_stats=(
                        state._fault_injector.stats.as_dict()
                        if state._fault_injector is not None
                        else {}
                    ),
                    supervisor_stats=supervisor_stats,
                )
            )
        return out

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    @property
    def _eval_samples(self) -> np.ndarray:
        """The filled prefix of the eval-sample buffer (checkpointed)."""
        return self._profile_buf[:, :, : self._eval_count]

    @_eval_samples.setter
    def _eval_samples(self, samples: np.ndarray) -> None:
        count = samples.shape[2]
        while self._profile_buf.shape[2] < count:
            self._grow_profile()
        self._profile_buf[:, :, :count] = samples
        self._eval_count = count

    def capture(self) -> dict:
        """JSON-ready snapshot of the whole ensemble at a tick boundary."""
        return capture_state(self)

    def restore(self, state: dict) -> None:
        """Load a :meth:`capture` snapshot into this (fresh) ensemble.

        Mirrors the scalar checkpoint contract: the ensemble is prepared
        first (attaching managers, which may draw), then every piece of
        adopted state is overwritten with the snapshot, so the net
        effect is exactly the captured trajectory.
        """
        if not self._prepared:
            self.prepare()
        restore_state(self, state)

    def _after_restore(self) -> None:
        self._mgr_min = -math.inf  # restored fire times: recompute lazily
