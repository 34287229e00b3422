"""Batched control plane for the proposed thermal manager.

PR 7 vectorized the data plane but left the control plane scalar: when
many members' managers fire on the same tick (the common case — all
members share the paper's 3 s sampling interval and start together),
the engine ran one full Python ``on_tick`` per member.  This module
batches that path for every member driven by a plain
:class:`~repro.core.manager.ProposedThermalManager`:

* the **sample tick** (every firing) becomes one batched perf event,
  one batched stall, one batched sensor read (noise draws stay
  per-member, in the exact scalar RNG order) and one fancy-indexed
  TRec store;
* the **decision epoch** (every ``samples_per_epoch``-th firing) is
  harvested across members and handed to
  :class:`~repro.ensemble.agents.BatchedAgents` as one masked kernel;
  actuation (:meth:`ProposedThermalManager._apply`) still runs scalar
  per member through the :class:`~repro.ensemble.member_view.MemberView`
  facade, so fault-outcome draws and governor/mapping switches are
  bit-identical by construction.

Members whose manager is *not* batchable — the GE baselines, static
policies, subclassed managers, agents with instrumentation, or
management sensor banks with an EMA filter — keep the scalar per-member
path; the two paths coexist in one ensemble.  (The evaluation sensors
are batched for every member, filtered or not.)

The epoch-harvest invariant: the engine's ``mgr_next`` gate and the
manager's own ``_next_sample_s`` gate are the same condition, so a
member is handed to the batch exactly when its scalar ``on_tick`` would
have passed its sampling gate, and its ``_next_sample_s`` attribute is
advanced in lockstep (the scalar facade stays live at all times —
checkpoint capture reads it directly).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.core.agent import QLearningThermalAgent
from repro.core.manager import ProposedThermalManager
from repro.ensemble.agents import BatchedAgents
from repro.soc.simulator import DECISION_OVERHEAD_S, SAMPLE_OVERHEAD_S
from repro.thermal.sensors import sensor_reading

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ensemble.engine import EnsembleSimulation


class BatchedControlPlane:
    """Routes due managers to the batched or the scalar path.

    Membership in the batched group is decided once, at construction:
    the group must be homogeneous where the batch kernels assume it —
    exact manager/agent types (a subclass may override any step), one
    state-space and action-menu size, one sampling/decision cadence and
    one sensor configuration without an EMA filter (the filter keeps
    per-read state the batch does not model).  Everything else (RNG
    seeds, fault injectors, learning hyper-parameters, mappings) may
    differ freely per member.
    """

    #: No checkpointed state of its own (the batched agents sync with
    #: the members' scalar agents); rebuilt by ``prepare()``.
    STATE_FIELDS = ()
    DERIVED_FIELDS = (
        "_engine",
        "_is_batched",
        "_slot_of",
        "agents",
        "_members",
        "_sensor_config",
        "_sampling_interval_s",
        "_decision_epoch_s",
    )

    def __init__(self, engine: "EnsembleSimulation") -> None:
        self._engine = engine
        m = engine.num_members
        self._is_batched = np.zeros(m, dtype=bool)
        self._slot_of = np.full(m, -1, dtype=np.int64)
        self.agents: Optional[BatchedAgents] = None

        reference = None
        reference_bank = None
        members: List[int] = []
        for member, state in enumerate(engine.members):
            manager = state.manager
            if type(manager) is not ProposedThermalManager:
                continue
            agent = manager.agent
            if type(agent) is not QLearningThermalAgent or agent.obs is not None:
                continue
            bank = state.manager_sensors
            if bank.config.ema_tau_s > 0.0:
                continue
            if reference is None:
                reference, reference_bank = manager, bank
            else:
                ref_agent = reference.agent
                if not (
                    agent.states.num_states == ref_agent.states.num_states
                    and len(agent.actions) == len(ref_agent.actions)
                    and agent.samples_per_epoch == ref_agent.samples_per_epoch
                    and agent.config.sampling_interval_s
                    == ref_agent.config.sampling_interval_s
                    and agent.config.decision_epoch_s
                    == ref_agent.config.decision_epoch_s
                    and bank.config == reference_bank.config
                ):
                    continue
            members.append(member)

        if not members:
            return
        self._members = np.asarray(members, dtype=np.int64)
        self._is_batched[self._members] = True
        self._slot_of[self._members] = np.arange(len(members))
        self._sensor_config = reference_bank.config
        self._sampling_interval_s = float(
            reference.config.sampling_interval_s
        )
        self._decision_epoch_s = float(reference.config.decision_epoch_s)
        self.agents = BatchedAgents(
            [engine.members[member].manager.agent for member in members],
            engine.num_cores,
        )

    # ------------------------------------------------------------------
    # Scalar-facade synchronisation (checkpoint interop)
    # ------------------------------------------------------------------
    def sync_out(self) -> None:
        """Make every scalar facade attribute current (before capture)."""
        if self.agents is not None:
            self.agents.sync_out()

    def sync_in(self) -> None:
        """Re-adopt the scalar objects' state (after restore)."""
        if self.agents is not None:
            self.agents.sync_in()

    # ------------------------------------------------------------------
    # The fire tick
    # ------------------------------------------------------------------
    def on_tick(self, due: np.ndarray) -> np.ndarray:
        """Run the batched path for its members; return the rest.

        ``due`` holds the members whose ``mgr_next`` gate passed this
        tick.  Batched members get the vectorized sample/decide path;
        the returned subset still needs the scalar ``on_tick`` loop.
        """
        if self.agents is None:
            return due
        mask = self._is_batched[due]
        if not mask.any():
            return due
        engine = self._engine
        members = due[mask]
        slots = self._slot_of[members]

        # --- Sample: Simulation.read_sensors, batched ----------------
        engine.perf.record_sample_event_rows(members)
        engine.scheduler.stall_all_rows(members, SAMPLE_OVERHEAD_S)
        config = self._sensor_config
        banks = [engine.members[member].manager_sensors for member in members.tolist()]
        readings, _ = sensor_reading(
            config,
            engine.chip.core_temps()[members],
            lambda: np.stack(
                [
                    bank._rng.normal(0.0, config.noise_std_c, size=engine.num_cores)
                    for bank in banks
                ]
            ),
        )
        now = engine.now
        interval = self._sampling_interval_s
        for i, member in enumerate(members.tolist()):
            state = engine.members[member]
            if state.fault_injector is not None:
                readings[i] = state.fault_injector.perturb_sensors(
                    now, readings[i]
                )
            # Keep the scalar facade's sampling schedule live (checkpoint
            # capture and _manager_next_fire read it directly).
            state.manager._next_sample_s += interval
        self.agents.record_samples(slots, readings)
        engine.mgr_next[members] = engine.mgr_next[members] + interval

        # --- Decide: the harvested epoch -----------------------------
        ready = self.agents.epoch_ready(slots)
        if ready.size:
            ready_members = self._members[ready]
            performance: List[float] = []
            constraint: List[float] = []
            window = self._decision_epoch_s
            ready_list = ready_members.tolist()
            for member in ready_list:
                spec = engine.members[member].applications[
                    int(engine.app_index[member])
                ].spec
                performance.append(
                    engine.workloads.throughput(member, window_s=window)
                )
                constraint.append(spec.performance_constraint)
            actions = self.agents.decide_batch(
                ready.tolist(), performance, constraint, now
            )
            for member, action_index in zip(ready_list, actions):
                manager = engine.members[member].manager
                action = manager.agent.actions[action_index]
                view = engine.views[member]
                manager._apply(view, action, view.current_app)
            engine.perf.record_decision_event_rows(ready_members)
            engine.scheduler.stall_all_rows(ready_members, DECISION_OVERHEAD_S)
        return due[~mask]
