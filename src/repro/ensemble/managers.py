"""Batched control plane for the proposed thermal manager.

Many members' managers fire on the same tick (the common case — all
members share the paper's 3 s sampling interval and start together), and
one full Python ``on_tick`` per member would cost more than the
vectorized data plane.  This module batches the *sample* for every
unsupervised member driven by a plain
:class:`~repro.core.manager.ProposedThermalManager`: one batched perf
event, one batched stall and one batched sensor read (noise and fault
draws stay per-member, in the exact scalar RNG order).

Learning is not batched.  Each sampled member then takes its scalar
manager's own steps — ``agent.record_sample``, and at a full epoch
``agent.decide`` and :meth:`ProposedThermalManager._apply` against its
:class:`~repro.ensemble.member_view.EnsembleMember` — so the Q-table,
the exploration draws, the governor/mapping switches and any trace
events come from the one scalar implementation.  The decision events and
stalls of the members that decided are then charged as one batch.

Members whose manager is *not* batchable — the GE baselines, static
policies, subclassed managers, management sensor banks with an EMA
filter, or any supervised member (the batched sample has no supervisor
filter) — keep the scalar per-member path; the two paths coexist in one
ensemble.  (The evaluation sensors are batched for every member,
filtered or not.)

The sampling invariant: the engine's ``mgr_next`` gate and the manager's
own ``_next_sample_s`` gate are the same condition, so a member is
sampled here exactly when its scalar ``on_tick`` would have passed its
sampling gate, and its ``_next_sample_s`` attribute is advanced in
lockstep (checkpoint capture reads it directly).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from repro.core.manager import ProposedThermalManager
from repro.soc.simulator import DECISION_OVERHEAD_S, SAMPLE_OVERHEAD_S
from repro.thermal.sensors import sensor_reading

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ensemble.engine import EnsembleSimulation


class BatchedControlPlane:
    """Routes due managers to the batched sample or the scalar path.

    Membership in the batched group is decided once, at construction:
    the group must share what the batched sample assumes — an exact
    :class:`ProposedThermalManager` (a subclass may override any step),
    one sampling interval and one sensor configuration without an EMA
    filter (the filter keeps per-read state the batch does not model).
    Everything else (RNG seeds, fault injectors, agent configurations,
    action menus, mappings) may differ freely per member.
    """

    #: No checkpointed state of its own; rebuilt by ``prepare()``.
    STATE_FIELDS = ()
    DERIVED_FIELDS = (
        "_engine",
        "_is_batched",
        "_sensor_config",
        "_sampling_interval_s",
    )

    def __init__(self, engine: "EnsembleSimulation") -> None:
        self._engine = engine
        self._is_batched = np.zeros(engine.num_members, dtype=bool)

        reference = None
        reference_bank = None
        for member, state in enumerate(engine.members):
            # A supervised member keeps the per-member path: the batched
            # sample has no sensor supervisor filter, and its actuation
            # must go through the supervisor.
            if state._actuation_supervisor is not None:
                continue
            manager = state.manager
            if type(manager) is not ProposedThermalManager:
                continue
            bank = state._manager_sensors
            if bank.config.ema_tau_s > 0.0:
                continue
            if reference is None:
                reference, reference_bank = manager, bank
            elif not (
                manager.config.sampling_interval_s
                == reference.config.sampling_interval_s
                and bank.config == reference_bank.config
            ):
                continue
            self._is_batched[member] = True

        if reference is not None:
            self._sensor_config = reference_bank.config
            self._sampling_interval_s = float(
                reference.config.sampling_interval_s
            )

    # ------------------------------------------------------------------
    # The fire tick
    # ------------------------------------------------------------------
    def on_tick(self, due: np.ndarray) -> np.ndarray:
        """Run the batched path for its members; return the rest.

        ``due`` holds the members whose ``mgr_next`` gate passed this
        tick.  Batched members are sampled together and then run their
        agents' scalar steps; the returned subset still needs the scalar
        ``on_tick`` loop.
        """
        mask = self._is_batched[due]
        if not mask.any():
            return due
        engine = self._engine
        members = due[mask]

        # --- Sample: Simulation.read_sensors, batched ----------------
        engine.perf.record_sample_event_rows(members)
        engine.scheduler.stall_all_rows(members, SAMPLE_OVERHEAD_S)
        config = self._sensor_config
        member_list = members.tolist()
        states = [engine.members[member] for member in member_list]
        readings, _ = sensor_reading(
            config,
            engine.chip.core_temps()[members],
            lambda: np.stack(
                [
                    state._manager_sensors._rng.normal(
                        0.0, config.noise_std_c, size=engine.num_cores
                    )
                    for state in states
                ]
            ),
        )

        # --- Record and decide: ProposedThermalManager.on_tick -------
        now = engine.now
        interval = self._sampling_interval_s
        decided: List[int] = []
        for member, state, reading in zip(member_list, states, readings):
            if state._fault_injector is not None:
                reading = state._fault_injector.perturb_sensors(now, reading)
            manager = state.manager
            # Keep the manager's sampling schedule live (checkpoint
            # capture and _manager_next_fire read it directly).
            manager._next_sample_s += interval
            agent = manager.agent
            agent.record_sample(reading)
            if not agent.epoch_ready:
                continue
            app = state.current_app
            action_index = agent.decide(
                app.throughput(window_s=manager.config.decision_epoch_s),
                app.spec.performance_constraint,
                now_s=now,
            )
            manager._apply(state, agent.actions[action_index], app)
            decided.append(member)
        engine.mgr_next[members] = engine.mgr_next[members] + interval

        if decided:
            rows = np.asarray(decided, dtype=np.int64)
            engine.perf.record_decision_event_rows(rows)
            engine.scheduler.stall_all_rows(rows, DECISION_OVERHEAD_S)
        return due[~mask]
