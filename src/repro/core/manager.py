"""Run-time system binding the learning agent to the platform.

This is the "Proposed Approach" box of Figure 2: it samples the on-board
sensors at the temperature sampling interval, hands the samples to the
agent, and — at every decision epoch — lets the agent pick an action,
which it enforces through the operating-system layer (affinity masks and
CPU governors), paying the associated sampling/decision/migration
overheads.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.config import AgentConfig, ReliabilityConfig
from repro.core.actions import Action, ActionSpace
from repro.core.agent import QLearningThermalAgent
from repro.soc.simulator import Simulation, ThermalManagerBase
from repro.workloads.application import Application


class ProposedThermalManager(ThermalManagerBase):
    """The paper's thermal manager, pluggable into a Simulation.

    Parameters
    ----------
    config:
        Agent hyper-parameters.
    reliability:
        Device parameters for the stress/aging state computation.
    action_space:
        Optional explicit action space (the Figure 8 sweep passes sized
        spaces); defaults to ``config.num_actions`` menu entries.
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = ("_next_sample_s", "_current_action", "agent")
    #: Construction values, never checkpointed.
    DERIVED_FIELDS = ("config",)

    def __init__(
        self,
        config: AgentConfig,
        reliability: ReliabilityConfig,
        action_space: Optional[ActionSpace] = None,
    ) -> None:
        self.config = config
        self.agent = QLearningThermalAgent(config, reliability, action_space)
        self._next_sample_s = config.sampling_interval_s
        self._current_action: Optional[Action] = None

    # ------------------------------------------------------------------
    # ThermalManagerBase interface
    # ------------------------------------------------------------------

    def attach(self, sim: Simulation) -> None:
        """Reset sampling state at the start of a run."""
        self._next_sample_s = self.config.sampling_interval_s
        self.agent.obs = sim.obs

    def on_tick(self, sim: Simulation) -> None:
        """Sample at the sampling interval; decide at decision epochs."""
        if sim.now + 1e-9 < self._next_sample_s:
            return
        self._next_sample_s += self.config.sampling_interval_s
        self.agent.record_sample(sim.read_sensors())
        if not self.agent.epoch_ready:
            return

        app = sim.current_app
        performance = app.throughput(window_s=self.config.decision_epoch_s)
        constraint = app.spec.performance_constraint
        action_index = self.agent.decide(performance, constraint, now_s=sim.now)
        action = self.agent.actions[action_index]
        self._apply(sim, action, app)
        sim.charge_decision_overhead()

    def on_app_switch(self, sim: Simulation, app: Application) -> None:
        """The proposed approach ignores explicit switch notifications.

        Application switches must be detected autonomously through the
        moving-average mechanism (Section 5.4); accepting this signal
        would reduce the approach to the modified Ge & Qiu baseline.
        """

    # ------------------------------------------------------------------
    # Actuation
    # ------------------------------------------------------------------

    def _apply(self, sim: Simulation, action: Action, app: Application) -> None:
        """Enforce the selected action through the OS layer."""
        if (
            self._current_action is not None
            and action.label == self._current_action.label
        ):
            return
        sim.set_mapping(action.mapping(app.spec.num_threads))
        sim.set_governor(action.governor, action.userspace_frequency_hz)
        self._current_action = action

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Agent counters for the simulation result."""
        return self.agent.stats.as_dict()

    @property
    def current_action(self) -> Optional[Action]:
        """The most recently enforced action."""
        return self._current_action
