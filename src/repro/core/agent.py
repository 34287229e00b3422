"""The learning agent — Algorithm 1 of the paper.

The agent consumes temperature samples at the sampling interval and
makes a decision every time a full decision epoch of samples has been
recorded (``|TRec| == Decision Epoch``).  One decision consists of, in
the order of Algorithm 1:

1. compute the stress/aging moving averages and classify the change
   (intra-application -> restore the end-of-exploration Q-table and
   alpha; inter-application -> reset Q-table and alpha to 1);
2. identify the current state from the epoch's samples;
3. compute the reward of the previous action (Eq. 8) and update the
   Q-table entry of (previous state, previous action) per Eq. 7;
4. select the next action (epsilon-greedy, epsilon tied to alpha);
5. update the learning rate and clear the sample record.

The agent itself is platform-agnostic: it sees sample vectors and emits
action indices.  :mod:`repro.core.manager` binds it to the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.instrument import Instrumentation

from repro.config import AgentConfig, ReliabilityConfig
from repro.core.actions import ActionSpace, build_action_space
from repro.core.qtable import QTable
from repro.core.reward import RewardFunction
from repro.core.schedule import AlphaSchedule, LearningPhase
from repro.core.state import StateSpace
from repro.core.variation import VariationDetector, VariationKind, VariationReport

#: Epochs of unchanged greedy policy after which we call it converged.
CONVERGENCE_WINDOW = 8

#: Learning-rate floor in the exploitation phase ("negligible fraction").
EXPLOITATION_ALPHA_FLOOR = 0.10

#: Epochs that must separate two inter-application re-learning events.
INTER_COOLDOWN_EPOCHS = 10

#: Greedy-action hysteresis: keep the previous action while its Q-value
#: is within this margin of the state's best.  Without it, observations
#: that straddle a bin boundary make two states' greedy actions chase
#: each other, and the resulting actuation flip-flop is itself a source
#: of thermal cycling.
ACTION_HYSTERESIS = 0.05


@dataclass
class AgentStats:
    """Counters the experiments read back after a run."""

    epochs: int = 0
    intra_events: int = 0
    inter_events: int = 0
    unsafe_epochs: int = 0
    reward_sum: float = 0.0
    #: First epoch at which the greedy policy stayed unchanged for
    #: CONVERGENCE_WINDOW epochs (None if never converged).
    convergence_epoch: Optional[int] = None
    #: Epoch of the most recent greedy-policy change (training time).
    last_policy_change_epoch: int = 0
    #: Epoch at which the exploration phase ended.
    exploration_end_epoch: Optional[int] = None
    #: Epoch at which the agent first entered pure exploitation.
    exploitation_entry_epoch: Optional[int] = None
    #: Label of the most recently selected action.
    last_action_label: str = ""
    action_counts: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, float]:
        """Flatten to the manager-stats dict of a simulation result."""
        return {
            "epochs": float(self.epochs),
            "intra_events": float(self.intra_events),
            "inter_events": float(self.inter_events),
            "unsafe_epochs": float(self.unsafe_epochs),
            "mean_reward": self.reward_sum / self.epochs if self.epochs else 0.0,
            "convergence_epoch": float(
                self.convergence_epoch if self.convergence_epoch is not None else -1
            ),
            "last_policy_change_epoch": float(self.last_policy_change_epoch),
            "exploration_end_epoch": float(
                self.exploration_end_epoch
                if self.exploration_end_epoch is not None
                else -1
            ),
            "exploitation_entry_epoch": float(
                self.exploitation_entry_epoch
                if self.exploitation_entry_epoch is not None
                else -1
            ),
        }


class QLearningThermalAgent:
    """Algorithm 1: the inter/intra-application Q-learning agent.

    Parameters
    ----------
    config:
        Hyper-parameters (sampling interval, decision epoch, bins, ...).
    reliability:
        Device parameters used to evaluate stress/aging on the samples.
    action_space:
        The action space; built from ``config.num_actions`` when omitted.
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = (
        "qtable",
        "schedule",
        "detector",
        "_rng",
        "_trec",
        "_prev_epoch_series",
        "_prev_state",
        "_prev_action",
        "_same_action_count",
        "_policy_stable_for",
        "_last_policy",
        "_last_intra_epoch",
        "_last_inter_epoch",
        "stats",
    )
    #: Construction values and attach-time hooks.
    DERIVED_FIELDS = (
        "config",
        "actions",
        "states",
        "reward_fn",
        "samples_per_epoch",
        "obs",
    )

    def __init__(
        self,
        config: AgentConfig,
        reliability: ReliabilityConfig,
        action_space: Optional[ActionSpace] = None,
    ) -> None:
        self.config = config
        self.actions = (
            action_space
            if action_space is not None
            else build_action_space(config.num_actions)
        )
        self.states = StateSpace(
            config.num_stress_bins, config.num_aging_bins, reliability
        )
        self.qtable = QTable(self.states.num_states, len(self.actions))
        self.schedule = AlphaSchedule(
            decay_epochs=config.alpha_decay_epochs,
            exploit_threshold=config.alpha_exploit_threshold,
            table_size=self.states.num_states * len(self.actions),
            alpha_intra=config.alpha_intra,
        )
        self.reward_fn = RewardFunction(config, self.states)
        self.detector = VariationDetector(config)
        self._rng = np.random.default_rng(config.seed)

        self.samples_per_epoch = max(
            1, int(round(config.decision_epoch_s / config.sampling_interval_s))
        )
        self._trec: List[np.ndarray] = []
        self._prev_epoch_series: Optional[List[List[float]]] = None
        self._prev_state: Optional[int] = None
        self._prev_action: Optional[int] = None
        self._same_action_count = 0
        self._policy_stable_for = 0
        self._last_policy: Optional[np.ndarray] = None
        self._last_intra_epoch = -(10**9)
        self._last_inter_epoch = -(10**9)
        self.stats = AgentStats()
        #: Optional observation-only hook (set by the manager).
        self.obs: "Optional[Instrumentation]" = None

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def record_sample(self, temps_c: Sequence[float]) -> None:
        """Push one sensor sample vector into TRec."""
        self._trec.append(np.asarray(temps_c, dtype=float))

    @property
    def epoch_ready(self) -> bool:
        """``|TRec| == Decision Epoch`` of Algorithm 1."""
        return len(self._trec) >= self.samples_per_epoch

    # ------------------------------------------------------------------
    # Decision epoch
    # ------------------------------------------------------------------

    def _epoch_series(self) -> List[List[float]]:
        """TRec transposed into per-core series."""
        stacked = np.stack(self._trec)  # (samples, cores)
        return [list(stacked[:, core]) for core in range(stacked.shape[1])]

    def decide(
        self, performance: float, constraint: float, now_s: float = 0.0
    ) -> int:
        """Run one decision epoch of Algorithm 1 and pick an action.

        Parameters
        ----------
        performance:
            Measured performance ``P`` over the ending epoch.
        constraint:
            The application's performance constraint ``Pc``.
        now_s:
            Simulation time of the decision, used only to timestamp
            trace events (the agent itself has no clock).

        Returns
        -------
        int
            Index of the selected action in the action space.
        """
        if not self.epoch_ready:
            raise RuntimeError("decide() called before the epoch is full")

        epoch_series = self._epoch_series()
        observation = self.states.observe(
            epoch_series,
            self.config.sampling_interval_s,
            context_samples=self._prev_epoch_series,
        )
        self._prev_epoch_series = epoch_series

        # 1. Workload-variation handling (Section 5.4).  Inter-application
        # re-learning is armed only once the current learning pass has
        # covered the action menu (a reset while still exploring would
        # respond to the agent's own action-induced thermal swings) and
        # is rate-limited so a noisy workload cannot keep the agent in a
        # perpetual reset loop.
        # The action must have been held for several epochs before a
        # thermal deviation counts as workload-induced: a 30 s epoch is
        # comparable to the package thermal ramp, so the first couple of
        # epochs after an actuation change still carry self-induced
        # drift.
        action_stable = self._same_action_count >= 3
        report = self.detector.observe(observation, action_stable=action_stable)
        inter_armed = (
            self.schedule.epoch >= 2 * len(self.actions)
            and self.stats.epochs - self._last_inter_epoch >= INTER_COOLDOWN_EPOCHS
        )
        if report.kind is VariationKind.INTER and not inter_armed:
            report = VariationReport(
                VariationKind.INTRA, report.delta_stress_ma, report.delta_aging_ma
            )
        if report.kind is VariationKind.INTER:
            self.qtable.reset()
            self.schedule.restart_inter()
            self.detector.reset()
            self._prev_state = None
            self._prev_action = None
            self._same_action_count = 0
            self._policy_stable_for = 0
            self._last_policy = None
            self._last_inter_epoch = self.stats.epochs
            self.stats.inter_events += 1
            if self.obs is not None:
                self.obs.emit(
                    "variation",
                    now_s,
                    kind="inter",
                    delta_stress_ma=float(report.delta_stress_ma),
                    delta_aging_ma=float(report.delta_aging_ma),
                    applied=True,
                )
        elif report.kind is VariationKind.INTRA:
            # Restore the end-of-exploration table and resume from
            # alpha_exp — but only once the agent has actually settled
            # below alpha_exp (bumping alpha during early learning would
            # only add noise), and not more often than once per
            # moving-average window.
            settled = self.schedule.alpha < self.config.alpha_intra
            cooled_down = (
                self.stats.epochs - self._last_intra_epoch >= self.config.ma_window
            )
            applied = False
            if settled and cooled_down and self.qtable.restore_exploration():
                self.schedule.restart_intra()
                self._last_intra_epoch = self.stats.epochs
                self.stats.intra_events += 1
                applied = True
            if self.obs is not None:
                self.obs.emit(
                    "variation",
                    now_s,
                    kind="intra",
                    delta_stress_ma=float(report.delta_stress_ma),
                    delta_aging_ma=float(report.delta_aging_ma),
                    applied=applied,
                )

        # 2. Identify the state.
        state = self.states.state_of(observation)

        # 3. Reward the previous action and update the Q-table (Eq. 7).
        #    In the exploitation phase the update continues with a
        #    negligible learning rate (the paper's "updated with
        #    negligible fraction of the reward value"), which lets the
        #    table keep absorbing states first reached after the decay.
        if self._prev_state is not None and self._prev_action is not None:
            breakdown = self.reward_fn.evaluate(observation, performance, constraint)
            if breakdown.unsafe:
                self.stats.unsafe_epochs += 1
            self.stats.reward_sum += breakdown.total
            alpha = max(self.schedule.alpha, EXPLOITATION_ALPHA_FLOOR)
            self.qtable.update(
                self._prev_state,
                self._prev_action,
                breakdown.total,
                state,
                alpha,
                self.config.discount,
            )
            if self.obs is not None:
                self.obs.emit(
                    "q_update",
                    now_s,
                    state=int(self._prev_state),
                    action=int(self._prev_action),
                    reward=float(breakdown.total),
                    alpha=float(alpha),
                    q_value=float(
                        self.qtable.value(self._prev_state, self._prev_action)
                    ),
                )

        # Bookkeeping of the learning phases: note when exploration
        # ends, and capture the static second Q-table once the agent
        # enters pure exploitation (the table is fully trained then; a
        # snapshot taken at the very end of round-robin exploration
        # would restore a half-learned policy on intra-application
        # variation).
        if self.schedule.exploration_just_ended():
            self.stats.exploration_end_epoch = self.stats.epochs
        if (
            not self.qtable.has_exploration_snapshot
            and self.schedule.phase is LearningPhase.EXPLOITATION
        ):
            self.qtable.capture_exploration()
            if self.stats.exploitation_entry_epoch is None:
                self.stats.exploitation_entry_epoch = self.stats.epochs

        # 4. Select the next action.  During exploration the agent
        # cycles through the whole action menu ("selects action
        # arbitrarily to determine the corresponding reward") so every
        # action's reward lands in the table; afterwards it is
        # epsilon-greedy with epsilon tied to alpha.
        if (
            self.schedule.phase is LearningPhase.EXPLORATION
            or self.schedule.epoch < len(self.actions)
        ):
            action = self.schedule.epoch % len(self.actions)
        elif self._rng.random() < self.schedule.epsilon:
            action = int(self._rng.integers(len(self.actions)))
        else:
            action = self.qtable.best_action(state)
            if (
                self._prev_action is not None
                and self.qtable.value(state, self._prev_action)
                >= self.qtable.value(state, action) - ACTION_HYSTERESIS
            ):
                action = self._prev_action

        # 5. Learning-rate update and bookkeeping.
        self.schedule.advance()
        self._prev_state = state
        if self._prev_action is not None and action == self._prev_action:
            self._same_action_count += 1
        else:
            self._same_action_count = 1
        self._prev_action = action
        self._trec.clear()
        self.stats.epochs += 1
        label = self.actions[action].label
        self.stats.last_action_label = label
        self.stats.action_counts[label] = self.stats.action_counts.get(label, 0) + 1
        self._track_convergence()
        if self.obs is not None:
            self.obs.emit(
                "decision",
                now_s,
                epoch=self.stats.epochs - 1,
                state=int(state),
                action=int(action),
                action_label=label,
                phase=self.schedule.phase.value,
                alpha=float(self.schedule.alpha),
            )
        return action

    def _track_convergence(self) -> None:
        """Detect when the greedy policy has stabilised."""
        policy = self.qtable.greedy_policy()
        if self._last_policy is not None and np.array_equal(policy, self._last_policy):
            self._policy_stable_for += 1
        else:
            self._policy_stable_for = 0
            self.stats.last_policy_change_epoch = self.stats.epochs
        self._last_policy = policy
        if (
            self.stats.convergence_epoch is None
            and self._policy_stable_for >= CONVERGENCE_WINDOW
        ):
            self.stats.convergence_epoch = self.stats.epochs - CONVERGENCE_WINDOW

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def phase(self) -> LearningPhase:
        """Current learning phase."""
        return self.schedule.phase
