"""Batched dual-Q learning agents.

Stacks the dual Q-tables of a uniform group of
:class:`~repro.core.agent.QLearningThermalAgent` members into
``(members, states, actions)`` arrays so that an epoch harvest — all
members whose decision epoch completes on the same tick — runs the
Eq. 7 TD update, the ``max_a Q`` lookahead and the greedy-policy
convergence scan as masked vector kernels instead of per-member Python.

Bit-faithfulness contract (the same one the data plane obeys):

* The TD kernel gathers ``Q[m, s_prev, a_prev]`` with fancy indexing and
  applies exactly the scalar sequence ``delta = r + gamma * max_a
  Q[m, s'] - Q[m, s, a]; Q[m, s, a] += alpha * delta`` — elementwise
  ufuncs on the gathered vectors perform the identical IEEE operations
  per member, and ``np.max`` over a Q row is exact regardless of
  batching (a comparison reduction does not round).
* Everything stateful-but-cheap stays on the *real scalar objects*:
  the per-member :class:`~repro.core.schedule.AlphaSchedule` (``math.exp``
  per epoch), :class:`~repro.core.variation.VariationDetector`,
  :class:`~repro.core.reward.RewardFunction` evaluation,
  :class:`~repro.core.state.StateSpace` observation, agent statistics
  and the exploration RNG.  Per-member RNG draws happen in the exact
  scalar draw order (each member owns an independent generator, so only
  the within-member sequence matters).
* ``np.argmax`` (first-occurrence ties) mirrors the scalar tie-break in
  both the greedy action and the convergence policy scan.

The scalar ``agent.qtable`` / ``agent._trec`` attributes go stale while
the stacked arrays are live; :meth:`BatchedAgents.sync_out` writes them
back (and :meth:`sync_in` re-adopts them) so a checkpoint of the ensemble reads
and writes the scalar agents' declared state unchanged.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.agent import (
    ACTION_HYSTERESIS,
    CONVERGENCE_WINDOW,
    EXPLOITATION_ALPHA_FLOOR,
    INTER_COOLDOWN_EPOCHS,
    QLearningThermalAgent,
)
from repro.core.schedule import LearningPhase
from repro.core.variation import VariationKind, VariationReport


class BatchedAgents:
    """Stacked dual Q-tables for a uniform group of learning agents.

    Parameters
    ----------
    agents:
        The scalar agents, one per batched member.  All must share the
        same state-space size, action-menu size and samples-per-epoch
        (validated by the caller); everything else may differ.
    num_cores:
        Width of a sensor sample (the TRec buffer's last axis).
    """

    #: No checkpointed state of its own: :meth:`sync_out` writes the
    #: stacked arrays onto the scalar agents, which the members'
    #: managers checkpoint, and :meth:`sync_in` re-adopts them.
    STATE_FIELDS = ()
    DERIVED_FIELDS = (
        "agents",
        "num_states",
        "num_actions",
        "samples_per_epoch",
        "q3",
        "visits3",
        "snap3",
        "has_snap",
        "trec",
        "trec_len",
        "gamma",
    )

    def __init__(
        self, agents: Sequence[QLearningThermalAgent], num_cores: int
    ) -> None:
        self.agents: List[QLearningThermalAgent] = list(agents)
        reference = self.agents[0]
        self.num_states = reference.states.num_states
        self.num_actions = len(reference.actions)
        self.samples_per_epoch = reference.samples_per_epoch
        b, s, a = len(self.agents), self.num_states, self.num_actions
        self.q3 = np.zeros((b, s, a), dtype=np.float64)
        self.visits3 = np.zeros((b, s, a), dtype=np.int64)
        self.snap3 = np.zeros((b, s, a), dtype=np.float64)
        self.has_snap = np.zeros(b, dtype=bool)
        self.trec = np.zeros(
            (b, self.samples_per_epoch, num_cores), dtype=np.float64
        )
        self.trec_len = np.zeros(b, dtype=np.int64)
        self.gamma = np.asarray(
            [agent.config.discount for agent in self.agents], dtype=np.float64
        )
        self.sync_in()

    # ------------------------------------------------------------------
    # Scalar-facade synchronisation
    # ------------------------------------------------------------------
    def sync_in(self) -> None:
        """Adopt the scalar agents' live state into the stacked arrays."""
        for slot, agent in enumerate(self.agents):
            table = agent.qtable
            self.q3[slot] = table._q
            self.visits3[slot] = table._visits
            snapshot = table._exploration_snapshot
            self.has_snap[slot] = snapshot is not None
            if snapshot is not None:
                self.snap3[slot] = snapshot
            self.trec_len[slot] = len(agent._trec)
            for index, sample in enumerate(agent._trec):
                self.trec[slot, index] = sample

    def sync_out(self) -> None:
        """Write the stacked state back onto the scalar agents.

        After this call every state field of the scalar agents agrees
        with what the member's scalar twin would hold at the same tick.
        """
        for slot, agent in enumerate(self.agents):
            table = agent.qtable
            table._q = self.q3[slot].copy()
            table._visits = self.visits3[slot].copy()
            table._exploration_snapshot = (
                self.snap3[slot].copy() if self.has_snap[slot] else None
            )
            agent._trec = [
                self.trec[slot, index].copy()
                for index in range(int(self.trec_len[slot]))
            ]

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def record_samples(self, slots: np.ndarray, readings: np.ndarray) -> None:
        """Push one sensor sample per slot into the TRec buffers."""
        self.trec[slots, self.trec_len[slots]] = readings
        self.trec_len[slots] += 1

    def epoch_ready(self, slots: np.ndarray) -> np.ndarray:
        """The subset of ``slots`` whose decision epoch just filled."""
        return slots[self.trec_len[slots] >= self.samples_per_epoch]

    # ------------------------------------------------------------------
    # Q-table row helpers (scalar semantics on stacked rows)
    # ------------------------------------------------------------------
    def _best_action(self, slot: int, state: int) -> int:
        """``QTable.best_action`` on a stacked row (same tie-breaks)."""
        if self.visits3[slot, state].sum() == 0:
            return self._global_best_action(slot)
        return int(np.argmax(self.q3[slot, state]))

    def _global_best_action(self, slot: int) -> int:
        """``QTable.global_best_action`` on a stacked row."""
        visits = self.visits3[slot]
        visited = visits > 0
        if not visited.any():
            return 0
        sums = np.where(visited, self.q3[slot], 0.0).sum(axis=0)
        counts = visited.sum(axis=0)
        means = np.where(counts > 0, sums / np.maximum(counts, 1), -np.inf)
        return int(np.argmax(means))

    # ------------------------------------------------------------------
    # The harvested decision epoch
    # ------------------------------------------------------------------
    def decide_batch(
        self,
        slots: Sequence[int],
        performance: Sequence[float],
        constraint: Sequence[float],
        now_s: float,
    ) -> List[int]:
        """Algorithm 1 for every harvested member; returns action indices.

        The scalar ``decide()`` runs its five steps member-by-member;
        here each *step* runs across the harvest, with the expensive
        table operations (TD update, lookahead, convergence argmax)
        batched.  Members are independent (no shared state, independent
        RNGs), so reordering across members preserves bit-identity as
        long as each member's own step order is unchanged.
        """
        agents = self.agents
        num_actions = self.num_actions
        count = len(slots)
        observations = [None] * count
        states = np.empty(count, dtype=np.int64)

        # Steps 1-2: variation handling and state identification (the
        # detector, schedule and state space stay scalar per member; the
        # dual-table responses become stacked row operations).
        for i, slot in enumerate(slots):
            agent = agents[slot]
            stacked = self.trec[slot]
            epoch_series = [
                list(stacked[:, core]) for core in range(stacked.shape[1])
            ]
            observation = agent.states.observe(
                epoch_series,
                agent.config.sampling_interval_s,
                context_samples=agent._prev_epoch_series,
            )
            agent._prev_epoch_series = epoch_series
            agent.last_observation = observation
            observations[i] = observation

            action_stable = agent._same_action_count >= 3
            report = agent.detector.observe(
                observation, action_stable=action_stable
            )
            inter_armed = (
                agent.schedule.epoch >= 2 * num_actions
                and agent.stats.epochs - agent._last_inter_epoch
                >= INTER_COOLDOWN_EPOCHS
            )
            if report.kind is VariationKind.INTER and not inter_armed:
                report = VariationReport(
                    VariationKind.INTRA,
                    report.delta_stress_ma,
                    report.delta_aging_ma,
                )
            if report.kind is VariationKind.INTER:
                # QTable.reset() on the stacked row.
                self.q3[slot].fill(0.0)
                self.visits3[slot].fill(0)
                self.has_snap[slot] = False
                agent.schedule.restart_inter()
                agent.detector.reset()
                agent._prev_state = None
                agent._prev_action = None
                agent._prev_prev_action = None
                agent._same_action_count = 0
                agent._policy_stable_for = 0
                agent._last_policy = None
                agent._last_inter_epoch = agent.stats.epochs
                agent.stats.inter_events += 1
            elif report.kind is VariationKind.INTRA:
                settled = agent.schedule.alpha < agent.config.alpha_intra
                cooled_down = (
                    agent.stats.epochs - agent._last_intra_epoch
                    >= agent.config.ma_window
                )
                if settled and cooled_down and self.has_snap[slot]:
                    # QTable.restore_exploration() on the stacked row.
                    self.q3[slot] = self.snap3[slot]
                    agent.schedule.restart_intra()
                    agent._last_intra_epoch = agent.stats.epochs
                    agent.stats.intra_events += 1
            states[i] = agent.states.state_of(observation)

        # Step 3: reward the previous action and update the Q-tables —
        # the masked, epoch-aligned TD kernel (Eq. 7).  Rewards and the
        # learning-rate floor are evaluated scalar per member (they use
        # ``math.exp``); the table arithmetic is one fancy-indexed pass.
        upd: List[int] = []
        rewards: List[float] = []
        alphas: List[float] = []
        for i, slot in enumerate(slots):
            agent = agents[slot]
            if agent._prev_state is None or agent._prev_action is None:
                continue
            breakdown = agent.reward_fn.evaluate(
                observations[i], performance[i], constraint[i]
            )
            if breakdown.unsafe:
                agent.stats.unsafe_epochs += 1
            agent.stats.reward_sum += breakdown.total
            upd.append(i)
            rewards.append(breakdown.total)
            alphas.append(
                max(agent.schedule.alpha, EXPLOITATION_ALPHA_FLOOR)
            )
        if upd:
            rows = np.asarray([slots[i] for i in upd], dtype=np.int64)
            prev_s = np.asarray(
                [agents[slots[i]]._prev_state for i in upd], dtype=np.int64
            )
            prev_a = np.asarray(
                [agents[slots[i]]._prev_action for i in upd], dtype=np.int64
            )
            next_s = states[upd]
            reward_vec = np.asarray(rewards, dtype=np.float64)
            alpha_vec = np.asarray(alphas, dtype=np.float64)
            best_next = np.max(self.q3[rows, next_s], axis=1)
            gathered = self.q3[rows, prev_s, prev_a]
            delta = reward_vec + self.gamma[rows] * best_next - gathered
            self.q3[rows, prev_s, prev_a] = gathered + alpha_vec * delta
            self.visits3[rows, prev_s, prev_a] = (
                self.visits3[rows, prev_s, prev_a] + 1
            )

        # Step 4-5: phase bookkeeping, action selection (exact scalar
        # RNG draw order per member), schedule advance and statistics.
        chosen: List[int] = []
        for i, slot in enumerate(slots):
            agent = agents[slot]
            schedule = agent.schedule
            state = int(states[i])
            if schedule.exploration_just_ended():
                agent.stats.exploration_end_epoch = agent.stats.epochs
            if (
                not self.has_snap[slot]
                and schedule.phase is LearningPhase.EXPLOITATION
            ):
                self.snap3[slot] = self.q3[slot]
                self.has_snap[slot] = True
                if agent.stats.exploitation_entry_epoch is None:
                    agent.stats.exploitation_entry_epoch = agent.stats.epochs

            if (
                schedule.phase is LearningPhase.EXPLORATION
                or schedule.epoch < num_actions
            ):
                action = schedule.epoch % num_actions
            elif agent._rng.random() < schedule.epsilon:
                action = int(agent._rng.integers(num_actions))
            else:
                action = self._best_action(slot, state)
                if (
                    agent._prev_action is not None
                    and self.q3[slot, state, agent._prev_action]
                    >= self.q3[slot, state, action] - ACTION_HYSTERESIS
                ):
                    action = agent._prev_action

            schedule.advance()
            agent._prev_state = state
            if agent._prev_action is not None and action == agent._prev_action:
                agent._same_action_count += 1
            else:
                agent._same_action_count = 1
            agent._prev_prev_action = agent._prev_action
            agent._prev_action = action
            self.trec_len[slot] = 0
            agent.stats.epochs += 1
            label = agent.actions[action].label
            agent.stats.last_action_label = label
            agent.stats.action_counts[label] = (
                agent.stats.action_counts.get(label, 0) + 1
            )
            chosen.append(action)

        # Convergence tracking: one batched argmax over the harvested
        # tables (axis-2 argmax keeps the scalar first-occurrence
        # tie-break per row), then scalar per-member comparison.
        slot_vec = np.asarray(slots, dtype=np.int64)
        policies = np.argmax(self.q3[slot_vec], axis=2)
        for i, slot in enumerate(slots):
            agent = agents[slot]
            policy = policies[i]
            if agent._last_policy is not None and np.array_equal(
                policy, agent._last_policy
            ):
                agent._policy_stable_for += 1
            else:
                agent._policy_stable_for = 0
                agent.stats.last_policy_change_epoch = agent.stats.epochs
            agent._last_policy = policy.copy()
            if (
                agent.stats.convergence_epoch is None
                and agent._policy_stable_for >= CONVERGENCE_WINDOW
            ):
                agent.stats.convergence_epoch = (
                    agent.stats.epochs - CONVERGENCE_WINDOW
                )
        return chosen
