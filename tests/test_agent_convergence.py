"""Convergence smoke tests for the Q-learning agent (Algorithm 1).

Drives :class:`~repro.core.agent.QLearningThermalAgent` directly with
synthetic temperature epochs, without a simulator, to pin down the
phase machinery end to end:

* the exploration -> exploration-exploitation -> exploitation
  transition fires and the end-of-exploration Q-table snapshot is
  captured;
* an intra-application variation *restores* the snapshot and resumes
  from ``alpha_intra`` (the dual-Q-table restore path);
* an inter-application variation *resets* the table and restarts alpha
  at 1 (the reset path);

plus direct unit tests of the moving-average
:class:`~repro.core.variation.VariationDetector` branches (pending
same-sign confirmation, opposite-sign rejection, action-stability
gating, MA freezing) that integration runs rarely reach.
"""

import copy
import math

import pytest

from repro.config import default_agent_config, default_reliability_config
from repro.core.agent import QLearningThermalAgent
from repro.core.schedule import LearningPhase
from repro.core.state import EpochObservation
from repro.core.variation import (
    IMMEDIATE_JUMP_FACTOR,
    VariationDetector,
    VariationKind,
)

NUM_CORES = 4


def _make_agent():
    return QLearningThermalAgent(
        default_agent_config(), default_reliability_config()
    )


def _run_epoch(agent, temp_c, performance=30.0, constraint=25.0):
    """Feed one flat epoch at ``temp_c`` and run the decision."""
    for _ in range(agent.samples_per_epoch):
        agent.record_sample([temp_c] * NUM_CORES)
    return agent.decide(performance, constraint)


def _aging_norm(agent, temp_c):
    """The aging observation a flat epoch at ``temp_c`` produces."""
    series = [[temp_c] * agent.samples_per_epoch] * NUM_CORES
    return agent.states.observe(
        series, agent.config.sampling_interval_s
    ).aging_norm


def _find_temp(agent, target_low, target_high, reference_norm, start_c):
    """A temperature whose flat-epoch aging deviation from
    ``reference_norm`` lands inside [target_low, target_high)."""
    temp = start_c
    while temp < 120.0:
        dev = _aging_norm(agent, temp) - reference_norm
        if target_low <= dev < target_high:
            return temp
        temp += 0.25
    raise AssertionError(
        f"no flat-epoch temperature gives an aging deviation in "
        f"[{target_low}, {target_high}) from {reference_norm}"
    )


class TestLearningPhaseTransition:
    def test_exploration_to_exploitation(self):
        agent = _make_agent()
        cfg = agent.config
        assert agent.phase is LearningPhase.EXPLORATION
        assert not agent.qtable.has_exploration_snapshot

        round_robin = []
        for _ in range(40):
            round_robin.append(_run_epoch(agent, 42.0))

        # alpha = exp(-epoch/tau) with tau = 8 at the default 72-entry
        # table: exploration ends after ~6 epochs, pure exploitation
        # starts once alpha <= 0.05 (epoch >= 24).
        assert agent.phase is LearningPhase.EXPLOITATION
        assert agent.schedule.alpha <= cfg.alpha_exploit_threshold
        assert agent.stats.exploration_end_epoch is not None
        assert agent.stats.exploitation_entry_epoch is not None
        assert (
            agent.stats.exploration_end_epoch
            < agent.stats.exploitation_entry_epoch
        )
        # The snapshot Q-table was captured on entering exploitation.
        assert agent.qtable.has_exploration_snapshot
        # Early epochs walked the action menu round-robin: the first
        # len(actions) selections are each action exactly once.
        n = len(agent.actions)
        assert round_robin[:n] == list(range(n))
        assert agent.stats.epochs == 40
        assert agent.stats.inter_events == 0

    def test_identical_epochs_converge_to_a_stable_policy(self):
        agent = _make_agent()
        for _ in range(40):
            _run_epoch(agent, 42.0)
        assert agent.stats.convergence_epoch is not None
        # In exploitation epsilon is 0: the action is pinned greedy.
        last = _run_epoch(agent, 42.0)
        for _ in range(5):
            assert _run_epoch(agent, 42.0) == last


class TestIntraRestoreAndInterReset:
    def test_intra_variation_restores_snapshot(self):
        agent = _make_agent()
        cfg = agent.config
        base_c = 42.0
        for _ in range(40):
            _run_epoch(agent, base_c)
        assert agent.stats.intra_events == 0

        # A moderate level shift: deviation between the lower and upper
        # moving-average thresholds classifies as intra-application.
        intra_c = _find_temp(
            agent,
            cfg.aging_ma_lower + 0.005,
            cfg.aging_ma_upper - 0.005,
            _aging_norm(agent, base_c),
            base_c,
        )
        _run_epoch(agent, intra_c)
        assert agent.stats.intra_events == 1
        assert agent.stats.inter_events == 0
        # Alpha resumed from alpha_intra and decayed by the one
        # advance() the decision performed.
        assert agent.schedule.alpha < cfg.alpha_intra
        assert agent.schedule.alpha > cfg.alpha_exploit_threshold
        assert agent.phase is LearningPhase.EXPLORATION_EXPLOITATION
        # The restore path brought back the end-of-exploration snapshot,
        # not a zeroed table, and the snapshot stays available.
        assert agent.qtable.as_array().any()
        assert agent.qtable.has_exploration_snapshot

    def test_inter_variation_resets_learning(self):
        agent = _make_agent()
        cfg = agent.config
        base_c = 42.0
        for _ in range(40):
            _run_epoch(agent, base_c)

        # In exploitation epsilon is 0, so identical epochs hold the
        # greedy action and the action-stability gate is open.
        assert agent._same_action_count >= 3

        # A single huge jump (>= 2.5x the upper threshold) triggers the
        # immediate inter-application path.
        inter_c = _find_temp(
            agent,
            IMMEDIATE_JUMP_FACTOR * cfg.aging_ma_upper + 0.02,
            1.0,
            _aging_norm(agent, base_c),
            base_c,
        )
        # Held for two epochs only, an action may still carry its own
        # thermal drift: the same jump is not yet a workload change.
        recent = copy.deepcopy(agent)
        recent._same_action_count = 2
        _run_epoch(recent, inter_c)
        assert recent.stats.inter_events == 0

        _run_epoch(agent, inter_c)
        assert agent.stats.inter_events == 1
        # Full re-learning: alpha restarted at 1 (one advance applied),
        # snapshot discarded, epoch counter rewound.
        assert agent.phase is LearningPhase.EXPLORATION
        assert agent.schedule.alpha == pytest.approx(
            math.exp(-1.0 / agent.schedule.tau)
        )
        assert not agent.qtable.has_exploration_snapshot
        assert agent.schedule.epoch == 1

        # The agent relearns: drive it back to exploitation at the new
        # operating point and the snapshot is recaptured.
        for _ in range(40):
            _run_epoch(agent, inter_c)
        assert agent.phase is LearningPhase.EXPLOITATION
        assert agent.qtable.has_exploration_snapshot

    def test_inter_not_armed_during_early_learning(self):
        agent = _make_agent()
        base_c = 42.0
        # Only a handful of epochs: schedule.epoch < 2 * num_actions, so
        # an inter-sized jump must NOT reset the table.
        for _ in range(4):
            _run_epoch(agent, base_c)
        _run_epoch(agent, 75.0)
        assert agent.stats.inter_events == 0


class TestVariationDetectorBranches:
    def _obs(self, stress=0.0, aging=0.0):
        return EpochObservation(
            stress_norm=stress,
            aging_norm=aging,
            raw_stress_rate=stress,
            raw_aging_rate=aging,
        )

    def _detector(self):
        return VariationDetector(default_agent_config())

    def test_first_observation_is_never_classified(self):
        detector = self._detector()
        report = detector.observe(self._obs(aging=0.9))
        assert report.kind is VariationKind.NONE

    def test_pending_same_sign_confirmation_fires_inter(self):
        cfg = default_agent_config()
        detector = VariationDetector(cfg)
        detector.observe(self._obs(aging=0.1))
        # First deviation beyond upper: opens a pending trigger, reports
        # intra for now.
        dev = cfg.aging_ma_upper + 0.02
        first = detector.observe(self._obs(aging=0.1 + dev))
        assert first.kind is VariationKind.INTRA
        # Second deviation, same sign: confirmed inter-application —
        # even with action_stable False (the agent may already be
        # reacting to the new workload).
        second = detector.observe(
            self._obs(aging=0.1 + dev), action_stable=False
        )
        assert second.kind is VariationKind.INTER

    def test_pending_opposite_sign_does_not_confirm(self):
        cfg = default_agent_config()
        detector = VariationDetector(cfg)
        detector.observe(self._obs(aging=0.5))
        dev = cfg.aging_ma_upper + 0.02
        assert detector.observe(self._obs(aging=0.5 + dev)).kind is (
            VariationKind.INTRA
        )
        # Opposite-sign swing of the same magnitude: an alternating
        # exploration swing, not a level shift.
        report = detector.observe(self._obs(aging=0.5 - dev))
        assert report.kind is not VariationKind.INTER

    def test_ma_frozen_while_pending(self):
        cfg = default_agent_config()
        detector = VariationDetector(cfg)
        detector.observe(self._obs(aging=0.1))
        dev = cfg.aging_ma_upper + 0.02
        # Open a pending trigger: the deviating sample must NOT be
        # absorbed into the moving average...
        detector.observe(self._obs(aging=0.1 + dev))
        assert list(detector._aging) == [0.1]
        # ...so the confirming epoch still measures the full deviation
        # against the frozen pre-shift reference.
        confirm = detector.observe(self._obs(aging=0.1 + dev))
        assert confirm.delta_aging_ma == pytest.approx(dev)
        assert confirm.kind is VariationKind.INTER

    def test_unstable_action_suppresses_inter(self):
        cfg = default_agent_config()
        detector = VariationDetector(cfg)
        detector.observe(self._obs(aging=0.1))
        jump = IMMEDIATE_JUMP_FACTOR * cfg.aging_ma_upper + 0.05
        # The same jump that would fire immediately under a stable
        # action is demoted when the agent just changed its own action.
        report = detector.observe(
            self._obs(aging=0.1 + jump), action_stable=False
        )
        assert report.kind is not VariationKind.INTER
        # And no pending trigger was opened either.
        assert detector._pending_aging_sign is None

    def test_immediate_jump_fires_inter_when_stable(self):
        cfg = default_agent_config()
        detector = VariationDetector(cfg)
        detector.observe(self._obs(aging=0.1))
        jump = IMMEDIATE_JUMP_FACTOR * cfg.aging_ma_upper + 0.05
        report = detector.observe(self._obs(aging=0.1 + jump))
        assert report.kind is VariationKind.INTER

    def test_reset_forgets_history(self):
        detector = self._detector()
        detector.observe(self._obs(aging=0.4))
        detector.observe(self._obs(aging=0.9))
        detector.reset()
        # Post-reset the next observation re-establishes the trend.
        assert detector.observe(self._obs(aging=0.9)).kind is (
            VariationKind.NONE
        )

    def test_small_deviation_is_none(self):
        cfg = default_agent_config()
        detector = VariationDetector(cfg)
        detector.observe(self._obs(aging=0.3))
        report = detector.observe(
            self._obs(aging=0.3 + cfg.aging_ma_lower / 2)
        )
        assert report.kind is VariationKind.NONE

    def test_window_must_be_positive(self):
        from dataclasses import replace

        # Since the CFG001 coverage pass, the config itself rejects a
        # non-positive window at construction time.
        with pytest.raises(ValueError, match="window"):
            replace(default_agent_config(), ma_window=0)
