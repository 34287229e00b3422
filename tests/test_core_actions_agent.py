"""Tests for the action space and the learning agent."""

import numpy as np
import pytest

from repro.core.actions import Action, ActionSpace, build_action_space, default_action_space
from repro.core.agent import QLearningThermalAgent
from repro.core.schedule import LearningPhase
from repro.units import ghz

from tests.test_core_qtable import total_visits


# ---------------------------------------------------------------------------
# Action space
# ---------------------------------------------------------------------------


def test_default_space_has_eight_actions():
    space = default_action_space()
    assert len(space) == 8
    assert len(set(space.labels())) == 8


def test_build_sizes():
    for size in (2, 4, 8, 12):
        assert len(build_action_space(size)) == size


def test_build_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_action_space(1)
    with pytest.raises(ValueError):
        build_action_space(99)


def test_action_labels_and_mapping():
    action = Action("spread_rr", "userspace", ghz(2.4))
    assert action.label == "spread_rr+userspace@2.4GHz"
    mapping = action.mapping(6)
    assert mapping is not None and mapping.num_threads == 6


def test_os_default_action_has_no_mapping():
    action = Action("os_default", "ondemand")
    assert action.mapping(6) is None
    assert action.label == "os_default+ondemand"


def test_space_index_of():
    space = default_action_space()
    label = space[3].label
    assert space.index_of(label) == 3
    with pytest.raises(KeyError):
        space.index_of("nope")


def test_space_rejects_duplicates():
    action = Action("os_default", "ondemand")
    with pytest.raises(ValueError):
        ActionSpace([action, action])


def test_default_space_covers_both_knobs():
    """The space exercises both affinity mappings and governors."""
    space = default_action_space()
    mappings = {a.mapping_name for a in space}
    governors = {a.governor for a in space}
    assert len(mappings) >= 3
    assert {"ondemand", "powersave", "userspace"} <= governors


# ---------------------------------------------------------------------------
# Agent (Algorithm 1)
# ---------------------------------------------------------------------------


@pytest.fixture
def agent(agent_config, reliability):
    return QLearningThermalAgent(agent_config, reliability)


def feed_epoch(agent, temps):
    """Push one epoch's worth of identical sample vectors."""
    for _ in range(agent.samples_per_epoch):
        agent.record_sample(temps)


def test_samples_per_epoch(agent, agent_config):
    expected = round(agent_config.decision_epoch_s / agent_config.sampling_interval_s)
    assert agent.samples_per_epoch == expected


def test_decide_requires_full_epoch(agent):
    agent.record_sample([40.0] * 4)
    assert not agent.epoch_ready
    with pytest.raises(RuntimeError):
        agent.decide(1.0, 0.5)


def test_decide_returns_valid_action(agent):
    feed_epoch(agent, [40.0] * 4)
    action = agent.decide(1.0, 0.5)
    assert 0 <= action < len(agent.actions)
    assert agent.stats.epochs == 1
    assert not agent.epoch_ready  # TRec cleared


def test_round_robin_exploration_covers_all_actions(agent):
    chosen = []
    for _ in range(len(agent.actions)):
        feed_epoch(agent, [40.0] * 4)
        chosen.append(agent.decide(1.0, 0.5))
    assert sorted(chosen) == list(range(len(agent.actions)))


def test_agent_reaches_exploitation(agent):
    for _ in range(60):
        feed_epoch(agent, [40.0] * 4)
        agent.decide(1.0, 0.5)
    assert agent.phase is LearningPhase.EXPLOITATION
    assert agent.qtable.has_exploration_snapshot


def test_hot_epochs_counted_unsafe(agent):
    for _ in range(12):
        feed_epoch(agent, [78.0] * 4)
        agent.decide(1.0, 0.5)
    assert agent.stats.unsafe_epochs > 0
    assert agent.stats.reward_sum < 0.0


def test_greedy_prefers_rewarded_action(agent_config, reliability):
    """After learning, the greedy choice in the cool state is an action
    whose epochs were cool, not one whose epochs were hot."""
    agent = QLearningThermalAgent(agent_config, reliability)
    # Alternate: even actions produce cool epochs, odd actions hot ones.
    last_action = None
    for _ in range(60):
        temps = [40.0] * 4 if (last_action is None or last_action % 2 == 0) else [72.0] * 4
        feed_epoch(agent, temps)
        last_action = agent.decide(1.0, 0.5)
    # In exploitation the agent should be holding an even (cool) action.
    assert last_action % 2 == 0


def test_inter_reset_on_level_shift(agent):
    """A sustained shift after convergence resets the Q-table."""
    for _ in range(30):
        feed_epoch(agent, [62.0] * 4)
        agent.decide(1.0, 0.5)
    assert agent.stats.inter_events == 0
    before = total_visits(agent.qtable)
    for _ in range(4):
        feed_epoch(agent, [35.0] * 4)
        agent.decide(1.0, 0.5)
    assert agent.stats.inter_events == 1
    assert total_visits(agent.qtable) < before  # table was reset


def test_stats_dict_keys(agent):
    feed_epoch(agent, [40.0] * 4)
    agent.decide(1.0, 0.5)
    stats = agent.stats.as_dict()
    for key in (
        "epochs",
        "inter_events",
        "intra_events",
        "mean_reward",
        "convergence_epoch",
        "last_policy_change_epoch",
    ):
        assert key in stats


def test_action_hysteresis_prevents_flip_flop(agent_config, reliability):
    """Two near-equal actions must not alternate under greedy choice."""
    agent = QLearningThermalAgent(agent_config, reliability)
    rng = np.random.default_rng(3)
    for step in range(80):
        # Observations hover around a bin boundary.
        base = 41.0 + float(rng.normal(0.0, 0.4))
        feed_epoch(agent, [base] * 4)
        agent.decide(1.0, 0.5)
    # During exploitation, measure action changes over 20 more epochs.
    changes = 0
    prev = None
    for _ in range(20):
        base = 41.0 + float(rng.normal(0.0, 0.4))
        feed_epoch(agent, [base] * 4)
        action = agent.decide(1.0, 0.5)
        if prev is not None and action != prev:
            changes += 1
        prev = action
    assert changes <= 2
