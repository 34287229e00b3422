"""Tests for the Q-table and its dual-table mechanism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qtable import QTable


def total_visits(table: QTable) -> int:
    """Total update count across ``table``."""
    return int(table._visits.sum())


def test_starts_at_zero():
    table = QTable(3, 4)
    assert np.all(table.as_array() == 0.0)
    assert total_visits(table) == 0


def test_update_matches_eq7():
    table = QTable(2, 2)
    table.update(0, 0, reward=1.0, next_state=1, alpha=0.5, gamma=0.5)
    # Q = 0 + 0.5 * (1 + 0.5*0 - 0) = 0.5
    assert table.value(0, 0) == pytest.approx(0.5)
    table.update(1, 1, reward=0.0, next_state=0, alpha=1.0, gamma=0.5)
    # max Q(0, .) = 0.5 -> Q(1,1) = 0 + 1*(0 + 0.25 - 0)
    assert table.value(1, 1) == pytest.approx(0.25)


def test_update_validates_rates():
    table = QTable(2, 2)
    with pytest.raises(ValueError):
        table.update(0, 0, 1.0, 0, alpha=1.5, gamma=0.5)
    with pytest.raises(ValueError):
        table.update(0, 0, 1.0, 0, alpha=0.5, gamma=-0.1)


def test_best_action_of_visited_state():
    table = QTable(2, 3)
    table.update(0, 2, reward=2.0, next_state=0, alpha=1.0, gamma=0.0)
    table.update(0, 1, reward=1.0, next_state=0, alpha=1.0, gamma=0.0)
    assert table.best_action(0) == 2
    assert table.best_value(0) == pytest.approx(2.0)


def test_unvisited_state_generalises():
    """An unvisited state's greedy action is the globally best-known
    action, not blindly action 0."""
    table = QTable(3, 3)
    table.update(0, 1, reward=3.0, next_state=0, alpha=1.0, gamma=0.0)
    assert table.best_action(2) == 1  # state 2 never visited
    assert table.global_best_action() == 1


def test_global_best_of_empty_table():
    assert QTable(2, 2).global_best_action() == 0


def test_snapshot_restore_cycle():
    table = QTable(2, 2)
    table.update(0, 0, 1.0, 0, alpha=1.0, gamma=0.0)
    assert not table.has_exploration_snapshot
    assert not table.restore_exploration()
    table.capture_exploration()
    table.update(0, 0, -5.0, 0, alpha=1.0, gamma=0.0)
    assert table.value(0, 0) < 0.0
    assert table.restore_exploration()
    assert table.value(0, 0) == pytest.approx(1.0)


def test_reset_clears_everything():
    table = QTable(2, 2)
    table.update(0, 0, 1.0, 0, alpha=1.0, gamma=0.0)
    table.capture_exploration()
    table.reset()
    assert np.all(table.as_array() == 0.0)
    assert total_visits(table) == 0
    assert not table.has_exploration_snapshot


def test_greedy_policy_shape():
    table = QTable(4, 3)
    policy = table.greedy_policy()
    assert policy.shape == (4,)


def test_visits_counted():
    table = QTable(2, 2)
    table.update(1, 0, 1.0, 0, alpha=0.5, gamma=0.5)
    table.update(1, 0, 1.0, 0, alpha=0.5, gamma=0.5)
    assert table._visits[1, 0] == 2
    assert total_visits(table) == 2


def test_dimension_validation():
    with pytest.raises(ValueError):
        QTable(0, 2)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=3),
            st.floats(min_value=-2.0, max_value=2.0),
            st.integers(min_value=0, max_value=2),
        ),
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_q_values_bounded_by_reward_geometry(updates):
    """With |R| <= 2 and gamma = 0.5, |Q| stays below |R|max/(1-gamma)."""
    table = QTable(3, 4)
    for state, action, reward, next_state in updates:
        table.update(state, action, reward, next_state, alpha=0.7, gamma=0.5)
    assert np.all(np.abs(table.as_array()) <= 2.0 / (1.0 - 0.5) + 1e-9)


@given(st.integers(min_value=1, max_value=30))
@settings(max_examples=30, deadline=None)
def test_fixed_point_convergence(n):
    """Repeated updates with a constant reward converge to R/(1-gamma)
    when the state loops on itself and the action is greedy."""
    table = QTable(1, 1)
    for _ in range(200):
        table.update(0, 0, float(n) / 30.0, 0, alpha=0.5, gamma=0.5)
    assert table.value(0, 0) == pytest.approx((n / 30.0) / 0.5, rel=1e-3)
