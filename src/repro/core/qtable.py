"""Q-table with the dual-table mechanism of Section 5.4.

The agent "maintains two Q-Tables — one with static Q values from the end
of the exploration phase and the other with Q values that are updated at
each decision epoch".  :class:`QTable` holds the live table, can snapshot
itself when the exploration phase ends (``capture_exploration``), restore
that snapshot on intra-application variation, and reset to zero on
inter-application variation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class QTable:
    """Dense Q-value table over ``num_states x num_actions``.

    Parameters
    ----------
    num_states:
        Number of discrete environment states.
    num_actions:
        Number of actions.
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = ("_q", "_visits", "_exploration_snapshot")
    #: Construction values, never checkpointed.
    DERIVED_FIELDS = ("num_states", "num_actions")

    def __init__(self, num_states: int, num_actions: int) -> None:
        if num_states <= 0 or num_actions <= 0:
            raise ValueError("table dimensions must be positive")
        self.num_states = num_states
        self.num_actions = num_actions
        self._q = np.zeros((num_states, num_actions))
        self._exploration_snapshot: Optional[np.ndarray] = None
        self._visits = np.zeros((num_states, num_actions), dtype=int)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def value(self, state: int, action: int) -> float:
        """Q(state, action)."""
        return float(self._q[state, action])

    def best_action(self, state: int) -> int:
        """The greedy action of a state (lowest index wins ties).

        For a state that has never been updated the row is all zeros
        and carries no information; instead of defaulting to action 0
        (which can lock the agent into a hot action and induce a policy
        oscillation), the agent generalises: it picks the action with
        the best visit-weighted value across all states.
        """
        if self._visits[state].sum() == 0:
            return self.global_best_action()
        return int(np.argmax(self._q[state]))

    def global_best_action(self) -> int:
        """Action with the best visit-weighted mean value table-wide."""
        visited = self._visits > 0
        if not visited.any():
            return 0
        sums = np.where(visited, self._q, 0.0).sum(axis=0)
        counts = visited.sum(axis=0)
        means = np.where(counts > 0, sums / np.maximum(counts, 1), -np.inf)
        return int(np.argmax(means))

    def best_value(self, state: int) -> float:
        """max_a Q(state, a)."""
        return float(np.max(self._q[state]))

    def greedy_policy(self) -> np.ndarray:
        """The greedy action per state (for convergence tracking)."""
        return np.argmax(self._q, axis=1)

    # ------------------------------------------------------------------
    # Updates (Eq. 7)
    # ------------------------------------------------------------------

    def update(
        self,
        state: int,
        action: int,
        reward: float,
        next_state: int,
        alpha: float,
        gamma: float,
    ) -> float:
        """Apply the Q-learning update of Eq. 7 and return the new value.

        ``Q(E_i, a_i) += alpha * (R + gamma * max_a Q(E_{i+1}, a) -
        Q(E_i, a_i))``.
        """
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        delta = reward + gamma * self.best_value(next_state) - self._q[state, action]
        self._q[state, action] += alpha * delta
        self._visits[state, action] += 1
        return float(self._q[state, action])

    # ------------------------------------------------------------------
    # Dual-table mechanism (Section 5.4)
    # ------------------------------------------------------------------

    def capture_exploration(self) -> None:
        """Snapshot the live table as the end-of-exploration table."""
        self._exploration_snapshot = self._q.copy()

    @property
    def has_exploration_snapshot(self) -> bool:
        """Whether an end-of-exploration snapshot exists."""
        return self._exploration_snapshot is not None

    def restore_exploration(self) -> bool:
        """Restore the exploration snapshot (intra-application variation).

        Returns
        -------
        bool
            True if a snapshot existed and was restored.
        """
        if self._exploration_snapshot is None:
            return False
        self._q = self._exploration_snapshot.copy()
        return True

    def reset(self) -> None:
        """Zero the table and forget the snapshot (inter-application)."""
        self._q = np.zeros((self.num_states, self.num_actions))
        self._visits = np.zeros((self.num_states, self.num_actions), dtype=int)
        self._exploration_snapshot = None

    def as_array(self) -> np.ndarray:
        """The full table (a copy) for inspection and tests."""
        return self._q.copy()
