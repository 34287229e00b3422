"""Learning-rate schedule and learning phases (Section 5.3).

The algorithm passes through three phases:

* **exploration** — alpha close to 1, actions chosen (mostly) randomly;
* **exploration-exploitation** — best actions selected, Q-table still
  updated with part of the reward;
* **exploitation** — greedy actions, negligible table updates.

Transitions are driven by an exponentially decreasing alpha,
``alpha(i) = exp(-i / tau)`` in the epoch index ``i`` (the paper's
``UpdateLearningRate`` subroutine).  The exploration probability
(epsilon) is tied to alpha, so exploration fades in lockstep.

``tau`` scales with the square root of the Q-table size so that larger
state/action spaces get proportionally longer exploration — the paper's
requirement that "a significant fraction of the reward values contribute
towards the Q-Table entries" before exploitation, and the mechanism
behind the Figure 8 convergence trend.
"""

from __future__ import annotations

import enum
import math


class LearningPhase(enum.Enum):
    """The three phases of Section 5.3."""

    EXPLORATION = "exploration"
    EXPLORATION_EXPLOITATION = "exploration-exploitation"
    EXPLOITATION = "exploitation"


#: Alpha above which the agent is considered purely exploring.
EXPLORATION_ALPHA = 0.5

#: Reference table size (9 states x 8 actions) at which ``tau`` equals
#: the configured ``alpha_decay_epochs``.
REFERENCE_TABLE_SIZE = 72.0


class AlphaSchedule:
    """Exponentially decaying learning rate with phase bookkeeping.

    Parameters
    ----------
    decay_epochs:
        Base time constant ``tau`` (in epochs) at the reference table
        size.
    exploit_threshold:
        Alpha below which the agent is in pure exploitation.
    table_size:
        ``num_states * num_actions``; scales the time constant.
    alpha_intra:
        Alpha restored on intra-application variation (Section 5.4).
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = ("_alpha", "_epoch", "_exploration_captured")
    #: Construction values, never checkpointed.
    DERIVED_FIELDS = ("tau", "exploit_threshold", "alpha_intra")

    def __init__(
        self,
        decay_epochs: float,
        exploit_threshold: float,
        table_size: int,
        alpha_intra: float = 0.3,
    ) -> None:
        if decay_epochs <= 0.0:
            raise ValueError("decay_epochs must be positive")
        if not 0.0 < exploit_threshold < EXPLORATION_ALPHA:
            raise ValueError("exploit threshold must be in (0, 0.5)")
        self.tau = decay_epochs * math.sqrt(table_size / REFERENCE_TABLE_SIZE)
        self.exploit_threshold = exploit_threshold
        self.alpha_intra = alpha_intra
        self._alpha = 1.0
        self._epoch = 0
        self._exploration_captured = False

    @property
    def alpha(self) -> float:
        """The current learning rate."""
        return self._alpha

    @property
    def epoch(self) -> int:
        """Number of decision epochs since the last (re)start."""
        return self._epoch

    @property
    def phase(self) -> LearningPhase:
        """The current learning phase."""
        if self._alpha > EXPLORATION_ALPHA:
            return LearningPhase.EXPLORATION
        if self._alpha > self.exploit_threshold:
            return LearningPhase.EXPLORATION_EXPLOITATION
        return LearningPhase.EXPLOITATION

    @property
    def epsilon(self) -> float:
        """Exploration probability, tied to alpha.

        Zero in the exploitation phase: the paper's exploitation phase
        "still selects the action corresponding to the highest Q-value",
        with no residual exploration — an exploratory thermal excursion
        would undo the cycling control the agent has learned.
        """
        if self.phase is LearningPhase.EXPLOITATION:
            return 0.0
        return max(0.05, min(1.0, self._alpha))

    def advance(self) -> float:
        """Advance one decision epoch; returns the new alpha.

        This is the ``UpdateLearningRate`` subroutine of Algorithm 1.
        """
        self._epoch += 1
        self._alpha = math.exp(-self._epoch / self.tau)
        return self._alpha

    def exploration_just_ended(self) -> bool:
        """True exactly once, when the exploration phase first ends.

        The agent uses this to capture the end-of-exploration Q-table
        snapshot (Section 5.4).
        """
        if self._exploration_captured:
            return False
        if self.phase is not LearningPhase.EXPLORATION:
            self._exploration_captured = True
            return True
        return False

    # ------------------------------------------------------------------
    # Variation responses (Section 5.4)
    # ------------------------------------------------------------------

    def restart_intra(self) -> None:
        """Intra-application variation: resume from ``alpha_intra``."""
        self._alpha = self.alpha_intra
        self._epoch = max(1, int(round(-self.tau * math.log(self.alpha_intra))))

    def restart_inter(self) -> None:
        """Inter-application variation: full re-learning from alpha = 1."""
        self._alpha = 1.0
        self._epoch = 0
        self._exploration_captured = False
