"""Moving-average workload-variation detection (Section 5.4).

At the start of every decision epoch the agent maintains moving averages
``MA_s`` / ``MA_a`` of the (normalised) stress and aging and measures the
deviation of the newest observation from the trend:

.. math::

    \\Delta MA = x_t - MA_{t-1}

* a *sustained* deviation — two consecutive epochs beyond the upper
  threshold **with the same sign** on the same axis, or a single very
  large jump — is an **inter-application** variation (an application
  switch): the Q-table is reset to zero and alpha to 1 so the agent
  re-learns from scratch;
* a moderate deviation (between the lower and upper thresholds), or a
  single-epoch spike, is an **intra-application** variation: the Q-table
  is restored from the end-of-exploration snapshot and alpha resumes
  from ``alpha_exp``.

The same-sign requirement distinguishes a level shift (a different
application's thermal signature) from the alternating swings the agent's
own exploration produces.  This is how the proposed approach detects
application switches *autonomously*, without any notification from the
application layer — the property Figure 3's comparison against the
"modified" Ge & Qiu baseline isolates.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.config import AgentConfig
from repro.core.state import EpochObservation

#: A single-epoch jump this many times the upper threshold is an
#: immediate inter-application trigger.
IMMEDIATE_JUMP_FACTOR = 2.5


class VariationKind(enum.Enum):
    """Classification of the epoch-to-epoch workload change."""

    NONE = "none"
    INTRA = "intra"
    INTER = "inter"


@dataclass(frozen=True)
class VariationReport:
    """Detection outcome of one epoch."""

    kind: VariationKind
    delta_stress_ma: float
    delta_aging_ma: float


class VariationDetector:
    """Moving-average deviation detector over epoch observations.

    Parameters
    ----------
    config:
        Agent hyper-parameters (window length and the four thresholds).
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = ("_stress", "_aging", "_pending_stress_sign", "_pending_aging_sign")
    #: Construction values, never checkpointed.
    DERIVED_FIELDS = ("config",)

    def __init__(self, config: AgentConfig) -> None:
        if config.ma_window < 1:
            raise ValueError("moving-average window must be >= 1")
        self.config = config
        self._stress: Deque[float] = deque(maxlen=config.ma_window)
        self._aging: Deque[float] = deque(maxlen=config.ma_window)
        self._pending_stress_sign: Optional[float] = None
        self._pending_aging_sign: Optional[float] = None

    def reset(self) -> None:
        """Forget all history (after an inter-application event)."""
        self._stress.clear()
        self._aging.clear()
        self._pending_stress_sign: Optional[float] = None
        self._pending_aging_sign: Optional[float] = None

    def observe(
        self, observation: EpochObservation, action_stable: bool = True
    ) -> VariationReport:
        """Ingest one epoch and classify the change.

        Parameters
        ----------
        observation:
            The epoch's normalised stress/aging.
        action_stable:
            Whether the agent held the *same* action over the last two
            epochs.  A thermal shift that coincides with the agent's own
            actuation change is self-induced, not a workload change, so
            only deviations that appear under a stable action can open
            an inter-application trigger.

        Returns
        -------
        VariationReport
            ``INTER`` dominates ``INTRA`` when both would trigger.
        """
        cfg = self.config
        if not self._stress:
            # First observation: establish the trend, no classification.
            self._stress.append(observation.stress_norm)
            self._aging.append(observation.aging_norm)
            return VariationReport(VariationKind.NONE, 0.0, 0.0)

        stress_ma = sum(self._stress) / len(self._stress)
        aging_ma = sum(self._aging) / len(self._aging)
        dev_s = observation.stress_norm - stress_ma
        dev_a = observation.aging_norm - aging_ma

        inter = action_stable and (
            abs(dev_s) >= IMMEDIATE_JUMP_FACTOR * cfg.stress_ma_upper
            or abs(dev_a) >= IMMEDIATE_JUMP_FACTOR * cfg.aging_ma_upper
        )
        # Second same-sign deviation confirms a pending level shift (the
        # confirming epoch may legitimately carry an action change — the
        # agent starts reacting to the new workload).
        if self._pending_stress_sign is not None:
            if abs(dev_s) >= cfg.stress_ma_upper and (
                (dev_s > 0.0) == (self._pending_stress_sign > 0.0)
            ):
                inter = True
            self._pending_stress_sign = None
        if self._pending_aging_sign is not None:
            if abs(dev_a) >= cfg.aging_ma_upper and (
                (dev_a > 0.0) == (self._pending_aging_sign > 0.0)
            ):
                inter = True
            self._pending_aging_sign = None
        # A first above-threshold deviation opens a pending trigger only
        # when the agent did not just change its own action.
        if action_stable:
            if abs(dev_s) >= cfg.stress_ma_upper:
                self._pending_stress_sign = dev_s
            if abs(dev_a) >= cfg.aging_ma_upper:
                self._pending_aging_sign = dev_a

        intra = (
            cfg.stress_ma_lower <= abs(dev_s)
            or cfg.aging_ma_lower <= abs(dev_a)
        )

        # While a pending trigger awaits confirmation the moving-average
        # reference is frozen: absorbing the deviating sample would
        # shrink the second deviation below threshold and mask genuine
        # level shifts.
        if self._pending_stress_sign is None and self._pending_aging_sign is None:
            self._stress.append(observation.stress_norm)
            self._aging.append(observation.aging_norm)

        if inter:
            kind = VariationKind.INTER
        elif intra:
            kind = VariationKind.INTRA
        else:
            kind = VariationKind.NONE
        return VariationReport(kind, dev_s, dev_a)
