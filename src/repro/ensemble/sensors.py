"""Batched evaluation-path sensor bank.

Mirrors :class:`repro.thermal.sensors.SensorBank` for the *evaluation*
sensors (the per-second thermal-profile readings).  The management-path
banks stay scalar objects — they are only read when a member's manager
fires, through the :class:`~repro.ensemble.member_view.MemberView` — but the
evaluation read happens for every member every evaluation tick, so it is
worth batching.

Noise draws reuse each member's own eval-sensor Generator through a
chunked ``(chunk, cores)`` buffer: a ``size=(k, cores)`` draw is
bit-identical to ``k`` successive ``size=cores`` draws.  Members share
the eval schedule, so their low-pass filters (``SensorConfig.ema_tau_s``)
step in lockstep as one ``(m, c)`` state array.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.config import SensorConfig
from repro.thermal.sensors import ema_alpha, sensor_reading

#: Eval reads buffered per refill.
_CHUNK = 64


class BatchedEvalSensors:
    """All members' evaluation sensors, read in one vectorized call."""

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = ("_rngs", "_chunk", "_cursor", "_ema")
    #: Construction values, never checkpointed.
    DERIVED_FIELDS = ("config", "num_members", "num_cores", "_ema_alpha")

    def __init__(
        self,
        config: SensorConfig,
        num_members: int,
        num_cores: int,
        sample_period_s: float,
    ) -> None:
        self.config = config
        self.num_members = num_members
        self.num_cores = num_cores
        self._rngs: List[np.random.Generator] = []
        self._chunk = np.zeros((num_members, _CHUNK, num_cores), dtype=np.float64)
        self._cursor = _CHUNK
        self._ema: Optional[np.ndarray] = None
        self._ema_alpha = ema_alpha(config, sample_period_s)

    def adopt_rng(self, rng: np.random.Generator) -> None:
        self._rngs.append(rng)

    def reset(self) -> None:
        """Clear the filter state, as :meth:`SensorBank.reset` does."""
        self._ema = None

    def _next_noise(self) -> np.ndarray:
        if self._cursor >= _CHUNK:
            for m, rng in enumerate(self._rngs):
                self._chunk[m] = rng.normal(
                    0.0, self.config.noise_std_c, size=(_CHUNK, self.num_cores)
                )
            self._cursor = 0
        noise = self._chunk[:, self._cursor, :]
        self._cursor += 1
        return noise

    def read(self, true_temps: np.ndarray) -> np.ndarray:
        """One reading per member per core; ``true_temps`` is (m, c)."""
        readings, self._ema = sensor_reading(
            self.config, true_temps, self._next_noise, self._ema, self._ema_alpha
        )
        return readings
