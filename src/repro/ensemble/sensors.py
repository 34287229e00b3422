"""Batched evaluation-path sensor bank.

Mirrors :class:`repro.thermal.sensors.SensorBank` for the *evaluation*
sensors (the per-second thermal-profile readings).  The management-path
banks stay scalar objects — they are only read when a member's manager
fires, through the :class:`~repro.ensemble.member_view.MemberView` — but the
evaluation read happens for every member every evaluation tick, so it is
worth batching.

Noise draws reuse each member's own eval-sensor Generator through a
chunked ``(chunk, cores)`` buffer: a ``size=(k, cores)`` draw is
bit-identical to ``k`` successive ``size=cores`` draws.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.config import SensorConfig

#: Eval reads buffered per refill.
_CHUNK = 64


class BatchedEvalSensors:
    """All members' evaluation sensors, read in one vectorized call."""

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = ("_rngs", "_chunk", "_cursor")
    #: Construction values, never checkpointed.
    DERIVED_FIELDS = ("config", "num_members", "num_cores")

    def __init__(
        self, config: SensorConfig, num_members: int, num_cores: int
    ) -> None:
        self.config = config
        self.num_members = num_members
        self.num_cores = num_cores
        m, c = num_members, num_cores
        if config.ema_tau_s > 0.0:
            # Eval sensors sample once per evaluation period; the scalar
            # bank computes alpha from its construction-time period.
            raise ValueError(
                "ensemble eval sensors do not support EMA filtering "
                "(ema_tau_s > 0); the default platform disables it"
            )
        self._rngs: List[np.random.Generator] = []
        self._chunk = np.zeros((m, _CHUNK, c), dtype=np.float64)
        self._cursor = _CHUNK

    def adopt_rng(self, rng: np.random.Generator) -> None:
        self._rngs.append(rng)

    def read(self, true_temps: np.ndarray) -> np.ndarray:
        """One reading per member per core; ``true_temps`` is (m, c)."""
        config = self.config
        readings = true_temps.copy()
        if config.noise_std_c > 0.0:
            if self._cursor >= _CHUNK:
                for m, rng in enumerate(self._rngs):
                    self._chunk[m] = rng.normal(
                        0.0, config.noise_std_c, size=(_CHUNK, self.num_cores)
                    )
                self._cursor = 0
            readings += self._chunk[:, self._cursor, :]
            self._cursor += 1
        if config.quantisation_c > 0.0:
            step = config.quantisation_c
            readings /= step
            np.round(readings, out=readings)
            readings *= step
        return np.clip(readings, config.min_c, config.max_c, out=readings)
