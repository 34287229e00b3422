"""On-board digital thermal sensor model.

The controllers never see the true RC-model temperatures; they see what a
Linux ``coretemp`` driver would report: per-core readings quantised to
1 degC with a little measurement noise, refreshed at the configured
sampling interval.  This is the layer that makes the sampling-interval
study of Figure 6 meaningful — coarse sampling loses cycling information
even though the underlying silicon keeps cycling.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.config import SensorConfig


class SensorBank:
    """Per-core digital thermal sensors.

    Parameters
    ----------
    num_cores:
        Number of sensors (one per core).
    config:
        Quantisation/noise/saturation parameters.
    seed:
        Seed of the sensor-noise RNG, so any run is reproducible.
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = ("_rng", "_ema")
    #: Construction values, never checkpointed.
    DERIVED_FIELDS = ("num_cores", "config", "_ema_alpha")

    def __init__(
        self,
        num_cores: int,
        config: SensorConfig,
        seed: int = 0,
        sample_period_s: float = 1.0,
    ) -> None:
        if num_cores <= 0:
            raise ValueError("need at least one sensor")
        self.num_cores = num_cores
        self.config = config
        self._rng = np.random.default_rng(seed)
        self._ema: np.ndarray | None = None
        if config.ema_tau_s > 0.0:
            self._ema_alpha = 1.0 - np.exp(-sample_period_s / config.ema_tau_s)
        else:
            self._ema_alpha = 1.0

    def reset(self) -> None:
        """Clear the reading-path filter state (the EMA history).

        Call between back-to-back runs that reuse a bank so no filtered
        temperature from a previous run leaks into the next one.  The
        noise RNG is deliberately left untouched: resetting it would
        make two consecutive runs correlated instead of independent.
        """
        self._ema = None

    def read(self, true_temps_c: Sequence[float]) -> np.ndarray:
        """Produce one sensor reading per core.

        Parameters
        ----------
        true_temps_c:
            The true core temperatures from the RC model.

        Returns
        -------
        numpy.ndarray
            Quantised, noisy, saturated readings in degrees Celsius.
        """
        temps = np.asarray(true_temps_c, dtype=float)
        if temps.shape != (self.num_cores,):
            raise ValueError(f"expected {self.num_cores} temperatures")
        config = self.config
        # One fresh buffer per call (the caller keeps the reading); every
        # later stage mutates it in place.  Each in-place ufunc performs
        # the same elementwise operation as the seed's allocating
        # expression, so readings are bit-identical.
        if config.ema_tau_s > 0.0:
            if self._ema is None:
                self._ema = temps.copy()
            else:
                self._ema = self._ema + self._ema_alpha * (temps - self._ema)
            readings = self._ema.copy()
        else:
            readings = temps.copy()
        if config.noise_std_c > 0.0:
            readings += self._rng.normal(0.0, config.noise_std_c, size=self.num_cores)
        if config.quantisation_c > 0.0:
            step = config.quantisation_c
            readings /= step
            np.round(readings, out=readings)
            readings *= step
        return np.clip(readings, config.min_c, config.max_c, out=readings)
