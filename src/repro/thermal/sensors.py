"""On-board digital thermal sensor model.

The controllers never see the true RC-model temperatures; they see what a
Linux ``coretemp`` driver would report: per-core readings quantised to
1 degC with a little measurement noise, refreshed at the configured
sampling interval.  This is the layer that makes the sampling-interval
study of Figure 6 meaningful — coarse sampling loses cycling information
even though the underlying silicon keeps cycling.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.config import SensorConfig


def ema_alpha(config: SensorConfig, sample_period_s: float) -> float:
    """The low-pass filter's per-reading weight (1.0 when it is off)."""
    if config.ema_tau_s > 0.0:
        return 1.0 - np.exp(-sample_period_s / config.ema_tau_s)
    return 1.0


def sensor_reading(
    config: SensorConfig,
    temps: np.ndarray,
    noise: Callable[[], np.ndarray],
    ema: Optional[np.ndarray] = None,
    alpha: float = 1.0,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The reading path every sensor bank shares, scalar or batched.

    ``temps`` holds true temperatures of any shape; ``noise()`` is
    called once, only when the config adds noise, and returns the draw
    to add; ``ema`` is the filter state (``None`` before the first
    reading) and ``alpha`` its :func:`ema_alpha`.  Returns
    ``(readings, ema)`` with the filter state advanced.
    Each in-place ufunc performs the same elementwise operation as an
    allocating expression would, so readings are bit-identical whatever
    the shape of ``temps``.
    """
    if config.ema_tau_s > 0.0:
        ema = temps.copy() if ema is None else ema + alpha * (temps - ema)
        readings = ema.copy()
    else:
        readings = temps.copy()
    if config.noise_std_c > 0.0:
        readings += noise()
    if config.quantisation_c > 0.0:
        step = config.quantisation_c
        readings /= step
        np.round(readings, out=readings)
        readings *= step
    return np.clip(readings, config.min_c, config.max_c, out=readings), ema


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
        self._ema_alpha = ema_alpha(config, sample_period_s)

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
        readings, self._ema = sensor_reading(
            config,
            temps,
            lambda: self._rng.normal(0.0, config.noise_std_c, size=self.num_cores),
            self._ema,
            self._ema_alpha,
        )
        return readings
