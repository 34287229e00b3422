"""State space of the learning agent (Section 5.1).

The environment is ``E = A x S``: the per-epoch *aging* and *stress* of
the worst core, each discretised into ``Na`` / ``Ns`` disjoint intervals.
Both quantities are first normalised into [0, 1]:

* **stress** — the Eq. 6 stress accumulated over the decision epoch,
  divided by the epoch length, relative to a documented reference rate
  (the rate at which the cycling-MTTF calibration profile accrues
  stress);
* **aging** — the mean Arrhenius aging rate of the epoch (1.0 = idle
  core), mapped linearly so that a rate of ``aging_rate_unsafe`` (the
  ~70 degC sustained-operation rate) reaches 1.0.

The last interval of each axis is the *unsafe zone* whose visits are
penalised by the reward function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.config import ReliabilityConfig
from repro.units import BOLTZMANN_EV, celsius_to_kelvin

#: Cap on the per-StateSpace memo tables.  Sensor quantisation keeps the
#: distinct temperature population small in practice; the cap only guards
#: unquantised configurations against unbounded growth.
_CACHE_LIMIT = 65536

#: Stress rate (per second) that normalises to 1.0: several times the
#: accrual rate of the calibration reference profile, i.e. sustained
#: heavy cycling.
STRESS_RATE_FULL_SCALE = 1.5e-3

#: Aging rate (relative to idle) that normalises to 1.0: sustained
#: operation in the mid-60s degC on the default platform.
AGING_RATE_FULL_SCALE = 14.0


@dataclass(frozen=True)
class EpochObservation:
    """Normalised stress/aging observed over one decision epoch.

    Attributes
    ----------
    stress_norm:
        Normalised stress in [0, 1].
    aging_norm:
        Normalised aging in [0, 1].
    raw_stress_rate:
        Eq. 6 stress per second of epoch (before normalisation).
    raw_aging_rate:
        Mean relative aging rate of the epoch (1.0 = idle).
    """

    stress_norm: float
    aging_norm: float
    raw_stress_rate: float
    raw_aging_rate: float


class StateSpace:
    """Discretisation of (aging, stress) into Q-table states.

    Parameters
    ----------
    num_stress_bins:
        ``Ns`` of Section 5.1.
    num_aging_bins:
        ``Na`` of Section 5.1.
    reliability:
        Device parameters used to evaluate Eqs. 1 and 6 on the epoch's
        sensor samples.
    """

    #: No checkpointed state: the memo tables only cache pure functions.
    STATE_FIELDS = ()
    DERIVED_FIELDS = (
        "num_stress_bins",
        "num_aging_bins",
        "reliability",
        "_aging_rate_cache",
        "_cycle_stress_cache",
    )

    def __init__(
        self,
        num_stress_bins: int,
        num_aging_bins: int,
        reliability: ReliabilityConfig,
    ) -> None:
        if num_stress_bins < 2 or num_aging_bins < 2:
            raise ValueError("need at least two bins per axis")
        self.num_stress_bins = num_stress_bins
        self.num_aging_bins = num_aging_bins
        self.reliability = reliability
        # Memo tables for the Arrhenius evaluations of Eqs. 1 and 6.
        # Sensor readings are quantised, so the same temperatures recur
        # every epoch; memoising the *unchanged* expressions keeps the
        # results bit-identical while skipping most math.exp calls.
        self._aging_rate_cache: Dict[float, float] = {}
        self._cycle_stress_cache: Dict[Tuple[float, float, float], float] = {}

    @property
    def num_states(self) -> int:
        """Total number of discrete states ``Na * Ns``."""
        return self.num_stress_bins * self.num_aging_bins

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def _aging_rate(self, temp_c: float) -> float:
        """Memoised :func:`repro.reliability.aging.aging_rate`."""
        cached = self._aging_rate_cache.get(temp_c)
        if cached is None:
            config = self.reliability
            t_ref_k = celsius_to_kelvin(config.reference_temp_c)
            t_k = celsius_to_kelvin(temp_c)
            exponent = (config.aging_activation_energy_ev / BOLTZMANN_EV) * (
                1.0 / t_ref_k - 1.0 / t_k
            )
            cached = math.exp(exponent)
            if len(self._aging_rate_cache) >= _CACHE_LIMIT:
                self._aging_rate_cache.clear()
            self._aging_rate_cache[temp_c] = cached
        return cached

    def _mean_aging_rate(self, series_c: Sequence[float]) -> float:
        """Memoised :func:`repro.reliability.aging.mean_aging_rate`."""
        if not len(series_c):
            return 1.0
        return sum(self._aging_rate(t) for t in series_c) / len(series_c)

    def _pair_stress(self, first: float, second: float, count: float) -> float:
        """Memoised Eq. 6 contribution of one counted reversal pair.

        Equivalent to ``cycle_stress(_make_cycle(first, second, count))``
        from :mod:`repro.reliability`; the expression is unchanged, only
        memoised on the cycle's ``(amplitude, max, count)`` signature.
        """
        high = max(first, second)
        low = min(first, second)
        key = (high - low, high, count)
        cached = self._cycle_stress_cache.get(key)
        if cached is None:
            config = self.reliability
            effective_amplitude = key[0] - config.elastic_threshold_k
            if effective_amplitude <= 0.0:
                cached = 0.0
            else:
                t_max_k = celsius_to_kelvin(high)
                arrhenius = math.exp(
                    -config.cycling_activation_energy_ev
                    / (BOLTZMANN_EV * t_max_k)
                )
                cached = (
                    count
                    * effective_amplitude**config.coffin_manson_exponent
                    * arrhenius
                )
            if len(self._cycle_stress_cache) >= _CACHE_LIMIT:
                self._cycle_stress_cache.clear()
            self._cycle_stress_cache[key] = cached
        return cached

    def _series_stress(self, series: Sequence[float]):
        """``thermal_stress(count_cycles(series), ...)`` fused.

        Runs the same Downing-Socie pass as
        :func:`repro.reliability.rainflow.count_cycles` but folds every
        counted cycle straight into the memoised Eq. 6 sum instead of
        materialising :class:`ThermalCycle` objects.  Contribution order
        and float arithmetic are identical to the unfused composition.
        """
        collapsed = []
        for value in series:
            if not collapsed or value != collapsed[-1]:
                collapsed.append(float(value))
        # sum() over an empty cycle list yields int 0; keep that exact.
        total = 0
        if len(collapsed) < 2:
            return total
        reversals = [collapsed[0]]
        for index in range(1, len(collapsed) - 1):
            previous, current, following = (
                collapsed[index - 1],
                collapsed[index],
                collapsed[index + 1],
            )
            if (current - previous) * (following - current) < 0.0:
                reversals.append(current)
        reversals.append(collapsed[-1])

        pair_stress = self._pair_stress
        stack = []
        for point in reversals:
            stack.append(point)
            while len(stack) >= 3:
                x_range = abs(stack[-1] - stack[-2])
                y_range = abs(stack[-2] - stack[-3])
                if x_range < y_range:
                    break
                if len(stack) == 3:
                    if y_range > 0.0:
                        total = total + pair_stress(stack[0], stack[1], 0.5)
                    stack.pop(0)
                else:
                    if y_range > 0.0:
                        total = total + pair_stress(stack[-3], stack[-2], 1.0)
                    del stack[-3:-1]
        for index in range(len(stack) - 1):
            if stack[index] != stack[index + 1]:
                total = total + pair_stress(stack[index], stack[index + 1], 0.5)
        return total

    def observe(
        self,
        epoch_samples: Sequence[Sequence[float]],
        sample_period_s: float,
        context_samples: Optional[Sequence[Sequence[float]]] = None,
    ) -> EpochObservation:
        """Evaluate stress/aging of an epoch of sensor samples.

        Parameters
        ----------
        epoch_samples:
            Per-core sample lists covering one decision epoch (degC).
        sample_period_s:
            Temperature sampling interval.
        context_samples:
            Optional per-core samples of the *previous* epoch, prepended
            for the cycle count only.  Thermal cycles caused by an
            epoch-to-epoch action change span the epoch boundary and
            would otherwise be invisible to the agent — this is part of
            the paper's point about measuring cycling over a period
            rather than from instantaneous samples.

        Returns
        -------
        EpochObservation
            Worst-core normalised stress and aging.  Aging is evaluated
            on the current epoch only (it reflects the *current*
            operating point); stress over the contextual window.
        """
        worst_stress_rate = 0.0
        worst_aging_rate = 0.0
        for core, series in enumerate(epoch_samples):
            # Drop non-finite samples (dropped sensor readings on an
            # unsupervised faulty platform) so the stress/aging math —
            # and through it the Q-table — never sees a NaN.
            series = [x for x in series if math.isfinite(x)]
            if not series:
                continue
            stress_series = series
            if context_samples is not None and core < len(context_samples):
                context = [x for x in context_samples[core] if math.isfinite(x)]
                stress_series = context + series
            duration = len(stress_series) * sample_period_s
            stress = self._series_stress(stress_series)
            worst_stress_rate = max(worst_stress_rate, stress / duration)
            # Aging is judged on the trailing half of the epoch: the
            # epoch that follows an actuation change starts at the old
            # operating point's temperature, and averaging over the whole
            # ramp would under-report the temperature the action actually
            # drives the core to.
            trailing = series[len(series) // 2 :]
            worst_aging_rate = max(
                worst_aging_rate, self._mean_aging_rate(trailing)
            )
        return EpochObservation(
            stress_norm=min(1.0, worst_stress_rate / STRESS_RATE_FULL_SCALE),
            aging_norm=min(
                1.0, max(0.0, (worst_aging_rate - 1.0) / (AGING_RATE_FULL_SCALE - 1.0))
            ),
            raw_stress_rate=worst_stress_rate,
            raw_aging_rate=worst_aging_rate,
        )

    # ------------------------------------------------------------------
    # Discretisation
    # ------------------------------------------------------------------

    def stress_bin(self, stress_norm: float) -> int:
        """Bin index of a normalised stress value."""
        return min(self.num_stress_bins - 1, int(stress_norm * self.num_stress_bins))

    def aging_bin(self, aging_norm: float) -> int:
        """Bin index of a normalised aging value."""
        return min(self.num_aging_bins - 1, int(aging_norm * self.num_aging_bins))

    def state_of(self, observation: EpochObservation) -> int:
        """Flat state index of an observation."""
        s_bin = self.stress_bin(observation.stress_norm)
        a_bin = self.aging_bin(observation.aging_norm)
        return a_bin * self.num_stress_bins + s_bin

    def bins_of(self, state: int) -> Tuple[int, int]:
        """(aging_bin, stress_bin) of a flat state index."""
        if not 0 <= state < self.num_states:
            raise ValueError(f"state {state} outside 0..{self.num_states - 1}")
        return divmod(state, self.num_stress_bins)

    def is_unsafe(self, observation: EpochObservation) -> bool:
        """Whether the observation falls in an unsafe (last) interval."""
        return (
            self.stress_bin(observation.stress_norm) == self.num_stress_bins - 1
            or self.aging_bin(observation.aging_norm) == self.num_aging_bins - 1
        )

    def describe(self, state: int) -> str:
        """Human-readable label of a state (for logs and tests)."""
        a_bin, s_bin = self.bins_of(state)
        return f"aging[{a_bin}/{self.num_aging_bins}] stress[{s_bin}/{self.num_stress_bins}]"
