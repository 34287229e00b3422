"""Ge & Qiu (DAC 2011) Q-learning DVFS manager — the paper's ref. [7].

Re-implemented from that paper's published description, with the exact
limitations the proposed approach is designed to remove:

* the state is the **instantaneous temperature** from the most recent
  sensor sample — not stress/aging measured over an epoch — so thermal
  cycling is invisible to it;
* the decision interval **equals** the sampling interval (no decoupling);
* actions are **frequency levels only** — it never touches thread
  affinity, leaving placement to Linux;
* the reward trades instantaneous temperature against performance.

The *modified* variant of Section 6.2 additionally resets its Q-table
when the application layer explicitly signals a switch
(``react_to_app_switch=True``); the base variant keeps learning across
switches, which is what degrades it in the inter-application scenarios.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.config import GeQiuConfig
from repro.core.qtable import QTable
from repro.soc.simulator import Simulation, ThermalManagerBase
from repro.workloads.application import Application


class GeQiuThermalManager(ThermalManagerBase):
    """Temperature-state, frequency-action Q-learning controller.

    Parameters
    ----------
    config:
        Baseline hyper-parameters.
    react_to_app_switch:
        True for the "modified" variant of Section 6.2 that re-learns on
        an explicit application-switch signal.
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = (
        "_rng",
        "_qtable",
        "_next_sample_s",
        "_prev_state",
        "_prev_action",
        "_steps",
        "_switch_resets",
        "_last_temp_c",
    )
    #: Construction values; ``attach`` re-reads the OPP frequencies.
    DERIVED_FIELDS = ("config", "react_to_app_switch", "_frequencies")

    def __init__(
        self, config: Optional[GeQiuConfig] = None, react_to_app_switch: bool = False
    ) -> None:
        self.config = config if config is not None else GeQiuConfig()
        self.react_to_app_switch = react_to_app_switch
        self._rng = np.random.default_rng(self.config.seed)
        self._qtable: Optional[QTable] = None
        self._frequencies: list = []
        self._next_sample_s = self.config.interval_s
        self._prev_state: Optional[int] = None
        self._prev_action: Optional[int] = None
        self._steps = 0
        self._switch_resets = 0
        self._last_temp_c = self.config.temp_range_c[0]

    # ------------------------------------------------------------------
    # State helpers
    # ------------------------------------------------------------------

    def _hottest_core_c(self, temps_c: np.ndarray) -> float:
        """Finite hottest-core reading, NaN-tolerant.

        On an unsupervised faulty platform readings can be NaN; the
        controller then falls back to the hottest *valid* sensor, and —
        if every sensor dropped out — to the last temperature it saw,
        so its state/reward math stays well-defined.
        """
        finite = temps_c[np.isfinite(temps_c)]
        if finite.size:
            self._last_temp_c = float(np.max(finite))
        return self._last_temp_c

    def _temperature_state(self, temps_c: np.ndarray) -> int:
        """Bin of the hottest core's instantaneous temperature."""
        return self._bin_of(self._hottest_core_c(np.asarray(temps_c, dtype=float)))

    def _bin_of(self, temp_c: float) -> int:
        """Bin index of one (finite) temperature."""
        low, high = self.config.temp_range_c
        norm = (temp_c - low) / (high - low)
        norm = min(1.0, max(0.0, norm))
        return min(self.config.num_temp_bins - 1, int(norm * self.config.num_temp_bins))

    def _alpha(self) -> float:
        """Exponentially decaying learning rate."""
        return float(np.exp(-self._steps / self.config.alpha_decay_epochs))

    def _epsilon(self) -> float:
        """Exploration probability, tied to the learning rate."""
        return max(0.02, self._alpha())

    def _reward(self, temp_c: float, frequency_hz: float) -> float:
        """Performance-thermal trade-off with a temperature constraint.

        Below the thermal threshold the reward is the instantaneous
        performance — proportional to the running frequency, as with the
        performance-counter metrics Ge & Qiu use — so the controller
        maximises throughput; above the threshold, a penalty that grows
        with the excursion.  This produces the classic DTM limit cycle
        on hot workloads: run fast until the threshold trips, throttle,
        cool down, run fast again — thermal cycling the controller
        cannot see, because its state is the instantaneous temperature.
        """
        over = temp_c - self.config.temp_threshold_c
        if over > 0.0:
            return -self.config.temp_weight * (1.0 + over / 10.0)
        f_max = self._frequencies[-1]
        return self.config.perf_weight * (frequency_hz / f_max)

    # ------------------------------------------------------------------
    # ThermalManagerBase interface
    # ------------------------------------------------------------------

    @property
    def sensor_period_s(self) -> float:
        """The sample/learn/act interval."""
        return self.config.interval_s

    def attach(self, sim: Simulation) -> None:
        """Bind to the platform, preserving learning across runs.

        The Q-table is built on first attach only, so a manager carried
        from a training pass into a measurement pass keeps what it
        learned (it is the same long-lived daemon on the real platform).
        """
        self._frequencies = sim.chip.ladder.frequencies()
        if self._qtable is None:
            self._qtable = QTable(self.config.num_temp_bins, len(self._frequencies))
        self._next_sample_s = self.config.interval_s
        self._prev_state = None
        self._prev_action = None

    def on_tick(self, sim: Simulation) -> None:
        """Sample, learn and set a frequency every interval."""
        if sim.now + 1e-9 < self._next_sample_s:
            return
        self._next_sample_s += self.config.interval_s
        temps = np.asarray(sim.read_sensors(), dtype=float)
        hottest_c = self._hottest_core_c(temps)
        state = self._bin_of(hottest_c)

        if self._prev_state is not None and self._prev_action is not None:
            reward = self._reward(hottest_c, self._frequencies[self._prev_action])
            self._qtable.update(
                self._prev_state,
                self._prev_action,
                reward,
                state,
                self._alpha(),
                self.config.discount,
            )

        if self._rng.random() < self._epsilon():
            action = int(self._rng.integers(len(self._frequencies)))
        else:
            action = self._qtable.best_action(state)

        sim.set_governor("userspace", self._frequencies[action])
        sim.charge_decision_overhead()
        self._prev_state = state
        self._prev_action = action
        self._steps += 1

    def on_app_switch(self, sim: Simulation, app: Application) -> None:
        """Modified variant only: reset learning on the explicit signal."""
        if not self.react_to_app_switch:
            return
        if self._qtable is not None:
            self._qtable.reset()
        self._steps = 0
        self._prev_state = None
        self._prev_action = None
        self._switch_resets += 1

    def stats(self) -> Dict[str, float]:
        """Counters for the simulation result."""
        return {
            "steps": float(self._steps),
            "switch_resets": float(self._switch_resets),
            "final_alpha": self._alpha(),
        }
