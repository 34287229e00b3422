"""Energy meter — the simulator's ``likwid-powermeter``.

Accumulates dynamic and static energy separately (the paper reports the
two channels separately: 10% dynamic and 11% static savings) and exposes
the average-power views used by Figure 9 and Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass
class EnergyMeter:
    """Accumulating per-chip energy meter.

    All values are chip totals (sum over cores plus uncore).
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = ("dynamic_j", "static_j", "elapsed_s")
    DERIVED_FIELDS = ()

    dynamic_j: float = 0.0
    static_j: float = 0.0
    elapsed_s: float = 0.0

    def record(
        self,
        dynamic_powers_w: Sequence[float],
        static_powers_w: Sequence[float],
        uncore_power_w: float,
        dt: float,
    ) -> None:
        """Accumulate one tick of consumption.

        Parameters
        ----------
        dynamic_powers_w:
            Per-core dynamic power during the tick.
        static_powers_w:
            Per-core leakage power during the tick.
        uncore_power_w:
            Uncore/package dynamic power (counted as dynamic).
        dt:
            Tick duration in seconds.
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.dynamic_j += (sum(dynamic_powers_w) + uncore_power_w) * dt
        self.static_j += sum(static_powers_w) * dt
        self.elapsed_s += dt

    @property
    def total_j(self) -> float:
        """Total energy (dynamic + static) in joules."""
        return self.dynamic_j + self.static_j

    @property
    def average_dynamic_power_w(self) -> float:
        """Mean dynamic power over the metered interval."""
        if self.elapsed_s == 0.0:
            return 0.0
        return self.dynamic_j / self.elapsed_s


    def snapshot(self) -> "EnergyMeter":
        """A frozen copy of the current totals."""
        return EnergyMeter(self.dynamic_j, self.static_j, self.elapsed_s)

    def since(self, earlier: "EnergyMeter") -> "EnergyMeter":
        """Consumption accumulated since an earlier snapshot."""
        return EnergyMeter(
            dynamic_j=self.dynamic_j - earlier.dynamic_j,
            static_j=self.static_j - earlier.static_j,
            elapsed_s=self.elapsed_s - earlier.elapsed_s,
        )
