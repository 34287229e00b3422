"""Thermal profile container and summary statistics.

A :class:`ThermalProfile` is the time-ordered record of per-core sensor
samples produced by one simulation run.  Every experiment metric of the
paper's evaluation (average temperature, peak temperature, thermal
cycling, stress, aging) is computed from objects of this class.

Samples live in one growable ``(num_cores, capacity)`` float array
(amortised-O(1) appends, no per-core Python lists), matching the memory
layout ``np.array(list_of_core_lists)`` used to produce — so every
statistic reduces over bit-identical, identically-strided data and
:meth:`as_array` returns the same ``(num_samples, num_cores)`` view of a
C-contiguous ``(num_cores, num_samples)`` block the seed returned.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.config import ReliabilityConfig
from repro.reliability.mttf import MttfReport, evaluate_profile

#: Initial column capacity of a profile's sample block.
_INITIAL_CAPACITY = 64


class ThermalProfile:
    """Per-core temperature traces sampled at a uniform period.

    Parameters
    ----------
    num_cores:
        Number of cores being traced.
    sample_period_s:
        Spacing of the samples in seconds.
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`): the
    #: filled prefix of the sample block, not its spare capacity.
    STATE_FIELDS = ("samples",)
    #: Construction values plus the block that ``samples`` stands for.
    DERIVED_FIELDS = ("num_cores", "sample_period_s", "_data", "_len")

    def __init__(self, num_cores: int, sample_period_s: float) -> None:
        if num_cores <= 0:
            raise ValueError("need at least one core")
        if sample_period_s <= 0.0:
            raise ValueError("sample period must be positive")
        self.num_cores = num_cores
        self.sample_period_s = sample_period_s
        self._data = np.empty((num_cores, _INITIAL_CAPACITY), dtype=float)
        self._len = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _reserve(self, extra: int) -> None:
        """Grow the sample block so ``extra`` more columns fit."""
        needed = self._len + extra
        capacity = self._data.shape[1]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity = max(_INITIAL_CAPACITY, capacity * 2)
        grown = np.empty((self.num_cores, capacity), dtype=float)
        grown[:, : self._len] = self._data[:, : self._len]
        self._data = grown

    def append(self, temps_c: Sequence[float]) -> None:
        """Record one sample per core."""
        if len(temps_c) != self.num_cores:
            raise ValueError(f"expected {self.num_cores} samples")
        length = self._len
        if length == self._data.shape[1]:
            self._reserve(1)
        self._data[:, length] = temps_c
        self._len = length + 1

    def extend(self, other: "ThermalProfile") -> None:
        """Append another profile recorded with the same period."""
        if other.num_cores != self.num_cores:
            raise ValueError("core-count mismatch")
        if abs(other.sample_period_s - self.sample_period_s) > 1e-12:
            raise ValueError("sample-period mismatch")
        added = other._len
        self._reserve(added)
        self._data[:, self._len : self._len + added] = other._data[:, :added]
        self._len += added

    def _adopt(self, block: np.ndarray) -> None:
        """Replace this (empty) profile's samples with a copied block."""
        self._data = np.ascontiguousarray(block, dtype=float)
        self._len = block.shape[1]

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle the filled samples only, as the checkpoint state does:
        the spare capacity is uninitialised memory, so equal profiles
        pickle to equal bytes."""
        return {
            "num_cores": self.num_cores,
            "sample_period_s": self.sample_period_s,
            "samples": np.ascontiguousarray(self.samples),
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.num_cores = state["num_cores"]
        self.sample_period_s = state["sample_period_s"]
        self._adopt(state["samples"])

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    @property
    def samples(self) -> np.ndarray:
        """The recorded ``(num_cores, num_samples)`` block (a view)."""
        return self._data[:, : self._len]

    @samples.setter
    def samples(self, block: np.ndarray) -> None:
        self._adopt(block)

    def __len__(self) -> int:
        """Number of samples recorded per core."""
        return self._len

    @property
    def duration_s(self) -> float:
        """Wall-clock time represented by the profile."""
        return len(self) * self.sample_period_s

    def core_series(self, core: int) -> List[float]:
        """The sample list of one core (a copy)."""
        return self._data[core, : self._len].tolist()

    def as_array(self) -> np.ndarray:
        """All samples as a ``(num_samples, num_cores)`` array."""
        return np.ascontiguousarray(self._data[:, : self._len]).T

    def tail(self, num_samples: int) -> "ThermalProfile":
        """A new profile holding only the last ``num_samples`` samples."""
        clipped = ThermalProfile(self.num_cores, self.sample_period_s)
        clipped._adopt(self._data[:, : self._len][:, -num_samples:])
        return clipped

    def window(self, start_s: float, end_s: Optional[float] = None) -> "ThermalProfile":
        """A new profile restricted to ``[start_s, end_s)`` of the run.

        Sample ``k`` is taken to represent time ``(k + 1) *
        sample_period_s`` (samples are recorded at the end of each
        period).
        """
        if end_s is None:
            end_s = self.duration_s
        if start_s < 0.0 or end_s < start_s:
            raise ValueError("need 0 <= start_s <= end_s")
        first = max(0, int(start_s / self.sample_period_s))
        last = min(len(self), int(end_s / self.sample_period_s))
        clipped = ThermalProfile(self.num_cores, self.sample_period_s)
        clipped._adopt(self._data[:, first:last])
        return clipped

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def average_temp_c(self) -> float:
        """Mean temperature across all cores and samples."""
        if not len(self):
            raise ValueError("empty profile")
        return float(np.mean(self.as_array()))

    def peak_temp_c(self) -> float:
        """Maximum temperature across all cores and samples."""
        if not len(self):
            raise ValueError("empty profile")
        return float(np.max(self.as_array()))

    def core_reports(self, config: ReliabilityConfig) -> List[MttfReport]:
        """Per-core reliability reports (aging + cycling MTTF)."""
        return [
            evaluate_profile(
                self._data[core, : self._len].tolist(), self.sample_period_s, config
            )
            for core in range(self.num_cores)
        ]

    def worst_case_report(self, config: ReliabilityConfig) -> Dict[str, float]:
        """Chip-level summary: worst core per reliability channel.

        The paper reports a single MTTF per run; a chip fails when its
        first core fails, so the chip MTTF per channel is the minimum
        across cores.  Average/peak temperature are the cross-core mean
        and max, matching how Table 2 reports them.
        """
        reports = self.core_reports(config)
        return {
            "average_temp_c": self.average_temp_c(),
            "peak_temp_c": self.peak_temp_c(),
            "aging_mttf_years": min(r.aging_mttf_years for r in reports),
            "cycling_mttf_years": min(r.cycling_mttf_years for r in reports),
            "stress": max(r.stress for r in reports),
            "num_cycles": max(r.num_cycles for r in reports),
        }
