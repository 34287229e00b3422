"""CPU frequency governors (cpufreq power schemes).

The five Linux governors the paper's action space uses (Section 5.1):

* ``performance`` — always the highest operating point;
* ``powersave`` — always the lowest;
* ``userspace`` — a fixed user-chosen frequency (the agent gets three);
* ``ondemand`` — jump to the maximum when utilisation crosses the up
  threshold, otherwise scale proportionally to demand (Pallipadi &
  Starikovskiy, paper ref. [13]);
* ``conservative`` — like ondemand but moves one ladder rung at a time.

Governors are per-core: ``update`` maps a utilisation vector to a
frequency vector, statefully for the graded governors.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.power.opp import OppLadder


class Governor:
    """Base class of all frequency governors."""

    #: cpufreq-style name; subclasses override.
    name = "base"

    #: Whether the governor scales frequencies from observed utilisation.
    #: Adaptive governors accept :meth:`inherit_frequencies` on a governor
    #: switch so the clock ramps from where the previous governor left it;
    #: fixed-point governors (performance/powersave/userspace) ignore the
    #: previous state by definition.
    adaptive = False

    #: Checkpointed state (see :mod:`repro.checkpoint.state`, whose
    #: governor encoder also records the kind and userspace target).
    STATE_FIELDS = ("_frequencies",)
    #: Construction values, never checkpointed.
    DERIVED_FIELDS = ("ladder", "num_cores")

    def __init__(self, ladder: OppLadder, num_cores: int) -> None:
        self.ladder = ladder
        self.num_cores = num_cores
        self._frequencies: List[float] = [ladder.min_point.frequency_hz] * num_cores

    def frequencies(self) -> List[float]:
        """Current per-core frequencies in hertz."""
        return list(self._frequencies)

    def inherit_frequencies(self, frequencies_hz: Sequence[float]) -> None:
        """Adopt the per-core frequencies a predecessor governor set.

        Called on a governor switch so an adaptive governor starts from
        the running clocks instead of teleporting to its reset state.
        Fixed-frequency governors override their state on the next
        ``update`` anyway, but the base implementation is safe for all.
        """
        if len(frequencies_hz) != self.num_cores:
            raise ValueError(f"expected {self.num_cores} frequencies")
        self._frequencies = list(frequencies_hz)

    def reset(self) -> None:
        """Return every core to the governor's starting frequency."""
        self._frequencies = [self.ladder.min_point.frequency_hz] * self.num_cores

    def update(self, utilisations: Sequence[float]) -> List[float]:
        """Advance one governor evaluation and return new frequencies.

        Parameters
        ----------
        utilisations:
            Per-core utilisation in [0, 1] over the last evaluation
            period.
        """
        raise NotImplementedError


class PerformanceGovernor(Governor):
    """Pin every core at the maximum operating point."""

    name = "performance"

    def update(self, utilisations: Sequence[float]) -> List[float]:
        self._frequencies = [self.ladder.max_point.frequency_hz] * self.num_cores
        return self.frequencies()


class PowersaveGovernor(Governor):
    """Pin every core at the minimum operating point."""

    name = "powersave"

    def update(self, utilisations: Sequence[float]) -> List[float]:
        self._frequencies = [self.ladder.min_point.frequency_hz] * self.num_cores
        return self.frequencies()


class UserspaceGovernor(Governor):
    """Hold every core at a fixed user-requested frequency.

    Parameters
    ----------
    frequency_hz:
        The requested frequency; snapped to the nearest operating point,
        as ``cpufreq-set -f`` does.
    """

    DERIVED_FIELDS = Governor.DERIVED_FIELDS + ("_target",)

    def __init__(self, ladder: OppLadder, num_cores: int, frequency_hz: float) -> None:
        super().__init__(ladder, num_cores)
        self._target = ladder.nearest(frequency_hz).frequency_hz
        self._frequencies = [self._target] * num_cores

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"userspace@{self._target / 1e9:.1f}GHz"

    @property
    def target_frequency_hz(self) -> float:
        """The held frequency in hertz."""
        return self._target

    def update(self, utilisations: Sequence[float]) -> List[float]:
        self._frequencies = [self._target] * self.num_cores
        return self.frequencies()


class OndemandGovernor(Governor):
    """Linux's default on-demand governor.

    Jumps straight to the maximum frequency when utilisation exceeds
    ``up_threshold`` and otherwise picks the lowest frequency that keeps
    projected utilisation below the threshold — the classic ondemand
    policy.
    """

    name = "ondemand"
    adaptive = True
    DERIVED_FIELDS = Governor.DERIVED_FIELDS + ("up_threshold", "_ascending_hz", "_f_max")

    def __init__(
        self, ladder: OppLadder, num_cores: int, up_threshold: float = 0.80
    ) -> None:
        super().__init__(ladder, num_cores)
        if not 0.0 < up_threshold <= 1.0:
            raise ValueError("up_threshold must be in (0, 1]")
        self.up_threshold = up_threshold
        # The ladder is immutable; cache what the per-tick update needs
        # (plain floats, so the scan below has no attribute reads).
        self._ascending_hz = ladder.frequencies()
        self._f_max = ladder.max_point.frequency_hz

    def update(self, utilisations: Sequence[float]) -> List[float]:
        new_frequencies = []
        append = new_frequencies.append
        frequencies = self._frequencies
        ascending = self._ascending_hz
        f_max = self._f_max
        up_threshold = self.up_threshold
        for core, util in enumerate(utilisations):
            if util >= up_threshold:
                append(f_max)
            else:
                # Demand in cycle terms at the current frequency, mapped
                # to the smallest frequency that keeps util below the
                # threshold (an inlined ladder.ceil, same 1 Hz slack).
                bound = util * frequencies[core] / up_threshold - 1.0
                for frequency in ascending:
                    if frequency >= bound:
                        append(frequency)
                        break
                else:
                    append(f_max)
        self._frequencies = new_frequencies
        return self.frequencies()


class ConservativeGovernor(Governor):
    """Graded governor: one ladder rung per evaluation.

    Steps a core up one operating point when utilisation exceeds the up
    threshold, down one when it falls below the down threshold.
    """

    name = "conservative"
    adaptive = True
    DERIVED_FIELDS = Governor.DERIVED_FIELDS + (
        "up_threshold",
        "down_threshold",
        "_index_of_hz",
        "_ascending_hz",
    )

    def __init__(
        self,
        ladder: OppLadder,
        num_cores: int,
        up_threshold: float = 0.80,
        down_threshold: float = 0.30,
    ) -> None:
        super().__init__(ladder, num_cores)
        if not 0.0 <= down_threshold < up_threshold <= 1.0:
            raise ValueError("need 0 <= down < up <= 1")
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        # Exact-hit rung lookup; off-ladder frequencies (tolerant 1 Hz
        # matching) fall back to the linear ladder.step scan.
        self._index_of_hz = {
            point.frequency_hz: index for index, point in enumerate(ladder.points)
        }
        self._ascending_hz = ladder.frequencies()

    def _step_hz(self, current: float, delta: int) -> float:
        index = self._index_of_hz.get(current)
        if index is None:
            return self.ladder.step(current, delta).frequency_hz
        ascending = self._ascending_hz
        clamped = index + delta
        if clamped < 0:
            clamped = 0
        elif clamped >= len(ascending):
            clamped = len(ascending) - 1
        return ascending[clamped]

    def update(self, utilisations: Sequence[float]) -> List[float]:
        new_frequencies = []
        append = new_frequencies.append
        frequencies = self._frequencies
        up_threshold = self.up_threshold
        down_threshold = self.down_threshold
        step_hz = self._step_hz
        for core, util in enumerate(utilisations):
            current = frequencies[core]
            if util >= up_threshold:
                append(step_hz(current, +1))
            elif util <= down_threshold:
                append(step_hz(current, -1))
            else:
                append(current)
        self._frequencies = new_frequencies
        return self.frequencies()


def make_governor(
    name: str,
    ladder: OppLadder,
    num_cores: int,
    userspace_frequency_hz: float | None = None,
) -> Governor:
    """Instantiate a governor by cpufreq name.

    Parameters
    ----------
    name:
        One of ``ondemand``, ``conservative``, ``performance``,
        ``powersave``, ``userspace``.
    ladder:
        The platform's OPP ladder.
    num_cores:
        Number of cores governed.
    userspace_frequency_hz:
        Required for ``userspace``; ignored otherwise.
    """
    if name == "ondemand":
        return OndemandGovernor(ladder, num_cores)
    if name == "conservative":
        return ConservativeGovernor(ladder, num_cores)
    if name == "performance":
        return PerformanceGovernor(ladder, num_cores)
    if name == "powersave":
        return PowersaveGovernor(ladder, num_cores)
    if name == "userspace":
        if userspace_frequency_hz is None:
            raise ValueError("userspace governor needs a frequency")
        return UserspaceGovernor(ladder, num_cores, userspace_frequency_hz)
    raise KeyError(f"unknown governor {name!r}")
