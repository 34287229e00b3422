"""Batched cpufreq governors.

Mirrors :mod:`repro.sched.governors` over the ensemble axis.  Each
member's governor becomes a *kind code* plus a row in a
``(members, cores)`` frequency array; the per-kind update rules run as
masked vector ops.  Frequencies are always exact OPP ladder values
(validated at adoption), so the conservative governor's exact-hit rung
lookup maps onto ``np.searchsorted`` against the ascending ladder.

Governor switches replicate ``Simulation._actuate_governor``: a fresh
scalar governor starts at the ladder minimum (or its userspace target),
and only *adaptive* kinds (ondemand/conservative) inherit the previous
frequencies.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from repro.power.opp import OppLadder
from repro.sched.governors import (
    ConservativeGovernor,
    Governor,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
    UserspaceGovernor,
)

KIND_ONDEMAND = 0
KIND_CONSERVATIVE = 1
KIND_PERFORMANCE = 2
KIND_POWERSAVE = 3
KIND_USERSPACE = 4

_ADAPTIVE_KINDS = (KIND_ONDEMAND, KIND_CONSERVATIVE)

_NAME_TO_KIND = MappingProxyType(
    {
        "ondemand": KIND_ONDEMAND,
        "conservative": KIND_CONSERVATIVE,
        "performance": KIND_PERFORMANCE,
        "powersave": KIND_POWERSAVE,
        "userspace": KIND_USERSPACE,
    }
)


def _kind_of(governor: Governor) -> int:
    if isinstance(governor, OndemandGovernor):
        return KIND_ONDEMAND
    if isinstance(governor, ConservativeGovernor):
        return KIND_CONSERVATIVE
    if isinstance(governor, PerformanceGovernor):
        return KIND_PERFORMANCE
    if isinstance(governor, PowersaveGovernor):
        return KIND_POWERSAVE
    if isinstance(governor, UserspaceGovernor):
        return KIND_USERSPACE
    raise ValueError(
        f"unsupported governor type for ensembles: {type(governor).__name__}"
    )


class BatchedGovernors:
    """All members' governor state as kind codes + a frequency matrix."""

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = ("kinds", "freq", "user_target", "up_threshold", "down_threshold")
    #: Ladder constants, the threshold column views and the lazily
    #: recomputed uniform-kind shortcut.
    DERIVED_FIELDS = (
        "ladder",
        "num_members",
        "num_cores",
        "ascending",
        "f_min",
        "f_max",
        "_up_col",
        "_down_col",
        "_uniform_kind",
        "_kinds_dirty",
    )

    def __init__(self, ladder: OppLadder, num_members: int, num_cores: int) -> None:
        self.ladder = ladder
        self.num_members = num_members
        self.num_cores = num_cores
        self.ascending = np.asarray(ladder.frequencies(), dtype=np.float64)
        self.f_min = float(ladder.min_point.frequency_hz)
        self.f_max = float(ladder.max_point.frequency_hz)
        m, c = num_members, num_cores
        self.kinds = np.zeros(m, dtype=np.int64)
        self.freq = np.full((m, c), self.f_min, dtype=np.float64)
        self.user_target = np.zeros(m, dtype=np.float64)
        self.up_threshold = np.full(m, 0.80, dtype=np.float64)
        self.down_threshold = np.full(m, 0.30, dtype=np.float64)
        # Column views over the threshold arrays (all writers mutate the
        # bases in place, so the views track them for free).
        self._up_col = self.up_threshold[:, None]
        self._down_col = self.down_threshold[:, None]
        # Uniform-kind shortcut: -1 = mixed, else the shared kind code.
        # Recomputed lazily after any adopt/switch/restore.
        self._uniform_kind = KIND_ONDEMAND
        self._kinds_dirty = True

    # ------------------------------------------------------------------
    # Adoption / switching
    # ------------------------------------------------------------------
    def freq_index(self, freq: np.ndarray) -> np.ndarray:
        """Ladder index of each (exact) frequency; raises when off-ladder."""
        idx = np.searchsorted(self.ascending, freq)
        idx = np.clip(idx, 0, self.ascending.size - 1)
        if not np.array_equal(self.ascending[idx], freq):
            raise ValueError("frequency off the OPP ladder")
        return idx

    def adopt_row(self, member: int, governor: Governor) -> None:
        """Import one member's live scalar governor."""
        kind = _kind_of(governor)
        self.kinds[member] = kind
        row = np.asarray(governor.frequencies(), dtype=np.float64)
        self.freq_index(row)  # validate: exact ladder values only
        self.freq[member] = row
        if isinstance(governor, UserspaceGovernor):
            self.user_target[member] = governor.target_frequency_hz
        self.up_threshold[member] = getattr(governor, "up_threshold", 0.80)
        self.down_threshold[member] = getattr(governor, "down_threshold", 0.30)
        self._kinds_dirty = True

    def switch_row(
        self, member: int, name: str, userspace_frequency_hz: float | None
    ) -> None:
        """``_actuate_governor`` for one member (post fault-outcome)."""
        kind = _NAME_TO_KIND[name]
        previous = self.freq[member].copy()
        # A fresh scalar governor starts at the ladder minimum; only the
        # adaptive kinds then inherit the running clocks.
        self.freq[member] = self.f_min
        self.up_threshold[member] = 0.80
        self.down_threshold[member] = 0.30
        if kind == KIND_USERSPACE:
            assert userspace_frequency_hz is not None
            target = self.ladder.nearest(userspace_frequency_hz).frequency_hz
            self.user_target[member] = target
            self.freq[member] = target
        elif kind in _ADAPTIVE_KINDS:
            self.freq[member] = previous
        self.kinds[member] = kind
        self._kinds_dirty = True

    # ------------------------------------------------------------------
    # The per-tick update
    # ------------------------------------------------------------------
    def update(self, util: np.ndarray) -> None:
        """Governor.update for every member (util is (members, cores))."""
        kinds = self.kinds
        freq = self.freq
        asc = self.ascending
        if self._kinds_dirty:
            first = int(kinds[0]) if kinds.size else -1
            self._uniform_kind = (
                first if bool(np.all(kinds == first)) else -1
            )
            self._kinds_dirty = False
        uniform = self._uniform_kind
        if uniform >= 0:
            # Homogeneous ensemble: run the one kind's rule directly —
            # merging through an all-True where() selects the same
            # values, so the shortcut is bit-identical.
            if uniform == KIND_ONDEMAND:
                up = self._up_col
                bound = util * freq / up - 1.0
                # searchsorted never returns a negative index, so only
                # the upper bound needs clamping (same values as clip).
                idx = asc.searchsorted(bound, side="left")
                scaled = asc[np.minimum(idx, asc.size - 1)]
                self.freq = np.where(util >= up, self.f_max, scaled)
            elif uniform == KIND_CONSERVATIVE:
                cur_idx = asc.searchsorted(freq)
                cur_idx = np.clip(cur_idx, 0, asc.size - 1)
                delta = np.where(
                    util >= self._up_col,
                    1,
                    np.where(util <= self._down_col, -1, 0),
                )
                self.freq = asc[np.clip(cur_idx + delta, 0, asc.size - 1)]
            elif uniform == KIND_PERFORMANCE:
                self.freq = np.full_like(freq, self.f_max)
            elif uniform == KIND_POWERSAVE:
                self.freq = np.full_like(freq, self.f_min)
            else:  # KIND_USERSPACE
                self.freq = np.broadcast_to(
                    self.user_target[:, None], freq.shape
                ).copy()
            return
        new_freq = freq
        od = kinds == KIND_ONDEMAND
        if od.any():
            up = self.up_threshold[:, None]
            bound = util * freq / up - 1.0
            idx = np.searchsorted(asc, bound, side="left")
            # Overflow (bound above the ladder) falls back to f_max,
            # which clipping to the last rung also yields.
            scaled = asc[np.clip(idx, 0, asc.size - 1)]
            od_freq = np.where(util >= up, self.f_max, scaled)
            new_freq = np.where(od[:, None], od_freq, new_freq)
        cons = kinds == KIND_CONSERVATIVE
        if cons.any():
            cur_idx = np.searchsorted(asc, freq)
            cur_idx = np.clip(cur_idx, 0, asc.size - 1)
            delta = np.where(
                util >= self.up_threshold[:, None],
                1,
                np.where(util <= self.down_threshold[:, None], -1, 0),
            )
            stepped = asc[np.clip(cur_idx + delta, 0, asc.size - 1)]
            new_freq = np.where(cons[:, None], stepped, new_freq)
        perf = kinds == KIND_PERFORMANCE
        if perf.any():
            new_freq = np.where(perf[:, None], self.f_max, new_freq)
        save = kinds == KIND_POWERSAVE
        if save.any():
            new_freq = np.where(save[:, None], self.f_min, new_freq)
        user = kinds == KIND_USERSPACE
        if user.any():
            new_freq = np.where(user[:, None], self.user_target[:, None], new_freq)
        self.freq = new_freq

    def _after_restore(self) -> None:
        self._up_col = self.up_threshold[:, None]
        self._down_col = self.down_threshold[:, None]
        self._kinds_dirty = True
