"""Batched cpufreq governors.

Mirrors :mod:`repro.sched.governors` over the ensemble axis.  Each
member's governor becomes a *kind code* plus a row in a
``(members, cores)`` frequency array; the per-kind update rules run as
masked vector ops.  Frequencies are always exact OPP ladder values
(validated at adoption), so the rules work on ladder indices: the
conservative governor's exact-hit rung lookup is the index it already
holds, and the frequencies are one gather from the ascending ladder.
The index array (``freq_idx``) rides along with ``freq`` so the chip's
per-OPP lookups need no search either.

Governor switches replicate ``Simulation._actuate_governor``: a fresh
scalar governor starts at the ladder minimum (or its userspace target),
and only *adaptive* kinds (ondemand/conservative) inherit the previous
frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class GovernorRow:
    """One member's governor, detached from the batch.

    The thermal emergency parks the pre-emergency governor here and
    restores it exactly on release, as the scalar engine keeps the old
    governor object.
    """

    kind: int
    freq: np.ndarray
    user_target: float
    up_threshold: float
    down_threshold: float


class BatchedGovernors:
    """All members' governor state as kind codes + a frequency matrix."""

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = ("kinds", "freq", "user_target", "up_threshold", "down_threshold")
    #: Ladder constants, the ladder indices of ``freq`` and
    #: ``user_target``, the threshold column views and the lazily
    #: recomputed per-kind member masks.
    DERIVED_FIELDS = (
        "ladder",
        "num_members",
        "num_cores",
        "ascending",
        "f_min",
        "_top",
        "freq_idx",
        "user_idx",
        "_up_col",
        "_down_col",
        "_kind_masks",
        "_kinds_dirty",
    )

    def __init__(self, ladder: OppLadder, num_members: int, num_cores: int) -> None:
        self.ladder = ladder
        self.num_members = num_members
        self.num_cores = num_cores
        self.ascending = np.asarray(ladder.frequencies(), dtype=np.float64)
        self.f_min = float(ladder.min_point.frequency_hz)
        self._top = self.ascending.size - 1  # the f_max rung
        m, c = num_members, num_cores
        self.kinds = np.zeros(m, dtype=np.int64)
        self.freq = np.full((m, c), self.f_min, dtype=np.float64)
        self.freq_idx = np.zeros((m, c), dtype=np.int64)
        self.user_target = np.zeros(m, dtype=np.float64)
        self.user_idx = np.zeros(m, dtype=np.int64)
        self.up_threshold = np.full(m, 0.80, dtype=np.float64)
        self.down_threshold = np.full(m, 0.30, dtype=np.float64)
        # Column views over the threshold arrays (all writers mutate the
        # bases in place, so the views track them for free).
        self._up_col = self.up_threshold[:, None]
        self._down_col = self.down_threshold[:, None]
        # (kind, (members, 1) mask) for every kind some member runs,
        # recomputed lazily after any adopt/switch/restore.
        self._kind_masks: list = []
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
        self.freq_idx[member] = self.freq_index(row)  # exact ladder values only
        self.freq[member] = row
        if isinstance(governor, UserspaceGovernor):
            self.user_target[member] = governor.target_frequency_hz
            self.user_idx[member] = self.freq_index(
                self.user_target[member : member + 1]
            )[0]
        self.up_threshold[member] = getattr(governor, "up_threshold", 0.80)
        self.down_threshold[member] = getattr(governor, "down_threshold", 0.30)
        self._kinds_dirty = True

    def switch_row(
        self, member: int, name: str, userspace_frequency_hz: float | None
    ) -> None:
        """``_actuate_governor`` for one member (post fault-outcome)."""
        kind = _NAME_TO_KIND[name]
        previous = self.freq[member].copy()
        previous_idx = self.freq_idx[member].copy()
        # A fresh scalar governor starts at the ladder minimum; only the
        # adaptive kinds then inherit the running clocks.
        self.freq[member] = self.f_min
        self.freq_idx[member] = 0
        self.up_threshold[member] = 0.80
        self.down_threshold[member] = 0.30
        if kind == KIND_USERSPACE:
            assert userspace_frequency_hz is not None
            target = self.ladder.nearest(userspace_frequency_hz).frequency_hz
            self.user_target[member] = target
            self.freq[member] = target
            self.user_idx[member] = self.freq_index(self.freq[member])[0]
            self.freq_idx[member] = self.user_idx[member]
        elif kind in _ADAPTIVE_KINDS:
            self.freq[member] = previous
            self.freq_idx[member] = previous_idx
        self.kinds[member] = kind
        self._kinds_dirty = True

    def in_force(
        self, member: int, name: str, userspace_frequency_hz: float | None
    ) -> bool:
        """``Simulation.governor_in_force`` for one member."""
        kind = self.kinds[member]
        if name != "userspace":
            return kind == _NAME_TO_KIND[name]
        if kind != KIND_USERSPACE:
            return False
        if userspace_frequency_hz is None:
            return True
        target = self.ladder.nearest(userspace_frequency_hz).frequency_hz
        return abs(self.user_target[member] - target) < 1.0

    def row(self, member: int) -> GovernorRow:
        """A copy of one member's governor state."""
        return GovernorRow(
            kind=int(self.kinds[member]),
            freq=self.freq[member].copy(),
            user_target=float(self.user_target[member]),
            up_threshold=float(self.up_threshold[member]),
            down_threshold=float(self.down_threshold[member]),
        )

    def restore_row(self, member: int, row: GovernorRow) -> None:
        """Put a :meth:`row` copy back in force for ``member``."""
        self.kinds[member] = row.kind
        self.freq[member] = row.freq
        self.freq_idx[member] = self.freq_index(row.freq)
        self.user_target[member] = row.user_target
        if row.kind == KIND_USERSPACE:
            self.user_idx[member] = self.freq_index(
                self.user_target[member : member + 1]
            )[0]
        self.up_threshold[member] = row.up_threshold
        self.down_threshold[member] = row.down_threshold
        self._kinds_dirty = True

    # ------------------------------------------------------------------
    # The per-tick update
    # ------------------------------------------------------------------
    def update(self, util: np.ndarray) -> None:
        """Governor.update for every member (util is (members, cores)).

        Always rebinds ``freq`` and ``freq_idx`` to fresh arrays (the
        engine holds the old pair as this tick's snapshot).
        """
        if self._kinds_dirty:
            kinds = self.kinds
            self._kind_masks = [
                (kind, (kinds == kind)[:, None])
                for kind in np.unique(kinds).tolist()
            ]
            self._kinds_dirty = False
        masks = self._kind_masks
        # Every member runs exactly one kind, so the first kind's rule
        # seeds every row and each further kind overwrites its own rows;
        # a homogeneous ensemble runs its one rule, no merge at all.
        idx = self._kind_rule(masks[0][0], util)
        for kind, mask in masks[1:]:
            idx = np.where(mask, self._kind_rule(kind, util), idx)
        self.freq_idx = idx
        self.freq = self.ascending.take(idx)

    def _kind_rule(self, kind: int, util: np.ndarray) -> np.ndarray:
        """Next ladder index of every (member, core) under ``kind``."""
        top = self._top
        if kind == KIND_ONDEMAND:
            up = self._up_col
            bound = util * self.freq / up - 1.0
            # searchsorted never returns a negative index, so only the
            # upper bound needs clamping: overflow (bound above the
            # ladder) lands on the top rung, as does util >= up.
            idx = np.minimum(self.ascending.searchsorted(bound, side="left"), top)
            return np.where(util >= up, top, idx)
        if kind == KIND_CONSERVATIVE:
            delta = np.where(
                util >= self._up_col,
                1,
                np.where(util <= self._down_col, -1, 0),
            )
            return np.minimum(np.maximum(self.freq_idx + delta, 0), top)
        if kind == KIND_PERFORMANCE:
            return np.full(self.freq_idx.shape, top, dtype=np.int64)
        if kind == KIND_POWERSAVE:
            return np.zeros(self.freq_idx.shape, dtype=np.int64)
        # KIND_USERSPACE
        return np.repeat(self.user_idx[:, None], self.num_cores, axis=1)

    def _after_restore(self) -> None:
        self._up_col = self.up_threshold[:, None]
        self._down_col = self.down_threshold[:, None]
        self.freq_idx = self.freq_index(self.freq)
        # Only userspace members' targets are on the ladder; the others'
        # indices are never read.
        self.user_idx = np.minimum(
            self.ascending.searchsorted(self.user_target), self._top
        )
        self._kinds_dirty = True
