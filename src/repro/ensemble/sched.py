"""Batched load-balancing scheduler.

Mirrors :class:`repro.sched.scheduler.Scheduler` over the ensemble axis.
The vectorization strategy is dictated by the bit-identity contract:

* Per-thread and per-core work runs as ``(members, …)``-wide vector ops
  whose per-member operation order is the scalar loop's: tallies and
  activity come from ``bincount`` over row-major ``(member, core)``
  bins (it adds in input order), and the per-core sums are one
  outer-axis reduction down a ``[total; core 0; …]`` stack
  (:func:`ordered_sum`), which adds left to right per member.
* First-max / first-min selections map onto ``np.argmax`` / ``np.argmin``,
  which are documented to return the first occurrence.
* Executed cycles are ``cycles * n`` for queues of up to three threads
  (the same single rounding as three additions from 0.0) and a masked
  loop adds each further share: past three, n additions are not
  guaranteed to round like one multiplication.
* Sequential row work — placing threads (wake, first placement,
  affinity migration) and the idle-pull walk — runs as per-member scalar
  code transcribed from the reference, in one pass over every acting
  (member, slot) or (member, core) pair, member-major: each member's
  own order, since members never interact.  Only a slot column where
  many members act at once takes the members-wide vector placement.

Padded thread slots (``j >= num_threads[m]``) are parked in DONE, so
every mask already ignores them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.ensemble.workloads import (
    PH_BARRIER,
    PH_COMPUTE,
    BatchedWorkloads,
)
from repro.sched.affinity import AffinityMapping

#: Sentinel for "no core assigned" in the core / last_core arrays.
NO_CORE = -1

#: Placement actions per slot at or below which the per-member scalar
#: transcription beats the members-wide vector pass (both implement the
#: same selection, so the cutover is a pure speed choice).
_PLACE_SCALAR_MAX = 16

#: Per-event perf costs mirrored from repro.sched.perf.PerfCounters.
_MISSES_PER_MIGRATION = 2.0e4
_FAULTS_PER_MIGRATION = 1.5e2
_MISSES_PER_SAMPLE = 5.0e4
_FAULTS_PER_SAMPLE = 1.0e3
_MISSES_PER_DECISION = 1.0e4
_MISSES_PER_CYCLE = 1.0e-9


def ordered_sum(stack: np.ndarray) -> np.ndarray:
    """Sum ``stack`` (channels, terms, members) down its terms axis.

    An outer-axis ``np.add.reduce`` adds whole member rows one term at
    a time, left to right — per member exactly ``acc = acc + term`` in
    term order (pairwise summation only applies along the contiguous
    inner axis).  ``tests/test_ensemble_kernels.py`` pins this on values
    where the two orders round differently.
    """
    return np.add.reduce(stack, axis=1)


class BatchedPerf:
    """Structure-of-arrays twin of ``repro.sched.perf.PerfCounters``.

    Event costs are added as ``x + 0.0`` on non-participating members —
    a bitwise no-op on the non-negative accumulators, matching the
    scalar counters that simply are not called.
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = (
        "executed_cycles",
        "cache_misses",
        "page_faults",
        "migrations",
        "sample_events",
        "decision_events",
    )
    DERIVED_FIELDS = ()

    def __init__(self, num_members: int) -> None:
        self.executed_cycles = np.zeros(num_members, dtype=np.float64)
        self.cache_misses = np.zeros(num_members, dtype=np.float64)
        self.page_faults = np.zeros(num_members, dtype=np.float64)
        self.migrations = np.zeros(num_members, dtype=np.int64)
        self.sample_events = np.zeros(num_members, dtype=np.int64)
        self.decision_events = np.zeros(num_members, dtype=np.int64)

    # The ``*_rows`` twins take a member index per event, repeats
    # allowed: ``np.add.at`` applies every occurrence in order, so a
    # member listed twice is charged twice, exactly like two scalar
    # calls (``x[rows] = x[rows] + c`` would charge it once).
    def record_migration_rows(self, rows: np.ndarray) -> None:
        np.add.at(self.migrations, rows, 1)
        np.add.at(self.cache_misses, rows, _MISSES_PER_MIGRATION)
        np.add.at(self.page_faults, rows, _FAULTS_PER_MIGRATION)

    def record_migration_row(self, member: int) -> None:
        """Scalar twin of :meth:`record_migration_rows` (same arithmetic)."""
        self.migrations[member] += 1
        self.cache_misses[member] = (
            self.cache_misses[member] + _MISSES_PER_MIGRATION
        )
        self.page_faults[member] = (
            self.page_faults[member] + _FAULTS_PER_MIGRATION
        )

    def record_sample_event_row(self, member: int) -> None:
        self.sample_events[member] += 1
        self.cache_misses[member] = self.cache_misses[member] + _MISSES_PER_SAMPLE
        self.page_faults[member] = self.page_faults[member] + _FAULTS_PER_SAMPLE

    def record_sample_event_rows(self, rows: np.ndarray) -> None:
        """Batched twin of :meth:`record_sample_event_row` (same ops)."""
        np.add.at(self.sample_events, rows, 1)
        np.add.at(self.cache_misses, rows, _MISSES_PER_SAMPLE)
        np.add.at(self.page_faults, rows, _FAULTS_PER_SAMPLE)

    def record_decision_event_row(self, member: int) -> None:
        self.decision_events[member] += 1
        self.cache_misses[member] = (
            self.cache_misses[member] + _MISSES_PER_DECISION
        )

    def record_decision_event_rows(self, rows: np.ndarray) -> None:
        """Batched twin of :meth:`record_decision_event_row` (same ops)."""
        np.add.at(self.decision_events, rows, 1)
        np.add.at(self.cache_misses, rows, _MISSES_PER_DECISION)


class BatchedScheduler:
    """All members' scheduler state, stepped in one vectorized tick."""

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = (
        "core",
        "last_core",
        "prev_runnable",
        "stalled",
        "counts",
        "allowed",
        "num_allowed",
        "has_mapping",
        "mapping_objs",
        "stall_s",
        "idle_for_s",
        "busy_ewma",
        "since_rebalance_s",
    )
    #: Tuning knobs, index ranges, Python-list mirrors and the shortcut
    #: flags re-derived after a restore.
    DERIVED_FIELDS = (
        "w",
        "perf",
        "num_members",
        "num_cores",
        "rebalance_period_s",
        "idle_pull_delay_s",
        "packing_threshold",
        "pack_cap",
        "idle_activity",
        "pull_ok",
        "_any_mapping",
        "_member_range",
        "_member_col",
        "_slot_range",
        "_all_cores",
        "_bin_base",
        "_pull_delay_col",
        "_sum_stack",
        "_place_scalar_max",
        "_packing_list",
        "_pack_cap_list",
        "_busy_list",
        "_has_mapping_list",
        "_extern_dirty",
        "_idle_nonzero",
        "_zero_delay",
        "_stall_dirty",
        "_rebal_slack",
    )

    def __init__(
        self,
        workloads: BatchedWorkloads,
        perf: BatchedPerf,
        num_cores: int,
        rebalance_period_s: np.ndarray,
        idle_pull_delay_s: np.ndarray,
        packing_threshold: np.ndarray,
        pack_cap: np.ndarray,
        idle_activity: np.ndarray,
    ) -> None:
        m = workloads.num_members
        t = workloads.max_slots
        c = num_cores
        self.w = workloads
        self.perf = perf
        self.num_members = m
        self.num_cores = c
        # Per-member tuning knobs (uniform in practice, arrays for
        # generality — they come from each member's scalar Scheduler).
        self.rebalance_period_s = rebalance_period_s.astype(np.float64)
        self.idle_pull_delay_s = idle_pull_delay_s.astype(np.float64)
        self.packing_threshold = packing_threshold.astype(np.float64)
        self.pack_cap = pack_cap.astype(np.int64)
        self.idle_activity = idle_activity.astype(np.float64)
        # Placement state.
        self.core = np.full((m, t), NO_CORE, dtype=np.int64)
        self.last_core = np.full((m, t), NO_CORE, dtype=np.int64)
        self.prev_runnable = np.zeros((m, t), dtype=bool)
        self.stalled = np.zeros((m, t), dtype=bool)
        self.counts = np.zeros((m, c), dtype=np.int64)
        # Affinity state: allowed[m, j, c] is True when thread slot j may
        # run on core c (all-True rows when the member has no mapping).
        self.allowed = np.ones((m, t, c), dtype=bool)
        self.num_allowed = np.full((m, t), c, dtype=np.int64)
        # pull_ok[m, c]: some slot of member m that may run on core c
        # may also run elsewhere.  When False, an idle-pull toward c can
        # never find a movable slot: the movability test needs ``allowed``
        # on c, and a slot allowed on c alone already sits on c (every
        # placement picks its one allowed core), never on the busiest
        # core.  So the walk is skipped — the scalar scheduler scans and
        # fails.  Maintained wherever ``allowed`` is written
        # (:meth:`_pull_targets`).
        self.pull_ok = np.ones((m, c), dtype=bool)
        self.has_mapping = np.zeros(m, dtype=bool)
        # Ensemble-wide shortcut: when no member has a mapping the tick
        # skips the affinity-mask pipeline entirely (it is a no-op then).
        self._any_mapping = False
        self.mapping_objs: List[Optional[AffinityMapping]] = [None] * m
        # Timers and EWMA.
        self.stall_s = np.zeros((m, c), dtype=np.float64)
        self.idle_for_s = np.zeros((m, c), dtype=np.float64)
        self.busy_ewma = np.zeros(m, dtype=np.float64)
        self.since_rebalance_s = np.zeros(m, dtype=np.float64)
        self._member_range = np.arange(m, dtype=np.int64)
        self._member_col = self._member_range[:, None]
        self._slot_range = np.arange(t, dtype=np.int64)
        self._all_cores = list(range(c))
        # Each member's first (member, core) bin: ``member * c + core``
        # is a thread's bin in the flat (members * cores) tallies.
        self._bin_base = self._member_col * c
        self._pull_delay_col = self.idle_pull_delay_s[:, None]
        # [running total; core 0; ...; core c-1] per member for the two
        # executed-cycle channels (executed_cycles, cache_misses) and
        # the busy-core count, whose total row stays 0.0.
        self._sum_stack = np.zeros((3, c + 1, m), dtype=np.float64)
        # Scalar placement beats the members-wide vector pass until the
        # needy count approaches a fraction of the ensemble width.
        self._place_scalar_max = max(_PLACE_SCALAR_MAX, m // 6)
        # Python-list mirrors of per-member scalars so the hot scalar
        # placement path never pays a NumPy scalar-read per member.  The
        # knobs are set once here; busy/mapping mirrors are maintained
        # at their (rare) write sites.
        self._packing_list = self.packing_threshold.tolist()
        self._pack_cap_list = [int(x) for x in self.pack_cap.tolist()]
        self._busy_list = self.busy_ewma.tolist()
        self._has_mapping_list = [False] * m
        # True when an out-of-tick entry point (app load, mapping
        # change, manual placement) touched placement state; the next
        # tick then runs the full phase-1 pass instead of the no-wake
        # shortcut.  Starts dirty so the first tick does the full pass.
        self._extern_dirty = True
        # True while any idle_for_s entry is nonzero (so the all-busy
        # shortcut knows whether the timers still need a reset write).
        self._idle_nonzero = True
        # A zero/negative pull delay makes cores ripe at 0.0; the
        # all-busy shortcut is only valid when every delay is positive.
        self._zero_delay = bool((self.idle_pull_delay_s <= 0.0).any())
        # False only while ``stalled`` is provably all-False: every site
        # that sets a stall bit raises the flag, and the end-of-tick
        # clear drops it.  Lets quiescent ticks skip both the stall scan
        # and the clearing fill.
        self._stall_dirty = False
        # Countdown to the earliest possible rebalance among members; a
        # positive value (with margin for float drift) proves no member
        # is due, so the per-tick due-scan is skipped.  Zero forces the
        # first tick (and post-restore ticks) to do the exact scan.
        self._rebal_slack = 0.0

    # ------------------------------------------------------------------
    # Row-level operations (per-member, transcribed from the reference)
    # ------------------------------------------------------------------
    def _allowed_row(self, member: int, slot: int) -> List[int]:
        """Cores the slot may use, ascending (the scalar allowed list)."""
        return [
            int(c) for c in range(self.num_cores) if self.allowed[member, slot, c]
        ]

    def _pick_core_row(
        self,
        member: int,
        slot: int,
        wake: bool,
        counts: Optional[list] = None,
        last: Optional[int] = None,
    ) -> int:
        has_mapping = self._has_mapping_list[member]
        if has_mapping:
            allowed = self._allowed_row(member, slot)
            if len(allowed) == 1:
                return allowed[0]
        else:
            allowed = self._all_cores
        if counts is None:
            # One bulk read; the comparisons below run on Python ints.
            counts = self.counts[member].tolist()
        if wake and self._busy_list[member] < self._packing_list[member]:
            cap = self._pack_cap_list[member]
            best = -1
            busiest = -1
            for c in allowed:
                count = counts[c]
                if count < cap and count > best:
                    best = count
                    busiest = c
            if busiest >= 0:
                return busiest
        if has_mapping:
            least = min(counts[c] for c in allowed)
        else:
            least = min(counts)
        if last is None:
            last = int(self.last_core[member, slot])
        if (
            last != NO_CORE
            and counts[last] == least
            and (not has_mapping or last in allowed)
        ):
            return last
        if not has_mapping:
            return counts.index(least)
        for c in allowed:
            if counts[c] == least:
                return c
        raise AssertionError("unreachable: some allowed core holds the minimum")

    def _place_row(
        self, member: int, slot: int, *, initial: bool = False, wake: bool = False
    ) -> None:
        self._extern_dirty = True
        core = self._pick_core_row(member, slot, wake)
        previous = int(self.core[member, slot])
        self.core[member, slot] = core
        if previous != core and self.w.phase[member, slot] == PH_COMPUTE:
            if previous != NO_CORE:
                self.counts[member, previous] -= 1
            self.counts[member, core] += 1
        if previous != NO_CORE and previous != core:
            self.last_core[member, slot] = previous
            self.perf.record_migration_row(member)
            self.stalled[member, slot] = True
            self._stall_dirty = True
        elif initial:
            self.last_core[member, slot] = core

    def _place_pairs(
        self,
        pair_m: np.ndarray,
        pair_j: np.ndarray,
        wake: np.ndarray,
        initial: np.ndarray,
        is_compute: np.ndarray,
    ) -> None:
        """Per-member scalar placement of (member, slot) pairs, one pass.

        ``pair_m``/``pair_j`` list the pairs member-major with each
        member's slots ascending — every member's own ``_place_row``
        sequence in the reference's slot order; members never read each
        other's state, so no other order matters.  The pairs' cores,
        last cores and (member, slot) flags are read with one gather
        each up front and the results written back with one scatter per
        array at the end: a placement writes only its own slot's cores,
        and the one value a member's later placement does read (its
        runnable tallies) is carried in a Python row per member, whose
        changes are scattered back as +-1 deltas.
        """
        members = pair_m.tolist()
        slots = pair_j.tolist()
        prev_list = self.core[pair_m, pair_j].tolist()
        last_list = self.last_core[pair_m, pair_j].tolist()
        wake_k = wake[pair_m, pair_j].tolist()
        init_k = initial[pair_m, pair_j].tolist()
        comp_k = is_compute[pair_m, pair_j].tolist()
        # Each pair's member tallies; a member's later pairs keep using
        # (and updating) the row read for its first pair.
        tallies = self.counts[pair_m].tolist()
        pick = self._pick_core_row
        new_cores: list = []
        upd_pos: list = []
        upd_last: list = []
        migrated: list = []
        # Tally changes as (member, core, +-1), applied in one scatter.
        delta_m: list = []
        delta_c: list = []
        delta: list = []
        member = -1
        counts: list = []
        for k, mem in enumerate(members):
            if mem != member:
                member = mem
                counts = tallies[k]
            core = pick(mem, slots[k], wake_k[k], counts, last_list[k])
            previous = prev_list[k]
            new_cores.append(core)
            if previous != core and comp_k[k]:
                if previous != NO_CORE:
                    counts[previous] -= 1
                    delta_m.append(mem)
                    delta_c.append(previous)
                    delta.append(-1)
                counts[core] += 1
                delta_m.append(mem)
                delta_c.append(core)
                delta.append(1)
            if previous != NO_CORE and previous != core:
                upd_pos.append(k)
                upd_last.append(previous)
                migrated.append(k)
            elif init_k[k]:
                upd_pos.append(k)
                upd_last.append(core)
        self.core[pair_m, pair_j] = new_cores
        if delta:
            np.add.at(self.counts, (delta_m, delta_c), delta)
        if upd_pos:
            self.last_core[pair_m[upd_pos], pair_j[upd_pos]] = upd_last
        if migrated:
            rows = pair_m[migrated]
            self.stalled[rows, pair_j[migrated]] = True
            self._stall_dirty = True
            # A member can migrate several slots in one pass; the rows
            # recorder charges each repeat (see BatchedPerf).
            self.perf.record_migration_rows(rows)

    def _place_all(
        self,
        pair_m: np.ndarray,
        pair_j: np.ndarray,
        any_action: np.ndarray,
        wake: np.ndarray,
        initial: np.ndarray,
        is_compute: np.ndarray,
    ) -> None:
        """Phase-1 placement of every acting (member, slot) pair.

        Sparse slot columns take the one-pass scalar transcription;
        a dense column (more than ``_place_scalar_max`` members acting
        in it) takes the members-wide vector pass.  The sparse pairs
        between two dense columns form one pass, so each member still
        places its slots in ascending order.  With no dense column —
        always, when the pairs number at most ``_place_scalar_max`` —
        the whole phase is a single pass.
        """
        limit = self._place_scalar_max
        dense: list = []
        if pair_m.size > limit:
            per_col = np.bincount(pair_j, minlength=self.w.max_slots)
            dense = (per_col > limit).nonzero()[0].tolist()
        if not dense:
            self._place_pairs(pair_m, pair_j, wake, initial, is_compute)
            return
        lo = 0
        for j in dense + [self.w.max_slots]:
            run = (pair_j >= lo) & (pair_j < j)
            if np.count_nonzero(run):
                self._place_pairs(
                    pair_m[run], pair_j[run], wake, initial, is_compute
                )
            if j < self.w.max_slots:
                self._place_vec(j, any_action[:, j], wake[:, j], initial[:, j])
            lo = j + 1

    def _refresh_counts_row(self, member: int) -> None:
        counts = np.zeros(self.num_cores, dtype=np.int64)
        for j in range(int(self.w.num_threads[member])):
            core = int(self.core[member, j])
            if self.w.phase[member, j] == PH_COMPUTE and core != NO_CORE:
                counts[core] += 1
        self.counts[member] = counts

    def set_threads_row(
        self, member: int, mapping: Optional[AffinityMapping]
    ) -> None:
        """``Scheduler.set_threads`` for one member's freshly loaded app.

        Call after :meth:`BatchedWorkloads.load_app_row`; reads the
        thread arrays.  ``mapping`` is the member's *simulation-level*
        mapping (the scalar engine passes ``sim._mapping``, which can
        differ from the scheduler's saved one on the first app).
        """
        t = int(self.w.num_threads[member])
        self.core[member, :] = NO_CORE
        self.last_core[member, :] = NO_CORE
        self.prev_runnable[member, :] = False
        self.prev_runnable[member, :t] = self.w.phase[member, :t] == PH_COMPUTE
        self.stalled[member, :] = False
        # set_threads drops any previous mapping before re-applying.
        self.clear_mapping_row(member)
        if mapping is not None:
            self.set_mapping_row(member, mapping)
        for j in range(t):
            self._place_row(member, j, initial=True)

    def set_mapping_row(self, member: int, mapping: AffinityMapping) -> None:
        """``Scheduler.set_mapping`` for one member."""
        mapping.validate(self.num_cores)
        t = int(self.w.num_threads[member])
        if t and mapping.num_threads < t:
            raise ValueError(
                f"mapping covers {mapping.num_threads} threads, have {t}"
            )
        self.mapping_objs[member] = mapping
        self.has_mapping[member] = True
        self._has_mapping_list[member] = True
        self._any_mapping = True
        self._extern_dirty = True
        for j in range(self.w.max_slots):
            if j < t:
                mask = mapping.mask_for(j)
                if mask is None:
                    row = np.ones(self.num_cores, dtype=bool)
                else:
                    row = np.zeros(self.num_cores, dtype=bool)
                    for c in mask:
                        row[c] = True
            else:
                row = np.ones(self.num_cores, dtype=bool)
            self.allowed[member, j] = row
            self.num_allowed[member, j] = int(row.sum())
        self.pull_ok[member] = self._pull_targets(
            self.allowed[member], self.num_allowed[member]
        )
        self._refresh_counts_row(member)
        for j in range(t):
            core = int(self.core[member, j])
            if core != NO_CORE and not self.allowed[member, j, core]:
                self._place_row(member, j)

    @staticmethod
    def _pull_targets(allowed: np.ndarray, num_allowed: np.ndarray) -> np.ndarray:
        """``pull_ok`` from ``allowed`` (..., slots, cores) and
        ``num_allowed`` (..., slots): cores some unpinned slot may use."""
        return (allowed & (num_allowed > 1)[..., None]).any(axis=-2)

    def clear_mapping_row(self, member: int) -> None:
        """Mapping set to ``None``: every slot may use every core."""
        self._extern_dirty = True
        self.mapping_objs[member] = None
        self.has_mapping[member] = False
        self._has_mapping_list[member] = False
        self.allowed[member, :, :] = True
        self.num_allowed[member, :] = self.num_cores
        self.pull_ok[member] = True
        if self._any_mapping:
            self._any_mapping = bool(self.has_mapping.any())
        self._refresh_counts_row(member)

    def stall_all_row(self, member: int, seconds: float) -> None:
        if seconds < 0.0:
            raise ValueError("stall cannot be negative")
        self.stall_s[member] = self.stall_s[member] + seconds

    def stall_all_rows(self, rows: np.ndarray, seconds: float) -> None:
        """Batched twin of :meth:`stall_all_row` (same arithmetic)."""
        if seconds < 0.0:
            raise ValueError("stall cannot be negative")
        self.stall_s[rows] = self.stall_s[rows] + seconds

    # ------------------------------------------------------------------
    # Vectorized helpers
    # ------------------------------------------------------------------
    def _allowed_at_core(self) -> np.ndarray:
        """(members, slots) bool: is each thread's core still allowed."""
        # core never exceeds num_cores - 1, so clamping the NO_CORE
        # sentinel up to 0 is a full clip.
        gather = self.allowed[
            self._member_col, self._slot_range[None, :], np.maximum(self.core, 0)
        ]
        return gather | (self.core == NO_CORE)

    def _pick_cores_vec(self, slot: int, wake: np.ndarray) -> np.ndarray:
        """Vectorized ``_pick_core`` for one slot across members.

        Replicates the scalar selection order: single-allowed shortcut,
        then packing (first strict-max under the cap), then least-loaded
        with a sticky last-core tiebreak, else first core at the minimum.
        """
        allowed = self.allowed[:, slot, :]  # (m, c)
        counts = self.counts
        mrange = self._member_range
        single = np.argmax(allowed, axis=1)
        # Packing: first core maximising counts among those under the cap.
        packing = wake & (self.busy_ewma < self.packing_threshold)
        cand = allowed & (counts < self.pack_cap[:, None])
        cand_counts = np.where(cand, counts, -1)
        pack_core = np.argmax(cand_counts, axis=1)
        pack_ok = packing & (np.max(cand_counts, axis=1) >= 0)
        # Least-loaded among allowed; BIG parks disallowed cores.
        big = self.w.max_slots + 1
        masked = np.where(allowed, counts, big)
        least = np.min(masked, axis=1)
        first_min = np.argmin(masked, axis=1)
        last = self.last_core[:, slot]
        last_clipped = np.maximum(last, 0)
        last_ok = (
            (last != NO_CORE)
            & (counts[mrange, last_clipped] == least)
            & (~self.has_mapping | allowed[mrange, last_clipped])
        )
        choice = np.where(last_ok, last, first_min)
        picked = np.where(pack_ok, pack_core, choice)
        return np.where(self.num_allowed[:, slot] == 1, single, picked)

    def _place_vec(
        self, slot: int, need: np.ndarray, wake: np.ndarray, initial: np.ndarray
    ) -> None:
        """Vectorized ``_place`` for one slot; ``need`` selects members."""
        new_core = self._pick_cores_vec(slot, wake)
        prev = self.core[:, slot].copy()
        self.core[:, slot] = np.where(need, new_core, prev)
        changed = need & (prev != new_core)
        is_compute = self.w.phase[:, slot] == PH_COMPUTE
        dec = changed & is_compute & (prev != NO_CORE)
        rows = np.nonzero(dec)[0]
        if rows.size:
            self.counts[rows, prev[rows]] -= 1
        rows = np.nonzero(changed & is_compute)[0]
        if rows.size:
            self.counts[rows, new_core[rows]] += 1
        moved = changed & (prev != NO_CORE)
        rows = np.nonzero(moved)[0]
        if rows.size:
            self.last_core[rows, slot] = prev[rows]
            self.perf.record_migration_rows(rows)
            self.stalled[rows, slot] = True
            self._stall_dirty = True
        rows = np.nonzero(need & initial & ~moved)[0]
        if rows.size:
            self.last_core[rows, slot] = new_core[rows]

    def _first_movable_vec(
        self, members: np.ndarray, source: np.ndarray, target: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """First movable slot per member (adoption order), or found=False.

        Movable = COMPUTE, on ``source``, allowed on ``target``, not
        stalled this tick — the scalar ``_first_movable``.
        """
        movable = (self.w.phase[members] == PH_COMPUTE) & (
            self.core[members] == source[:, None]
        )
        # With no mapping anywhere every slot may run on every core, and
        # with the stall flag down no slot is stalled: both gathers
        # would be all-True, so they are skipped.
        if self._any_mapping:
            movable &= self.allowed[
                members[:, None], self._slot_range[None, :], target[:, None]
            ]
        if self._stall_dirty:
            movable &= ~self.stalled[members]
        return movable.any(axis=1), np.argmax(movable, axis=1)

    def _move_rows(
        self,
        members: np.ndarray,
        slots: np.ndarray,
        source: np.ndarray,
        target: np.ndarray,
    ) -> None:
        """Move each (member, slot) from ``source`` to ``target``; a
        member may appear more than once (its tallies move each time)."""
        self.last_core[members, slots] = source
        self.core[members, slots] = target
        np.add.at(self.counts, (members, source), -1)
        np.add.at(self.counts, (members, target), 1)
        self.perf.record_migration_rows(members)
        self.stalled[members, slots] = True
        self._stall_dirty = True

    def _pull_pairs(self, pair_m: np.ndarray, pair_c: np.ndarray) -> bool:
        """The scalar idle-pull walk over ripe (member, core) pairs.

        ``pair_m``/``pair_c`` list the pairs member-major with cores
        ascending — each member's own walk in the reference's core
        order; members never read each other's state.  Each member's
        runnable flags, cores, stall bits, tallies and (under a mapping)
        allowed masks are read once; each step takes the busiest core,
        passes below two runnable threads, and moves the first movable
        slot in adoption order to the idle core, which stalls it and
        shifts the tallies the member's later steps read.  The moves
        are written back in one scatter per array.  Returns whether
        any thread moved.
        """
        # Rows are read per pair; a member's later pairs keep using (and
        # updating) the rows read for its first pair.
        runnable = (self.w.phase[pair_m] == PH_COMPUTE).tolist()
        cores = self.core[pair_m].tolist()
        tallies = self.counts[pair_m].tolist()
        if self._stall_dirty:
            stalled = self.stalled[pair_m].tolist()
        else:
            stalled = [[False] * self.w.max_slots for _ in range(pair_m.size)]
        allowed = self.allowed[pair_m].tolist() if self._any_mapping else None
        moves: Tuple[list, list, list, list] = ([], [], [], [])
        member = -1
        for k, (mem, target) in enumerate(zip(pair_m.tolist(), pair_c.tolist())):
            if mem != member:
                member = mem
                counts, core_i, stall_i = tallies[k], cores[k], stalled[k]
                run_i = runnable[k]
                allow_i = None if allowed is None else allowed[k]
            busiest = counts.index(max(counts))
            if counts[busiest] < 2:
                continue
            for j, core in enumerate(core_i):
                if (
                    core == busiest
                    and run_i[j]
                    and not stall_i[j]
                    and (allow_i is None or allow_i[j][target])
                ):
                    break
            else:
                continue
            core_i[j] = target
            stall_i[j] = True
            counts[busiest] -= 1
            counts[target] += 1
            for column, value in zip(moves, (mem, j, busiest, target)):
                column.append(value)
        if not moves[0]:
            return False
        members, slots, source, target_arr = (
            np.asarray(column, dtype=np.int64) for column in moves
        )
        self._move_rows(members, slots, source, target_arr)
        self.idle_for_s[members, target_arr] = 0.0
        return True

    def _rebalance_vec(self, members: np.ndarray) -> None:
        """Two passes of busiest->idlest moves for ``members``."""
        for _ in range(2):
            if not members.size:
                return
            counts = self.counts[members]
            busiest = np.argmax(counts, axis=1)
            idlest = np.argmin(counts, axis=1)
            mrange = np.arange(members.size)
            cand = counts[mrange, busiest] - counts[mrange, idlest] >= 2
            if not cand.any():
                return
            sub = members[cand]
            src = busiest[cand]
            dst = idlest[cand]
            found, slots = self._first_movable_vec(sub, src, dst)
            if found.any():
                self._move_rows(sub[found], slots[found], src[found], dst[found])
            members = sub[found]

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def tick(self, freqs: np.ndarray, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        """One scheduler tick for every member.

        ``freqs`` is the (members, cores) frequency array captured at
        the top of the engine tick (the scalar loop reads governor
        frequencies once, before the governor updates).

        Returns ``(utilisation, activity)`` arrays of shape
        (members, cores) — the CoreLoad fields the engine consumes.
        """
        w = self.w
        m, c = self.num_members, self.num_cores
        # Refresh runnable counts from current state (the scalar tick
        # begins with a refresh pass: phases changed since last tick).
        # ``member * c + core`` is each slot's bin; masking the bins with
        # the (row-major) COMPUTE-on-a-core test lists the runnable
        # threads member by member, slots ascending, and bincount over
        # them gives the same int64 tallies as a one-hot sum.
        on_core = self.core != NO_CORE
        is_compute = w.phase == PH_COMPUTE
        compute_on_core = is_compute & on_core
        bins = self._bin_base + self.core
        v_flat = bins[compute_on_core]
        self.counts = np.bincount(v_flat, minlength=m * c).reshape(m, c)
        # True once anything changes cores or stalls this tick; phase 3
        # then recomputes the queue view instead of reusing the arrays
        # above.  Seeded from the stall flag: between-tick actions (app
        # loads, manager mappings) place threads and stall them outside
        # this method, and those stalls must reach ``in_queue``.  (The
        # flag may be conservatively True with no stall set; phase 3
        # then just recomputes the identical arrays.)
        moved = self._stall_dirty
        # --- Phase 1: placement / wake / affinity migration ------------
        # The masks are precomputed: a thread's own phase/core cannot be
        # changed by other threads' placements, so lazy evaluation and
        # precomputation agree (the scalar loop snapshots them too).
        # The whole pass runs only when a thread may have turned
        # runnable (the workloads flag) or an out-of-tick entry point
        # touched placement state: otherwise every wake/initial/migrate
        # mask is provably all-False and placement is a no-op.
        w.refresh_live()
        live = w.live_slots
        if self._extern_dirty or w.compute_dirty:
            self._extern_dirty = False
            w.compute_dirty = False
            needs_initial = live & ~on_core
            woke = is_compute & ~self.prev_runnable
            if self._any_mapping:
                allowed_here = self._allowed_at_core()
                needs_migrate = (
                    live & on_core & self.has_mapping[:, None] & ~allowed_here
                )
                free_slot = self.num_allowed > 1
                wake_ok = np.where(self.has_mapping[:, None], free_slot, True)
                needs_wake = live & woke & on_core & ~needs_migrate & wake_ok
                any_action = needs_initial | needs_migrate | needs_wake
            else:
                # No mappings anywhere: every core is allowed, so the
                # migration and wake gates collapse (bit-identical).
                needs_wake = woke & on_core
                any_action = needs_initial | needs_wake
            pair_m, pair_j = any_action.nonzero()  # member-major
            if pair_m.size:
                moved = True
                self._place_all(
                    pair_m, pair_j, any_action, needs_wake, needs_initial, is_compute
                )
        # --- Phase 2a: idle-pull ---------------------------------------
        idle = self.counts == 0
        if not self._zero_delay and not np.count_nonzero(idle):
            # Every core busy: all timers reset to 0.0, and with every
            # pull delay positive nothing can be ripe — skip the pass.
            if self._idle_nonzero:
                self.idle_for_s.fill(0.0)
                self._idle_nonzero = False
            ripe = None
        else:
            self._idle_nonzero = True
            self.idle_for_s = np.where(idle, self.idle_for_s + dt, 0.0)
            ripe = self.idle_for_s >= self._pull_delay_col
        if ripe is not None and np.count_nonzero(ripe):
            # Only members with a core holding >= 2 runnable threads can
            # donate; pre-filtering cannot change a pull decision (the
            # per-core ``heavy`` gate would reject the rest anyway) and
            # skips the whole scan during sync windows when counts is 0.
            # ``pull_ok`` is all-True unless some member has a mapping.
            donors = self.counts.max(axis=1) >= 2
            ripe &= donors[:, None]
            if self._any_mapping:
                ripe &= self.pull_ok
            pair_m, pair_c = ripe.nonzero()  # member-major, cores ascending
            if pair_m.size and self._pull_pairs(pair_m, pair_c):
                moved = True
        # --- Phase 2b: periodic rebalance ------------------------------
        self.since_rebalance_s = self.since_rebalance_s + dt
        # The slack countdown mirrors min(period - since) to within a
        # few ulp of float drift; the 1e-6 margin (orders of magnitude
        # above that drift, well under any dt) makes the skip safe, and
        # the due-scan itself always uses the exact arrays.
        self._rebal_slack -= dt
        if self._rebal_slack <= 1e-6:
            due = self.since_rebalance_s >= self.rebalance_period_s
            if np.count_nonzero(due):
                moved = True
                self.since_rebalance_s[due] = 0.0
                self._rebalance_vec(due.nonzero()[0])
            self._rebal_slack = float(
                np.min(self.rebalance_period_s - self.since_rebalance_s)
            )
        # --- Phase 3: execution ----------------------------------------
        # Phases have not changed since the top of the tick (placements
        # move cores, not phases), so ``is_compute`` and ``live`` are
        # still current.  When nothing above moved a thread or raised a
        # stall, the top-of-tick bins and tallies are reused verbatim —
        # recomputing them would reproduce the same arrays.  The stall
        # mask is applied only while a stall bit may be set.
        if moved:
            on_core = self.core != NO_CORE
            bins = self._bin_base + self.core
            in_queue = is_compute & on_core
            if self._stall_dirty:
                in_queue &= ~self.stalled
            q_members, q_slots = in_queue.nonzero()
            q_flat = bins[in_queue]
            run_count = np.bincount(q_flat, minlength=m * c).reshape(m, c)
        else:
            q_members, q_slots = compute_on_core.nonzero()
            q_flat = v_flat
            run_count = self.counts
        waiting = ~is_compute & live & on_core
        if np.count_nonzero(waiting):
            wait_count = np.bincount(bins[waiting], minlength=m * c).reshape(m, c)
        else:
            # All-zero wait tallies: `x + 0 * k` and `x + 0.0` are
            # bitwise no-ops on the non-negative operands below, so the
            # wait terms are skipped outright.
            wait_count = None
        ran = run_count > 0
        denom = np.where(ran, run_count, 1)
        # Stall-free ticks skip the stall pipeline: with zero stall the
        # effective dt is exactly dt and ``scale`` is exactly 1.0, and
        # x * 1.0 / x + 0.0 are bitwise no-ops on the non-negative
        # operands involved, so the shortcut is bit-identical.
        have_stall = np.count_nonzero(self.stall_s)
        if have_stall:
            stall = np.minimum(self.stall_s, dt)
            self.stall_s = self.stall_s - stall
            effective_dt = dt - stall
            share = effective_dt / denom
        else:
            share = dt / denom
        cycles_core = freqs * share
        # Queue members burn their share; scatter writes touch exactly
        # the in-queue slots the masked ``where`` rewrite updated, with
        # the same subtraction, so values and phases match bitwise.
        rem_q = w.remaining[q_members, q_slots] - cycles_core.take(q_flat)
        w.remaining[q_members, q_slots] = rem_q
        hit = rem_q <= 0.0
        any_hit = np.count_nonzero(hit)
        if any_hit:
            hit_m = q_members[hit]
            hit_j = q_slots[hit]
            w.phase[hit_m, hit_j] = PH_BARRIER
        # Executed cycles: the scalar core adds its share once per queue
        # member, from 0.0.  Up to three additions that is one rounding
        # of n * cycles (c + c is exact, so (c + c) + c rounds 3c once),
        # which is what ``cycles * n`` computes; past that the rounded
        # sums are not guaranteed to equal the product, so further
        # shares are added one at a time.  Idle cores get
        # 0.0 * cycles = 0.0 (cycles >= 0), as seeded.
        max_run = int(run_count.max()) if m else 0
        if max_run <= 3:
            executed = cycles_core * run_count
        else:
            executed = cycles_core * np.minimum(run_count, 3)
            for k in range(3, max_run):
                executed = np.where(run_count > k, executed + cycles_core, executed)
        # record_execution per core in core order, as one sequential
        # reduction down the core axis of [total; core 0; core 1; ...]
        # (see :func:`ordered_sum`).  ``executed`` is exactly 0.0 on idle
        # cores, and adding 0.0 is a bitwise no-op on the non-negative
        # accumulators, so no re-mask is needed.  The third channel
        # counts busy cores from 0.0 (small integers add exactly).
        perf = self.perf
        stack = self._sum_stack
        stack[0, 0] = perf.executed_cycles
        stack[1, 0] = perf.cache_misses
        stack[0, 1:] = executed.T
        np.multiply(executed.T, _MISSES_PER_CYCLE, out=stack[1, 1:])
        stack[2, 1:] = ran.T
        perf.executed_cycles, perf.cache_misses, busy_cores = ordered_sum(stack)
        # Utilisation (computed for every core, idle ones included).
        if wait_count is not None:
            busy_load = run_count + wait_count * 0.03
        else:
            busy_load = run_count
        if have_stall:
            scale = effective_dt / dt
            util = np.minimum(busy_load * scale + stall / dt, 1.0)
        else:
            util = np.minimum(busy_load, 1.0)
        # Activity: per-slot contributions in adoption order; the slot's
        # post-execution phase decides high vs low (threads whose burst
        # just ended contribute activity_low, like the scalar queue walk).
        # bincount walks its input sequentially, adding each weight to
        # its bin in order of appearance, and the row-major nonzero
        # lists each member's slots ascending — so every (member, core)
        # accumulator sums the same contributions in the same order as
        # the scalar slot loop, from the same 0.0 start.  A queue member
        # is COMPUTE after execution iff its burst did not just end,
        # i.e. ``~hit`` — no phase re-read needed.
        contrib = w.act_high[q_members]
        if any_hit:
            contrib[hit] = w.act_low[hit_m]
        total = np.bincount(q_flat, weights=contrib, minlength=m * c).reshape(m, c)
        # The scalar pass leaves prev_runnable == the post-execution
        # COMPUTE flag for every thread (the phase-3 walk sets the
        # pre-execution flag, then corrects executed queue members).
        # ``is_compute`` has served every pre-execution read by now, so
        # flipping the just-ended bursts in place yields that flag.
        if any_hit:
            is_compute[hit_m, hit_j] = False
        self.prev_runnable = is_compute
        # An idle core's bin got no weight, so its total is exactly 0.0
        # and 0.0 / 1 (* scale) is the 0.0 the scalar core reports.
        if have_stall:
            activity = (total / denom) * scale
        else:
            activity = total / denom
        if wait_count is not None:
            activity = activity + self.idle_activity[:, None] * wait_count
        activity = np.minimum(activity, 1.0)
        # --- Phase 4: busy EWMA + stall clear --------------------------
        busy_fraction = busy_cores / c
        weight = min(1.0, dt / 2.0)
        self.busy_ewma = self.busy_ewma + weight * (busy_fraction - self.busy_ewma)
        self._busy_list = self.busy_ewma.tolist()
        if self._stall_dirty:
            self.stalled.fill(False)
            self._stall_dirty = False
        return util, activity

    def _after_restore(self) -> None:
        self.pull_ok = self._pull_targets(self.allowed, self.num_allowed)
        self._any_mapping = bool(self.has_mapping.any())
        self._has_mapping_list = [bool(x) for x in self.has_mapping.tolist()]
        self._busy_list = self.busy_ewma.tolist()
        self._stall_dirty = True  # restored stalls must reach the next tick
        self._rebal_slack = 0.0  # force an exact due-scan next tick
        self._extern_dirty = True
        self._idle_nonzero = True
