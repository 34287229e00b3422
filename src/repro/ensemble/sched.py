"""Batched load-balancing scheduler.

Mirrors :class:`repro.sched.scheduler.Scheduler` over the ensemble axis.
The vectorization strategy is dictated by the bit-identity contract:

* Loops over *thread slots* and *cores* stay as Python loops (6 and 4
  iterations) with each body doing ``(members,)``-wide vector ops — this
  preserves the scalar loop's intra-member operation order exactly.
* First-max / first-min selections map onto ``np.argmax`` / ``np.argmin``,
  which are documented to return the first occurrence.
* Executed-cycle accumulation uses an iterative masked loop instead of
  ``cycles * n`` because n repeated additions are not the same FP
  operation as one multiplication for n >= 4.
* Rare row-level operations (placing a fresh thread set, applying a new
  affinity mapping) run as per-member scalar code transcribed from the
  reference — they happen once per app switch or manager decision, not
  per tick.

Padded thread slots (``j >= num_threads[m]``) are parked in DONE, so
every mask already ignores them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.ensemble.workloads import (
    PH_BARRIER,
    PH_COMPUTE,
    PH_DONE,
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

    def record_migration_rows(self, rows: np.ndarray) -> None:
        self.migrations[rows] += 1
        self.cache_misses[rows] = self.cache_misses[rows] + _MISSES_PER_MIGRATION
        self.page_faults[rows] = self.page_faults[rows] + _FAULTS_PER_MIGRATION

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
        self.sample_events[rows] += 1
        self.cache_misses[rows] = self.cache_misses[rows] + _MISSES_PER_SAMPLE
        self.page_faults[rows] = self.page_faults[rows] + _FAULTS_PER_SAMPLE

    def record_decision_event_row(self, member: int) -> None:
        self.decision_events[member] += 1
        self.cache_misses[member] = (
            self.cache_misses[member] + _MISSES_PER_DECISION
        )

    def record_decision_event_rows(self, rows: np.ndarray) -> None:
        """Batched twin of :meth:`record_decision_event_row` (same ops)."""
        self.decision_events[rows] += 1
        self.cache_misses[rows] = self.cache_misses[rows] + _MISSES_PER_DECISION


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
        "_core_range",
        "_member_range",
        "_member_col",
        "_slot_range",
        "_all_cores",
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
        # pull_ok[m, c]: some slot of member m may run on core c.  When
        # False, an idle-pull toward c can never find a movable slot
        # (``allowed`` appears conjunctively in the movability test), so
        # the scan is skipped — the scalar scheduler scans and fails.
        # Maintained wherever ``allowed`` is written.
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
        self._core_range = np.arange(c, dtype=np.int64)
        self._member_range = np.arange(m, dtype=np.int64)
        self._member_col = self._member_range[:, None]
        self._slot_range = np.arange(t, dtype=np.int64)
        self._all_cores = list(range(c))
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

    def _place_col_scalar(
        self,
        slot: int,
        rows: np.ndarray,
        wake_k: list,
        init_k: list,
        comp_k: list,
        counts_mirror: list,
    ) -> None:
        """Per-member scalar placement for one slot column, batched I/O.

        Runs the exact ``_place_row`` sequence per member (ascending,
        like the reference), but reads the column's prev/last cores with
        two gathers up front and writes the results back with a few
        fancy-index stores at the end — members are independent, so
        deferring the array writes to the column boundary cannot change
        any pick.  ``wake_k``/``init_k``/``comp_k`` are row-aligned (one
        entry per ``rows`` element, not per member).  ``counts_mirror``
        carries the live counts between columns (a member placing
        threads in two columns sees its first placement, exactly as the
        scalar slot loop does).
        """
        row_list = rows.tolist()
        prev_list = self.core[rows, slot].tolist()
        last_list = self.last_core[rows, slot].tolist()
        new_cores: list = []
        upd_pos: list = []
        upd_last: list = []
        migrations: list = []
        for k, member in enumerate(row_list):
            counts = counts_mirror[member]
            core = self._pick_core_row(
                member, slot, wake_k[k], counts, last_list[k]
            )
            previous = prev_list[k]
            new_cores.append(core)
            if previous != core and comp_k[k]:
                if previous != NO_CORE:
                    counts[previous] -= 1
                counts[core] += 1
            if previous != NO_CORE and previous != core:
                upd_pos.append(k)
                upd_last.append(previous)
                migrations.append(member)
            elif init_k[k]:
                upd_pos.append(k)
                upd_last.append(core)
        self.core[rows, slot] = new_cores
        if upd_pos:
            self.last_core[rows[upd_pos], slot] = upd_last
        if migrations:
            marr = np.asarray(migrations, dtype=np.int64)
            self.stalled[marr, slot] = True
            self._stall_dirty = True
            self.perf.record_migration_rows(marr)

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
        self.pull_ok[member] = self.allowed[member].any(axis=0)
        self._refresh_counts_row(member)
        for j in range(t):
            core = int(self.core[member, j])
            if core != NO_CORE and not self.allowed[member, j, core]:
                self._place_row(member, j)

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
        phase = self.w.phase[members]
        core = self.core[members]
        allowed_t = self.allowed[
            members[:, None], self._slot_range[None, :], target[:, None]
        ]
        movable = (
            (phase == PH_COMPUTE)
            & (core == source[:, None])
            & allowed_t
            & ~self.stalled[members]
        )
        return movable.any(axis=1), np.argmax(movable, axis=1)

    def _move_rows(
        self,
        members: np.ndarray,
        slots: np.ndarray,
        source: np.ndarray,
        target: np.ndarray,
    ) -> None:
        self.last_core[members, slots] = source
        self.core[members, slots] = target
        self.counts[members, source] -= 1
        self.counts[members, target] += 1
        self.perf.record_migration_rows(members)
        self.stalled[members, slots] = True
        self._stall_dirty = True

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
        m, t, c = self.num_members, w.max_slots, self.num_cores
        # Refresh runnable counts from current state (the scalar tick
        # begins with a refresh pass: phases changed since last tick).
        # bincount over the flat (member, core) codes produces the same
        # int64 tallies as a one-hot sum, without the (m, t, c) temp.
        on_core = self.core != NO_CORE
        is_compute = w.phase == PH_COMPUTE
        compute_on_core = is_compute & on_core
        vm, vj = compute_on_core.nonzero()
        v_cores = self.core[vm, vj]
        v_flat = vm * c + v_cores
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
            if any_action.any():
                moved = True
                # Sparse columns run the per-member scalar transcription
                # against a Python counts mirror (cheaper than a members-
                # wide vector pass, identical selection); dense columns
                # take the vector pass.  The NumPy counts array is synced
                # at every transition so both paths read live tallies.
                counts_mirror: Optional[list] = None
                for j in any_action.any(axis=0).nonzero()[0]:
                    rows = any_action[:, j].nonzero()[0]
                    if rows.size <= self._place_scalar_max:
                        if counts_mirror is None:
                            counts_mirror = self.counts.tolist()
                        self._place_col_scalar(
                            j,
                            rows,
                            needs_wake[rows, j].tolist(),
                            needs_initial[rows, j].tolist(),
                            is_compute[rows, j].tolist(),
                            counts_mirror,
                        )
                    else:
                        if counts_mirror is not None:
                            self.counts = np.asarray(
                                counts_mirror, dtype=np.int64
                            )
                            counts_mirror = None
                        self._place_vec(
                            j,
                            any_action[:, j],
                            needs_wake[:, j],
                            needs_initial[:, j],
                        )
                if counts_mirror is not None:
                    self.counts = np.asarray(counts_mirror, dtype=np.int64)
        # --- Phase 2a: idle-pull ---------------------------------------
        idle = self.counts == 0
        if not self._zero_delay and not idle.any():
            # Every core busy: all timers reset to 0.0, and with every
            # pull delay positive nothing can be ripe — skip the pass.
            if self._idle_nonzero:
                self.idle_for_s.fill(0.0)
                self._idle_nonzero = False
            ripe = None
        else:
            self._idle_nonzero = True
            self.idle_for_s = np.where(idle, self.idle_for_s + dt, 0.0)
            ripe = self.idle_for_s >= self.idle_pull_delay_s[:, None]
        if ripe is not None and ripe.any():
            # Only members with a core holding >= 2 runnable threads can
            # donate; pre-filtering cannot change a pull decision (the
            # per-core ``heavy`` gate would reject the rest anyway) and
            # skips the whole scan during sync windows when counts is 0.
            donors = self.counts.max(axis=1) >= 2
            ripe = ripe & donors[:, None] & self.pull_ok
            # The sequential per-core walk only couples *within* a
            # member (an earlier core's successful pull stalls the moved
            # thread and shifts counts; members never read each other's
            # state), and a *failed* attempt writes nothing.  So every
            # ripe (member, core) pair is scanned in one batch against
            # the pre-pull state, and per member the first hit in core
            # order is exactly the walk's first pull.  Only the rare
            # member that pulled *and* has later ripe cores re-walks
            # those cores against its updated state.  The donor
            # prefilter above doubles as the walk's live ``heavy`` gate
            # for the batch: before a member's first move its counts are
            # untouched, and argmax over an unchanged row picks the same
            # busiest core.
            pair_m, pair_c = ripe.nonzero()  # member-major, cores ascending
            src = np.argmax(self.counts[pair_m], axis=1)
            found, slots = self._first_movable_vec(pair_m, src, pair_c)
            if found.any():
                moved = True
                hits = found.nonzero()[0]
                hit_m = pair_m[hits]
                first = np.ones(hit_m.size, dtype=bool)
                first[1:] = hit_m[1:] != hit_m[:-1]
                hits = hits[first]
                pull_m = pair_m[hits]
                pull_c = pair_c[hits]
                self._move_rows(pull_m, slots[hits], src[hits], pull_c)
                self.idle_for_s[pull_m, pull_c] = 0.0
                for i, member in enumerate(pull_m.tolist()):
                    later = ripe[member].nonzero()[0]
                    later = later[later > pull_c[i]]
                    for core_id in later.tolist():
                        row = np.array([member], dtype=np.int64)
                        busiest = int(np.argmax(self.counts[member]))
                        if self.counts[member, busiest] < 2:
                            continue
                        f1, s1 = self._first_movable_vec(
                            row,
                            np.array([busiest], dtype=np.int64),
                            np.array([core_id], dtype=np.int64),
                        )
                        if f1[0]:
                            self._move_rows(
                                row,
                                s1,
                                np.array([busiest], dtype=np.int64),
                                np.array([core_id], dtype=np.int64),
                            )
                            self.idle_for_s[member, core_id] = 0.0
        # --- Phase 2b: periodic rebalance ------------------------------
        self.since_rebalance_s = self.since_rebalance_s + dt
        # The slack countdown mirrors min(period - since) to within a
        # few ulp of float drift; the 1e-6 margin (orders of magnitude
        # above that drift, well under any dt) makes the skip safe, and
        # the due-scan itself always uses the exact arrays.
        self._rebal_slack -= dt
        if self._rebal_slack <= 1e-6:
            due = self.since_rebalance_s >= self.rebalance_period_s
            if due.any():
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
        # stall, the top-of-tick mask, indices and tallies are reused
        # verbatim — recomputing them would reproduce the same arrays.
        if moved:
            on_core = self.core != NO_CORE
            in_queue = is_compute & on_core & ~self.stalled
            q_members, q_slots = in_queue.nonzero()
            q_cores = self.core[q_members, q_slots]
            q_flat = q_members * c + q_cores
            run_count = np.bincount(q_flat, minlength=m * c).reshape(m, c)
        else:
            in_queue = compute_on_core
            q_members, q_slots = vm, vj
            q_cores = v_cores
            q_flat = v_flat
            run_count = self.counts
        waiting = ~is_compute & live & on_core
        if waiting.any():
            wm, wj = waiting.nonzero()
            wait_count = np.bincount(
                wm * c + self.core[wm, wj], minlength=m * c
            ).reshape(m, c)
        else:
            # All-zero wait tallies: `x + 0 * k` and `x + 0.0` are
            # bitwise no-ops on the non-negative operands below, so the
            # wait terms are skipped outright.
            wait_count = None
        ran = run_count > 0
        # Stall-free ticks skip the stall pipeline: with zero stall the
        # effective dt is exactly dt and ``scale`` is exactly 1.0, and
        # x * 1.0 / x + 0.0 are bitwise no-ops on the non-negative
        # operands involved, so the shortcut is bit-identical.
        have_stall = bool(self.stall_s.any())
        if have_stall:
            stall = np.minimum(self.stall_s, dt)
            self.stall_s = self.stall_s - stall
            effective_dt = dt - stall
            share = effective_dt / np.where(ran, run_count, 1)
        else:
            share = dt / np.where(ran, run_count, 1)
        cycles_core = freqs * share
        # Queue members burn their share; scatter writes touch exactly
        # the in-queue slots the masked ``where`` rewrite updated, with
        # the same subtraction, so values and phases match bitwise.
        rem_q = w.remaining[q_members, q_slots] - cycles_core[q_members, q_cores]
        w.remaining[q_members, q_slots] = rem_q
        hit = rem_q <= 0.0
        any_hit = bool(hit.any())
        if any_hit:
            hit_m = q_members[hit]
            hit_j = q_slots[hit]
            w.phase[hit_m, hit_j] = PH_BARRIER
        # Executed cycles: iterative accumulation so n queue members stay
        # n additions (cycles * n is a different FP value for n >= 4).
        # k = 0 unrolled: 0.0 + cycles is bitwise cycles (both >= 0).
        max_run = int(run_count.max()) if m else 0
        executed = (
            np.where(ran, cycles_core, 0.0)
            if max_run
            else np.zeros((m, c), dtype=np.float64)
        )
        for k in range(1, max_run):
            executed = np.where(run_count > k, executed + cycles_core, executed)
        # record_execution per core in core order.  ``executed`` is
        # exactly 0.0 on idle cores (the k = 0 where seeds them so, and
        # the k-loop never touches them), and adding 0.0 is a bitwise
        # no-op on the non-negative accumulators, so no re-mask needed.
        executed_misses = executed * _MISSES_PER_CYCLE
        for core_id in range(c):
            self.perf.executed_cycles = (
                self.perf.executed_cycles + executed[:, core_id]
            )
            self.perf.cache_misses = (
                self.perf.cache_misses + executed_misses[:, core_id]
            )
        # Utilisation (computed for every core, idle ones included).
        busy_load = run_count * 1.0
        if wait_count is not None:
            busy_load = busy_load + wait_count * 0.03
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
        # the scalar slot loop, from the same 0.0 start.
        if q_members.size:
            # A queue member is COMPUTE after execution iff its burst
            # did not just end, i.e. ``~hit`` — no phase re-read needed.
            contrib = np.where(hit, w.act_low[q_members], w.act_high[q_members])
            total = np.bincount(
                q_flat, weights=contrib, minlength=m * c
            ).reshape(m, c)
        else:
            total = np.zeros((m, c), dtype=np.float64)
        # The scalar pass leaves prev_runnable == the post-execution
        # COMPUTE flag for every thread (the phase-3 walk sets the
        # pre-execution flag, then corrects executed queue members).
        # ``is_compute`` has served every pre-execution read by now, so
        # flipping the just-ended bursts in place yields that flag.
        if any_hit:
            is_compute[hit_m, hit_j] = False
        self.prev_runnable = is_compute
        if have_stall:
            activity = np.where(
                ran, (total / np.where(ran, run_count, 1)) * scale, 0.0
            )
        else:
            activity = np.where(ran, total / np.where(ran, run_count, 1), 0.0)
        if wait_count is not None:
            activity = activity + self.idle_activity[:, None] * wait_count
        activity = np.minimum(activity, 1.0)
        # --- Phase 4: busy EWMA + stall clear --------------------------
        busy_fraction = ran.sum(axis=1) / c
        weight = min(1.0, dt / 2.0)
        self.busy_ewma = self.busy_ewma + weight * (busy_fraction - self.busy_ewma)
        self._busy_list = self.busy_ewma.tolist()
        if self._stall_dirty:
            self.stalled[:, :] = False
            self._stall_dirty = False
        return util, activity

    def _after_restore(self) -> None:
        self.pull_ok = self.allowed.any(axis=1)
        self._any_mapping = bool(self.has_mapping.any())
        self._has_mapping_list = [bool(x) for x in self.has_mapping.tolist()]
        self._busy_list = self.busy_ewma.tolist()
        self._stall_dirty = True  # restored stalls must reach the next tick
        self._rebal_slack = 0.0  # force an exact due-scan next tick
        self._extern_dirty = True
        self._idle_nonzero = True
