"""Load-balancing thread scheduler with affinity support.

Approximates the two Linux placement behaviours the paper's motivation
(Section 3) hinges on, while always honouring affinity masks:

* **wake-time packing** — when overall utilisation is low, threads that
  wake from a dependent phase are placed on already-busy cores (Linux's
  wake-affine behaviour), which is why mpeg-style workloads end up "using
  only a few of the available cores" and show compounded heat bursts;
* **periodic load balancing** — run-queue imbalance triggers migrations,
  which is why face_rec-style workloads keep every core steadily busy
  (high temperature, low cycling) under the default policy.

Setting an :class:`~repro.sched.affinity.AffinityMapping` with singleton
masks disables both behaviours for the pinned threads — the fixed
assignment of the motivational experiment and of the learning agent's
actions.

The implementation is the hot path of the whole simulation (it runs once
per tick, every experiment is tens of thousands of ticks), so placement
state is maintained incrementally instead of being recomputed per
decision: ``_runnable_per_core`` mirrors what the seed implementation's
O(threads x cores) ``_runnable_count`` scans produced, and phase 3 builds
the per-core run queues in a single pass over the threads.  All decisions
are bit-identical to the reference behaviour preserved in
``tests/_reference_scheduler.py`` (see the randomized equivalence test).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.sched.affinity import AffinityMapping
from repro.sched.perf import PerfCounters
from repro.workloads.thread_model import SimThread, ThreadPhase

#: Phase singletons compared by identity on the hot path (one attribute
#: read instead of a property call per thread per pass).
_COMPUTE = ThreadPhase.COMPUTE
_BARRIER = ThreadPhase.BARRIER
_DONE = ThreadPhase.DONE

#: Bypasses the namedtuple's eval-generated ``__new__`` wrapper (one
#: Python frame per core per tick); produces an identical CoreLoad.
_new_load = tuple.__new__


class CoreLoad(NamedTuple):
    """Per-core load summary of one tick.

    Attributes
    ----------
    utilisation:
        Busy fraction estimate in [0, 1] fed to the governor.
    activity:
        Switching-activity factor in [0, 1] fed to the power model.
    num_runnable:
        Number of compute-phase threads on the core this tick.
    executed_cycles:
        CPU cycles actually granted to threads on this core.
    """

    utilisation: float
    activity: float
    num_runnable: int
    executed_cycles: float


class Scheduler:
    """Thread placement and execution for one chip.

    Parameters
    ----------
    num_cores:
        Number of cores on the chip.
    perf:
        Counter sink for migrations (optional).
    rebalance_period_s:
        How often the periodic load balancer runs.
    packing_threshold:
        Smoothed busy-fraction below which wake placement packs threads
        onto already-busy cores.
    pack_cap:
        Maximum runnable threads a core accepts while packing.
    idle_activity:
        Activity factor contributed by a waiting (non-runnable) thread.
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).  Thread
    #: references resolve to the simulation's restored thread objects.
    STATE_FIELDS = (
        "_threads",
        "_mapping",
        "_core_of",
        "_prev_runnable",
        "_stalled",
        "_stall_s",
        "_idle_for_s",
        "_busy_ewma",
        "_since_rebalance_s",
        "_runnable_per_core",
    )
    #: Construction values and per-tick caches (run queues, the
    #: dt-keyed EWMA weight, the in-tick migration flag).
    DERIVED_FIELDS = (
        "num_cores",
        "perf",
        "rebalance_period_s",
        "idle_pull_delay_s",
        "packing_threshold",
        "pack_cap",
        "idle_activity",
        "_all_cores",
        "_run_queues",
        "_ewma_dt",
        "_ewma_weight",
        "_cores_moved",
    )

    def __init__(
        self,
        num_cores: int,
        perf: Optional[PerfCounters] = None,
        rebalance_period_s: float = 1.0,
        idle_pull_delay_s: float = 1.0,
        packing_threshold: float = 0.60,
        pack_cap: int = 3,
        idle_activity: float = 0.02,
    ) -> None:
        if num_cores <= 0:
            raise ValueError("need at least one core")
        self.num_cores = num_cores
        self.perf = perf if perf is not None else PerfCounters()
        self.rebalance_period_s = rebalance_period_s
        self.idle_pull_delay_s = idle_pull_delay_s
        self.packing_threshold = packing_threshold
        self.pack_cap = pack_cap
        self.idle_activity = idle_activity

        self._threads: List[SimThread] = []
        self._mapping: Optional[AffinityMapping] = None
        self._core_of: Dict[SimThread, int] = {}
        self._prev_runnable: Dict[SimThread, bool] = {}
        self._stalled: set = set()
        self._stall_s: List[float] = [0.0] * num_cores
        self._idle_for_s: List[float] = [0.0] * num_cores
        self._busy_ewma = 0.0
        self._since_rebalance_s = 0.0
        self._all_cores: List[int] = list(range(num_cores))
        # Mirror of the reference _runnable_count(core) for every core.
        # Refreshed from scratch on entry to tick/set_mapping/set_threads
        # (thread phases change outside the scheduler), then maintained
        # incrementally across placements within a call.
        self._runnable_per_core: List[int] = [0] * num_cores
        # Reusable phase-3 per-core run queues (cleared every tick).
        self._run_queues: List[List[SimThread]] = [[] for _ in range(num_cores)]
        # min(1.0, dt / 2.0) cached per tick length (dt is constant
        # within a run; recomputed only if a caller changes it).
        self._ewma_dt: Optional[float] = None
        self._ewma_weight = 0.0
        # Set by _place/_move while a tick is in flight: tells phase 3
        # whether the entry core snapshot is still valid (the common,
        # no-migration case skips one dict lookup per thread).
        self._cores_moved = False

    # ------------------------------------------------------------------
    # Thread and mapping management
    # ------------------------------------------------------------------

    @property
    def threads(self) -> List[SimThread]:
        """Threads currently under management."""
        return list(self._threads)

    @property
    def mapping(self) -> Optional[AffinityMapping]:
        """The active affinity mapping (None = OS default)."""
        return self._mapping

    def set_threads(
        self, threads: Sequence[SimThread], mapping: Optional[AffinityMapping] = None
    ) -> None:
        """Adopt a fresh thread set (application start or switch)."""
        self._threads = list(threads)
        self._core_of.clear()
        # Fresh threads are not "waking" — wake-affine packing applies
        # only to genuine sync->compute transitions later on.
        self._prev_runnable = {t: t.runnable for t in self._threads}
        self._stalled.clear()
        self._mapping = None
        self._refresh_runnable_counts()
        if mapping is not None:
            self.set_mapping(mapping)
        for thread in self._threads:
            self._place(thread, initial=True)

    def set_mapping(self, mapping: Optional[AffinityMapping]) -> None:
        """Apply a new affinity mapping, migrating violating threads.

        This is the simulator's ``pthread_setaffinity_np``: threads whose
        current core is outside their new mask are migrated immediately
        (and charged a migration), others stay put.
        """
        if mapping is not None:
            mapping.validate(self.num_cores)
            if self._threads and mapping.num_threads < len(self._threads):
                raise ValueError(
                    f"mapping covers {mapping.num_threads} threads, "
                    f"have {len(self._threads)}"
                )
        self._mapping = mapping
        self._refresh_runnable_counts()
        for thread in self._threads:
            core = self._core_of.get(thread)
            if core is not None and not self._allows(thread, core):
                self._migrate(thread)

    def stall_all(self, seconds: float) -> None:
        """Steal CPU time from every core (management overhead)."""
        if seconds < 0.0:
            raise ValueError("stall cannot be negative")
        stall_s = self._stall_s
        for core in range(self.num_cores):
            stall_s[core] += seconds

    # ------------------------------------------------------------------
    # Placement internals
    # ------------------------------------------------------------------

    def _allows(self, thread: SimThread, core: int) -> bool:
        if self._mapping is None:
            return True
        return self._mapping.allows(thread.thread_id, core)

    def _refresh_runnable_counts(self) -> None:
        """Recompute the per-core runnable counts from thread state.

        Stalled (just-migrated) threads still occupy the run queue for
        placement purposes; they are only excluded from execution.
        """
        counts = self._runnable_per_core
        for core in range(self.num_cores):
            counts[core] = 0
        core_of = self._core_of
        for thread in self._threads:
            if thread.phase is _COMPUTE:
                core = core_of.get(thread)
                if core is not None:
                    counts[core] += 1

    def _pick_core(self, thread: SimThread, wake: bool) -> int:
        """Choose a core for a (newly placed or waking) thread."""
        mapping = self._mapping
        if mapping is None:
            allowed = self._all_cores
        else:
            thread_id = thread.thread_id
            allowed = [c for c in self._all_cores if mapping.allows(thread_id, c)]
        if len(allowed) == 1:
            return allowed[0]
        counts = self._runnable_per_core
        if wake and self._busy_ewma < self.packing_threshold:
            # Wake-affine packing: prefer the busiest core with headroom,
            # consolidating onto low-id cores (all-idle tie), which is
            # how low-duty workloads end up "using only a few cores".
            cap = self.pack_cap
            best = -1
            busiest = -1
            for core in allowed:
                count = counts[core]
                if count < cap and count > best:
                    best = count
                    busiest = core
            if busiest >= 0:
                return busiest
        # Load balancing: least-loaded core, previous core breaking ties.
        least = counts[allowed[0]]
        for core in allowed:
            if counts[core] < least:
                least = counts[core]
        last = thread.last_core
        if (
            last is not None
            and counts[last] == least
            and (mapping is None or last in allowed)
        ):
            return last
        for core in allowed:
            if counts[core] == least:
                return core
        raise AssertionError("unreachable: some allowed core holds the minimum")

    def _place(self, thread: SimThread, initial: bool = False, wake: bool = False) -> None:
        core = self._pick_core(thread, wake=wake)
        previous = self._core_of.get(thread)
        self._core_of[thread] = core
        thread.core = core
        self._cores_moved = True
        if previous != core and thread.phase is _COMPUTE:
            counts = self._runnable_per_core
            if previous is not None:
                counts[previous] -= 1
            counts[core] += 1
        if previous is not None and previous != core:
            thread.last_core = previous
            self.perf.record_migration()
            self._stalled.add(thread)
        elif initial:
            thread.last_core = core

    def _migrate(self, thread: SimThread) -> None:
        self._place(thread, wake=False)

    def _first_movable(self, source: int, target: int) -> Optional[SimThread]:
        """First thread (in adoption order) movable ``source -> target``."""
        core_of = self._core_of
        stalled = self._stalled
        for thread in self._threads:
            if (
                thread.phase is _COMPUTE
                and core_of.get(thread) == source
                and self._allows(thread, target)
                and thread not in stalled
            ):
                return thread
        return None

    def _move(self, thread: SimThread, source: int, target: int) -> None:
        """Forcibly migrate a runnable thread (idle pull / rebalance)."""
        thread.last_core = source
        self._core_of[thread] = target
        thread.core = target
        self._cores_moved = True
        counts = self._runnable_per_core
        counts[source] -= 1
        counts[target] += 1
        self.perf.record_migration()
        self._stalled.add(thread)

    def _rebalance(self) -> None:
        """Move runnable threads from the busiest to the idlest core."""
        counts = self._runnable_per_core
        for _ in range(2):  # at most two migrations per balancing pass
            busiest = counts.index(max(counts))
            idlest = counts.index(min(counts))
            if counts[busiest] - counts[idlest] < 2:
                return
            thread = self._first_movable(busiest, idlest)
            if thread is None:
                return
            self._move(thread, busiest, idlest)

    # ------------------------------------------------------------------
    # Tick
    # ------------------------------------------------------------------

    def tick(self, frequencies_hz: Sequence[float], dt: float) -> List[CoreLoad]:
        """Place, balance and execute all threads for one tick.

        Parameters
        ----------
        frequencies_hz:
            Per-core clock frequencies for this tick.
        dt:
            Tick length in seconds.

        Returns
        -------
        list of :class:`CoreLoad`
            Per-core utilisation/activity the governor and power model
            consume.
        """
        num_cores = self.num_cores
        if len(frequencies_hz) != num_cores:
            raise ValueError(f"expected {num_cores} frequencies")
        if dt <= 0.0:
            raise ValueError("dt must be positive")

        # Thread phases changed since the last scheduler call (the
        # application ticked), so the incremental counts are stale.
        # One pass refreshes the counts and snapshots each thread's
        # phase and core: phases cannot change before execution (only
        # ``execute`` flips COMPUTE -> BARRIER mid-tick) and a thread's
        # own core cannot change before its phase-1 visit, so both
        # snapshots are valid exactly as long as they are used.
        threads = self._threads
        core_of = self._core_of
        prev_runnable = self._prev_runnable
        mapping = self._mapping
        counts = self._runnable_per_core
        for core in range(num_cores):
            counts[core] = 0
        self._cores_moved = False
        phases: List[ThreadPhase] = []
        cores: List[Optional[int]] = []
        phases_append = phases.append
        cores_append = cores.append
        for thread in threads:
            phase = thread.phase
            core = core_of.get(thread)
            phases_append(phase)
            cores_append(core)
            if phase is _COMPUTE and core is not None:
                counts[core] += 1

        # 1. Handle wakes and placement.
        if mapping is None:
            for thread, phase, core in zip(threads, phases, cores):
                if phase is _DONE:
                    continue
                if core is None:
                    self._place(thread, initial=True)
                elif phase is _COMPUTE and not prev_runnable[thread]:
                    self._place(thread, wake=True)
        else:
            for thread, phase, core in zip(threads, phases, cores):
                if phase is _DONE:
                    continue
                woke = phase is _COMPUTE and not prev_runnable[thread]
                if core is None:
                    self._place(thread, initial=True)
                elif not mapping.allows(thread.thread_id, core):
                    self._migrate(thread)
                elif woke and self._mapping_is_free(thread):
                    self._place(thread, wake=True)

        # 2a. Newly-idle balancing: a core that has sat idle for longer
        # than the pull delay steals a runnable thread from the busiest
        # core (Linux's idle balancing, with its reaction latency).
        idle_for_s = self._idle_for_s
        for core in range(num_cores):
            if counts[core] == 0:
                idle_for_s[core] += dt
            else:
                idle_for_s[core] = 0.0
        for core in range(num_cores):
            if idle_for_s[core] < self.idle_pull_delay_s:
                continue
            busiest = counts.index(max(counts))
            if counts[busiest] < 2:
                continue
            thread = self._first_movable(busiest, core)
            if thread is None:
                continue
            self._move(thread, busiest, core)
            idle_for_s[core] = 0.0

        # 2b. Periodic load balancing (only for non-pinned threads).
        self._since_rebalance_s += dt
        if self._since_rebalance_s >= self.rebalance_period_s:
            self._since_rebalance_s = 0.0
            self._rebalance()

        # 3. Execute: one pass builds the per-core run queues and waiting
        # counts, then each core grants its effective time slice.  The
        # same pass records each thread's pre-execution runnable flag in
        # ``prev_runnable`` (the phase snapshot is still valid here);
        # executed threads — the only ones whose phase can change below
        # — are corrected after their burst.
        run_queues = self._run_queues
        wait_counts = [0] * num_cores
        stalled = self._stalled
        has_stalled = bool(stalled)
        if not self._cores_moved:
            # No migration this tick: the entry core snapshot is intact.
            for thread, phase, core in zip(threads, phases, cores):
                if phase is _COMPUTE:
                    prev_runnable[thread] = True
                    if core is not None and (
                        not has_stalled or thread not in stalled
                    ):
                        run_queues[core].append(thread)
                else:
                    prev_runnable[thread] = False
                    if phase is not _DONE and core is not None:
                        wait_counts[core] += 1
        else:
            for thread, phase in zip(threads, phases):
                if phase is _COMPUTE:
                    prev_runnable[thread] = True
                    core = core_of.get(thread)
                    if core is not None and (
                        not has_stalled or thread not in stalled
                    ):
                        run_queues[core].append(thread)
                else:
                    prev_runnable[thread] = False
                    if phase is not _DONE:
                        core = core_of.get(thread)
                        if core is not None:
                            wait_counts[core] += 1

        stall_s = self._stall_s
        idle_activity = self.idle_activity
        record_execution = self.perf.record_execution
        loads: List[CoreLoad] = []
        loads_append = loads.append
        busy_cores = 0
        for core in range(num_cores):
            pending = stall_s[core]
            stall = pending if pending < dt else dt
            stall_s[core] = pending - stall
            effective_dt = dt - stall
            runnable = run_queues[core]
            num_runnable = len(runnable)
            num_waiting = wait_counts[core]
            executed = 0.0
            if num_runnable:
                busy_cores += 1
                share = effective_dt / num_runnable
                cycles = frequencies_hz[core] * share
                for thread in runnable:
                    # Inlined SimThread.execute: queue members are in
                    # COMPUTE by construction, so its phase guard is
                    # vacuous here.
                    remaining = thread.remaining_cycles - cycles
                    thread.remaining_cycles = remaining
                    if remaining <= 0.0:
                        thread.phase = _BARRIER
                    executed += cycles
                record_execution(executed)
            scale = effective_dt / dt
            utilisation = (num_runnable * 1.0 + num_waiting * 0.03) * scale + (
                stall / dt
            )
            if utilisation > 1.0:
                utilisation = 1.0
            if num_runnable:
                # Threads whose burst just ended (execute flipped them
                # to BARRIER) contribute activity_low, exactly like the
                # ``thread.activity`` property the reference sums; the
                # pass also fixes up ``prev_runnable`` with the
                # post-execution flag.  ``total`` starts as int 0 to
                # mirror ``sum()`` bit for bit.
                total = 0
                for thread in runnable:
                    spec = thread.spec
                    if thread.phase is _COMPUTE:
                        total = total + spec.activity_high
                        prev_runnable[thread] = True
                    else:
                        total = total + spec.activity_low
                        prev_runnable[thread] = False
                activity = total / num_runnable
                activity *= scale
            else:
                activity = 0.0
            activity = activity + idle_activity * num_waiting
            if activity > 1.0:
                activity = 1.0
            loads_append(
                _new_load(CoreLoad, (utilisation, activity, num_runnable, executed))
            )
            runnable.clear()

        # 4. Bookkeeping for the next tick.
        busy_fraction = busy_cores / num_cores
        if dt != self._ewma_dt:
            self._ewma_dt = dt
            self._ewma_weight = min(1.0, dt / 2.0)  # ~2 s smoothing
        self._busy_ewma += self._ewma_weight * (busy_fraction - self._busy_ewma)
        if has_stalled:
            stalled.clear()
        return loads

    def _mapping_is_free(self, thread: SimThread) -> bool:
        """Whether the thread has more than one allowed core."""
        if self._mapping is None:
            return True
        mask = self._mapping.mask_for(thread.thread_id)
        return mask is None or len(mask) > 1

    # ------------------------------------------------------------------
    # Introspection (tests, experiments)
    # ------------------------------------------------------------------

    def core_of(self, thread: SimThread) -> Optional[int]:
        """Core a thread currently occupies."""
        return self._core_of.get(thread)

    def runnable_counts(self) -> List[int]:
        """Per-core runnable-thread counts."""
        self._refresh_runnable_counts()
        return list(self._runnable_per_core)

    @property
    def busy_ewma(self) -> float:
        """Smoothed busy-core fraction driving the packing decision."""
        return self._busy_ewma
