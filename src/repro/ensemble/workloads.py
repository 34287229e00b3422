"""Batched application/thread state machine.

Mirrors :mod:`repro.workloads.application` and
:mod:`repro.workloads.thread_model` over an ensemble axis.  Every
per-thread scalar (phase, remaining cycles, iteration counter) becomes a
``(members, slots)`` array where ``slots`` is the widest thread count in
the ensemble; slots beyond a member's ``num_threads`` are parked in the
DONE phase so every mask derived from phases ignores them, exactly as
the scalar loop skips finished threads.

Work-unit draws reuse each member's *own* ``Application`` RNG through a
chunked buffer: ``Generator.lognormal(size=k)`` produces bit-for-bit the
same stream as ``k`` scalar draws, so pre-drawing a chunk and consuming
it one value at a time preserves the scalar draw sequence exactly.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import List, Optional

import numpy as np

from repro.workloads.application import Application
from repro.workloads.thread_model import ThreadPhase

#: Integer phase codes for the ``(members, slots)`` phase array.
PH_COMPUTE = 0
PH_BARRIER = 1
PH_SYNC = 2
PH_DONE = 3

_PHASE_TO_CODE = MappingProxyType(
    {
        ThreadPhase.COMPUTE: PH_COMPUTE,
        ThreadPhase.BARRIER: PH_BARRIER,
        ThreadPhase.SYNC: PH_SYNC,
        ThreadPhase.DONE: PH_DONE,
    }
)

#: Work-unit draws buffered per refill; any size works (batch draws are
#: bit-identical to repeated scalar draws), larger just amortises the
#: per-call Generator overhead.
_CHUNK = 128


class BatchedWorkloads:
    """Structure-of-arrays state for every member's *current* app."""

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).  ``_rngs``
    #: resolves to the restored members' application generators.
    STATE_FIELDS = (
        "phase",
        "remaining",
        "iteration",
        "in_sync",
        "sync_s",
        "num_threads",
        "iterations",
        "work_cycles",
        "sigma",
        "sync_time",
        "barrier",
        "act_high",
        "act_low",
        "elapsed",
        "barrier_sync_active",
        "barrier_sync_s",
        "queue_remaining",
        "thread_completions",
        "completions",
        "_rngs",
        "_chunk",
        "_cursor",
    )
    #: Sizes plus the shortcut flags and liveness masks re-derived after
    #: a restore.
    DERIVED_FIELDS = (
        "num_members",
        "max_slots",
        "_all_rows",
        "_any_barrier",
        "_any_queue",
        "_sync_window_open",
        "compute_dirty",
        "done_dirty",
        "live_slots",
        "live_members",
        "_live_dirty",
    )

    def __init__(self, num_members: int, max_slots: int) -> None:
        m, t = num_members, max_slots
        self.num_members = m
        self.max_slots = t
        # Per-thread state (padded slots stay DONE).
        self.phase = np.full((m, t), PH_DONE, dtype=np.int64)
        self.remaining = np.zeros((m, t), dtype=np.float64)
        self.iteration = np.zeros((m, t), dtype=np.int64)
        self.in_sync = np.zeros((m, t), dtype=bool)
        self.sync_s = np.zeros((m, t), dtype=np.float64)
        # Per-member app constants and progress.
        self.num_threads = np.zeros(m, dtype=np.int64)
        self.iterations = np.zeros(m, dtype=np.int64)
        self.work_cycles = np.zeros(m, dtype=np.float64)
        self.sigma = np.zeros(m, dtype=np.float64)
        self.sync_time = np.zeros(m, dtype=np.float64)
        self.barrier = np.zeros(m, dtype=bool)
        self.act_high = np.zeros(m, dtype=np.float64)
        self.act_low = np.zeros(m, dtype=np.float64)
        self.elapsed = np.zeros(m, dtype=np.float64)
        self.barrier_sync_active = np.zeros(m, dtype=bool)
        self.barrier_sync_s = np.zeros(m, dtype=np.float64)
        self.queue_remaining = np.zeros(m, dtype=np.int64)
        self.thread_completions = np.zeros(m, dtype=np.int64)
        self.completions: List[List[float]] = [[] for _ in range(m)]
        # Each member's current-app Generator plus its chunked buffer.
        self._rngs: List[Optional[np.random.Generator]] = [None] * m
        self._chunk = np.ones((m, _CHUNK), dtype=np.float64)
        self._cursor = np.full(m, _CHUNK, dtype=np.int64)
        self._all_rows = np.arange(m, dtype=np.int64)
        # Python-bool shortcuts over rarely-changing member flags; they
        # only gate recomputation (conservative values are safe) and are
        # refreshed at every site that writes the underlying arrays.
        self._any_barrier = False
        self._any_queue = False
        self._sync_window_open = False
        # Set whenever a thread may have turned COMPUTE (the scheduler
        # clears it after running its wake/placement pass) or DONE (the
        # engine clears it after its run-loop bookkeeping).  Both start
        # True so the first tick takes the full paths.
        self.compute_dirty = True
        self.done_dirty = True
        # Cached liveness masks (slot-level ``phase != DONE`` and its
        # per-member any()), refreshed lazily: threads only cross the
        # DONE boundary at the sites that raise ``_live_dirty``, so
        # between those sites the masks are bit-stable.
        self.live_slots = np.zeros((m, t), dtype=bool)
        self.live_members = np.zeros(m, dtype=bool)
        self._live_dirty = True

    # ------------------------------------------------------------------
    # App lifecycle
    # ------------------------------------------------------------------
    def load_app_row(self, member: int, app: Application) -> None:
        """Adopt ``app``'s live state into row ``member``.

        Reads the thread objects' actual state rather than assuming a
        fresh app, so a mid-profile switch adopts whatever the
        Application currently holds (for freshly built apps that is the
        constructor state: COMPUTE threads with pre-drawn work).
        """
        spec = app.spec
        t = spec.num_threads
        if t > self.max_slots:
            raise ValueError(
                f"application {spec.name!r} has {t} threads but the "
                f"ensemble was sized for {self.max_slots}"
            )
        self.phase[member, :] = PH_DONE
        self.remaining[member, :] = 0.0
        self.iteration[member, :] = 0
        self.in_sync[member, :] = False
        self.sync_s[member, :] = 0.0
        for j, thread in enumerate(app.threads):
            self.phase[member, j] = _PHASE_TO_CODE[thread.phase]
            self.remaining[member, j] = thread.remaining_cycles
            self.iteration[member, j] = thread.iteration
            tid = thread.thread_id
            if tid in app._thread_sync_s:
                self.in_sync[member, j] = True
                self.sync_s[member, j] = app._thread_sync_s[tid]
        self.num_threads[member] = t
        self.iterations[member] = spec.iterations
        self.work_cycles[member] = spec.work_cycles
        self.sigma[member] = spec.work_jitter_sigma
        self.sync_time[member] = spec.sync_time_s
        self.barrier[member] = spec.barrier_sync
        self.act_high[member] = spec.activity_high
        self.act_low[member] = spec.activity_low
        self.elapsed[member] = app._elapsed_s
        self.barrier_sync_active[member] = app._sync_remaining_s is not None
        self.barrier_sync_s[member] = (
            app._sync_remaining_s if app._sync_remaining_s is not None else 0.0
        )
        self.queue_remaining[member] = app._queue_remaining
        self.thread_completions[member] = app._thread_completions
        self.completions[member] = list(app._completion_times_s)
        self._rngs[member] = app._rng
        self._cursor[member] = _CHUNK  # force a refill on first draw
        self._any_barrier = bool(self.barrier.any())
        self._any_queue = bool((~self.barrier).any())
        self._sync_window_open = bool(self.barrier_sync_active.any())
        self.compute_dirty = True
        self.done_dirty = True
        self._live_dirty = True

    def refresh_live(self) -> None:
        """Recompute the liveness caches if a DONE transition occurred."""
        if self._live_dirty:
            self.live_slots = self.phase != PH_DONE
            self.live_members = self.live_slots.any(axis=1)
            self._live_dirty = False

    def done_mask(self) -> np.ndarray:
        """Members whose current app has every (real) thread DONE."""
        self.refresh_live()
        return ~self.live_members

    # ------------------------------------------------------------------
    # Work-unit draws (chunked, stream-identical to scalar draws)
    # ------------------------------------------------------------------
    def draw_work(self, members: np.ndarray) -> np.ndarray:
        """Next work-unit size per member, matching ``_draw_work``.

        ``members`` is an integer index array with at most one entry per
        member (one thread slot is processed per call site), so the
        fancy-indexed cursor update cannot collide.
        """
        sigma = self.sigma[members]
        out = self.work_cycles[members].copy()
        drawing = members[sigma > 0.0]
        if drawing.size:
            exhausted = drawing[self._cursor[drawing] >= _CHUNK]
            for m in exhausted:
                s = float(self.sigma[m])
                rng = self._rngs[m]
                assert rng is not None
                self._chunk[m] = rng.lognormal(
                    mean=-0.5 * s * s, sigma=s, size=_CHUNK
                )
                self._cursor[m] = 0
            cur = self._cursor[drawing]
            factors = self._chunk[drawing, cur]
            self._cursor[drawing] = cur + 1
            out[sigma > 0.0] = self.work_cycles[drawing] * factors
        return out

    # ------------------------------------------------------------------
    # Tick (Application.tick over all members)
    # ------------------------------------------------------------------
    def tick(self, dt: float) -> None:
        self.elapsed = self.elapsed + dt
        self.refresh_live()
        live = self.live_members
        if self._any_barrier and self._any_queue:
            m_barrier = live & self.barrier
            m_queue = live & ~self.barrier
            if m_barrier.any():
                self._tick_barrier(m_barrier, dt)
            if m_queue.any():
                self._tick_independent(m_queue, dt)
        elif self._any_barrier:
            # Homogeneous ensemble: live & barrier == live, and the
            # other branch's mask is empty, so the splits fall away.
            if live.any():
                self._tick_barrier(live, dt)
        elif self._any_queue:
            if live.any():
                self._tick_independent(live, dt)

    def _finish_sync_rows(self, members: np.ndarray) -> None:
        """``finish_sync()`` on every thread, in thread order.

        The scalar call is a no-op unless the thread is IN_SYNC, so one
        helper serves both barrier paths (post-release threads are all
        IN_SYNC; DONE threads fall through the mask).  The iteration
        bumps and phase flips are computed as one block (per-thread
        transitions are independent); only the work draws stay in the
        slot loop, preserving each member's ascending-slot RNG order.
        """
        self.compute_dirty = True
        self.done_dirty = True
        self._live_dirty = True
        ph = self.phase[members]
        sync = ph == PH_SYNC
        if not sync.any():
            return
        it_block = self.iteration[members] + sync
        finished = sync & (it_block >= self.iterations[members][:, None])
        self.iteration[members] = it_block
        self.phase[members] = np.where(
            finished, PH_DONE, np.where(sync, PH_COMPUTE, ph)
        )
        refill_mask = sync & ~finished
        for j in refill_mask.any(axis=0).nonzero()[0]:
            refill = members[refill_mask[:, j]]
            self.remaining[refill, j] = self.draw_work(refill)

    def _tick_barrier(self, live: np.ndarray, dt: float) -> None:
        # Members mid-sync: count the window down; at zero, release.
        # The Python flag mirrors ``barrier_sync_active.any()`` so the
        # (usually empty) countdown pass costs nothing when closed.
        if self._sync_window_open:
            in_sync = live & self.barrier_sync_active
            if in_sync.any():
                self.barrier_sync_s = np.where(
                    in_sync, self.barrier_sync_s - dt, self.barrier_sync_s
                )
                fired = in_sync & (self.barrier_sync_s <= 0.0)
                if fired.any():
                    self.barrier_sync_active[fired] = False
                    self._sync_window_open = bool(self.barrier_sync_active.any())
                    self._finish_sync_rows(fired.nonzero()[0])
            checking = live & ~in_sync
        else:
            checking = live
        # Members not mid-sync: fire the barrier when every live thread
        # has reached it (the scalar checks active == all_at_barrier).
        # No thread at the barrier anywhere means no member can fire.
        if checking.any():
            bar = self.phase == PH_BARRIER
            if not bar.any():
                return
            active = self.phase != PH_DONE
            at_barrier = (~active | bar).all(axis=1) & active.any(axis=1)
            fire = checking & at_barrier
            if fire.any():
                rows = fire.nonzero()[0]
                for m in rows:
                    self.completions[m].append(float(self.elapsed[m]))
                # release_barrier flips AT_BARRIER -> IN_SYNC.
                row_bar = bar[rows, :]
                self.phase[rows, :] = np.where(
                    row_bar, PH_SYNC, self.phase[rows, :]
                )
                self.barrier_sync_s[rows] = self.sync_time[rows]
                immediate = rows[self.sync_time[rows] <= 0.0]
                self.barrier_sync_active[rows] = True
                if immediate.size:
                    self.barrier_sync_active[immediate] = False
                self._sync_window_open = bool(self.barrier_sync_active.any())
                if immediate.size:
                    self._finish_sync_rows(immediate)

    def _tick_independent(self, live: np.ndarray, dt: float) -> None:
        # The per-slot transitions below are mutually independent — a
        # slot's countdown never reads another slot's state — so the
        # whole (rows, slots) block is computed in one 2D pass.  Only
        # the *finish* handling (queue pops, RNG draws) is sequential
        # across slots within a member and stays a per-slot loop.
        # When every member is in this path (the common homogeneous
        # ensemble), skip the row gather/scatter: the whole-array ops
        # below never mutate their inputs, so views are safe sources.
        full = bool(live.all())
        if full:
            rows = self._all_rows
            phase = self.phase
            in_sync = self.in_sync
            sync_s = self.sync_s
            sync_time_col = self.sync_time[:, None]
        else:
            rows = np.nonzero(live)[0]
            phase = self.phase[rows]
            in_sync = self.in_sync[rows]
            sync_s = self.sync_s[rows]
            sync_time_col = self.sync_time[rows][:, None]
        # DONE: drop any stale sync entry (matches the dict .pop).
        is_done = phase == PH_DONE
        in_sync = in_sync & ~is_done
        sync_s = np.where(is_done, 0.0, sync_s)
        # AT_BARRIER in a work-queue app: enter the sync window.
        at_bar = phase == PH_BARRIER
        phase = np.where(at_bar, PH_SYNC, phase)
        in_sync = in_sync | at_bar
        sync_s = np.where(at_bar, sync_time_col, sync_s)
        syncing = phase == PH_SYNC
        # dict .get(tid, 0.0): not-tracked threads read 0.0.
        rem = sync_s * in_sync - dt
        finished = syncing & (rem <= 0.0)
        keep = syncing & ~finished
        new_sync_s = np.where(keep, rem, np.where(finished, 0.0, sync_s))
        if full:
            self.phase[...] = phase
            self.in_sync[...] = (in_sync | keep) & ~finished
            self.sync_s[...] = new_sync_s
        else:
            self.phase[rows] = phase
            self.in_sync[rows] = (in_sync | keep) & ~finished
            self.sync_s[rows] = new_sync_s
        if not finished.any():
            return
        self.compute_dirty = True
        self.done_dirty = True
        self._live_dirty = True
        for j in finished.any(axis=0).nonzero()[0]:
            f = rows[finished[:, j]]
            has_work = self.queue_remaining[f] > 0
            self.queue_remaining[f] = np.where(
                has_work,
                self.queue_remaining[f] - 1,
                self.queue_remaining[f],
            )
            # continue_from_queue: iteration += 1 then COMPUTE with a
            # fresh draw if the queue had work, else DONE.
            self.iteration[f, j] = self.iteration[f, j] + 1
            self.phase[f, j] = np.where(has_work, PH_COMPUTE, PH_DONE)
            refill = f[has_work]
            if refill.size:
                self.remaining[refill, j] = self.draw_work(refill)
            tc = self.thread_completions[f] + 1
            self.thread_completions[f] = tc
            wave = tc % self.num_threads[f] == 0
            for m in f[wave]:
                self.completions[m].append(float(self.elapsed[m]))

    # ------------------------------------------------------------------
    # Throughput (Application.throughput for the manager's decide step)
    # ------------------------------------------------------------------
    def throughput(self, member: int, window_s: Optional[float] = None) -> float:
        elapsed = float(self.elapsed[member])
        if elapsed <= 0.0:
            return 0.0
        if window_s is None:
            return len(self.completions[member]) / elapsed
        window = min(window_s, elapsed)
        if window <= 0.0:
            return 0.0
        threshold = elapsed - window
        recent = 0
        for stamp in self.completions[member]:
            if stamp > threshold:
                recent += 1
        return recent / window

    def _after_restore(self) -> None:
        self._any_barrier = bool(self.barrier.any())
        self._any_queue = bool((~self.barrier).any())
        self._sync_window_open = bool(self.barrier_sync_active.any())
        self.compute_dirty = True
        self.done_dirty = True
        self._live_dirty = True
