"""Phase-structured thread model.

Each simulated thread executes ``iterations`` repetitions of:

1. **COMPUTE** — a burst of ``work_cycles`` CPU cycles (lognormal jitter
   per iteration per thread) executed at ``activity_high``; the burst's
   wall-clock length depends on the core's frequency and on how many
   runnable threads time-share that core.
2. **BARRIER** — wait (at ``activity_low``) until every sibling thread
   has finished the same iteration.
3. **SYNC** — the inter-thread dependent section (serial work / IO /
   rate control), a fixed wall-clock time at ``activity_low``, shared by
   all threads of the application.

This is the minimal structure that reproduces the paper's motivational
observation: the overlap pattern of compute bursts and dependent phases
across cores — which thread-to-core affinity controls — determines both
the average temperature and the thermal cycling.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class ThreadPhase(enum.Enum):
    """Lifecycle phases of a simulated thread."""

    COMPUTE = "compute"
    BARRIER = "barrier"
    SYNC = "sync"
    DONE = "done"


@dataclass(frozen=True)
class WorkloadSpec:
    """Static description of one application's thread behaviour.

    Attributes
    ----------
    name:
        Application name (e.g. ``"tachyon"``).
    dataset:
        Input-data label (e.g. ``"set 1"``).
    num_threads:
        Number of worker threads (6 in the paper).
    work_cycles:
        Mean CPU cycles of one compute burst.
    work_jitter_sigma:
        Sigma of the lognormal multiplicative jitter on ``work_cycles``.
    activity_high:
        Switching-activity factor during compute.
    activity_low:
        Activity while waiting at the barrier / in the sync section.
    sync_time_s:
        Wall-clock duration of the inter-thread dependent section.
    iterations:
        Number of compute/sync repetitions until the application is done.
    performance_constraint:
        Minimum acceptable throughput in iterations/second (``Pc`` in
        Eq. 8); applications measured in frames/second use iterations as
        frames.
    barrier_sync:
        True for applications whose threads synchronise on a barrier
        every iteration (the codecs' frame dependencies, face_rec's
        per-image fusion); False for data-parallel applications whose
        threads independently pull work from a queue (tachyon rendering
        independent images).
    """

    name: str
    dataset: str
    num_threads: int
    work_cycles: float
    work_jitter_sigma: float
    activity_high: float
    activity_low: float
    sync_time_s: float
    iterations: int
    performance_constraint: float
    barrier_sync: bool = True

    def __post_init__(self) -> None:
        if self.num_threads <= 0:
            raise ValueError("need at least one thread")
        if not 0.0 <= self.activity_low <= self.activity_high <= 1.0:
            raise ValueError("activities must satisfy 0 <= low <= high <= 1")
        if self.work_cycles <= 0.0 or self.iterations <= 0:
            raise ValueError("work and iterations must be positive")


class SimThread:
    """Run-time state of one worker thread.

    Parameters
    ----------
    spec:
        The owning application's workload description.
    thread_id:
        Index of this thread within the application.
    rng:
        RNG shared by the application (drives the per-iteration jitter).
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = ("phase", "iteration", "remaining_cycles", "last_core", "core")
    #: Construction values; ``_rng`` is the application's (checkpointed there).
    DERIVED_FIELDS = ("spec", "thread_id", "_rng")

    def __init__(self, spec: WorkloadSpec, thread_id: int, rng: np.random.Generator) -> None:
        self.spec = spec
        self.thread_id = thread_id
        self._rng = rng
        self.phase = ThreadPhase.COMPUTE
        self.iteration = 0
        self.remaining_cycles = self._draw_work()
        #: Core the thread last executed on (None before first placement).
        self.last_core: Optional[int] = None
        #: Core the thread currently occupies (set by the scheduler).
        self.core: Optional[int] = None

    def _draw_work(self) -> float:
        """Sample the cycle count of the next compute burst."""
        sigma = self.spec.work_jitter_sigma
        if sigma <= 0.0:
            return self.spec.work_cycles
        # Lognormal with mean ~ work_cycles.
        factor = self._rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma)
        return self.spec.work_cycles * factor

    # ------------------------------------------------------------------
    # Phase transitions (driven by the Application each tick)
    # ------------------------------------------------------------------

    @property
    def runnable(self) -> bool:
        """True when the thread wants CPU cycles this tick."""
        return self.phase is ThreadPhase.COMPUTE

    @property
    def done(self) -> bool:
        """True once all iterations completed."""
        return self.phase is ThreadPhase.DONE

    @property
    def activity(self) -> float:
        """Activity factor the thread imposes while on a core."""
        if self.phase is ThreadPhase.COMPUTE:
            return self.spec.activity_high
        if self.phase is ThreadPhase.DONE:
            return 0.0
        return self.spec.activity_low

    def execute(self, cycles: float) -> None:
        """Consume CPU cycles granted by the scheduler for this tick.

        Transitions to BARRIER once the burst's cycles are exhausted.
        """
        if self.phase is not ThreadPhase.COMPUTE:
            return
        self.remaining_cycles -= cycles
        if self.remaining_cycles <= 0.0:
            self.phase = ThreadPhase.BARRIER

    def release_barrier(self) -> None:
        """Called by the application when all siblings reached the barrier."""
        if self.phase is ThreadPhase.BARRIER:
            self.phase = ThreadPhase.SYNC

    def finish_sync(self) -> None:
        """Called when the dependent section ends: start the next burst."""
        if self.phase is not ThreadPhase.SYNC:
            return
        self.iteration += 1
        if self.iteration >= self.spec.iterations:
            self.phase = ThreadPhase.DONE
        else:
            self.phase = ThreadPhase.COMPUTE
            self.remaining_cycles = self._draw_work()

    def continue_from_queue(self, has_work: bool) -> None:
        """Work-queue variant of :meth:`finish_sync`.

        Data-parallel applications (``barrier_sync=False``) let their
        threads pull items from a shared pool instead of running a fixed
        per-thread iteration count; the application decides whether more
        work exists.  Without this, pinned mappings with unequal core
        shares would leave fast threads idle in a long drain tail that
        real work-queue applications do not exhibit.
        """
        if self.phase is not ThreadPhase.SYNC:
            return
        self.iteration += 1
        if has_work:
            self.phase = ThreadPhase.COMPUTE
            self.remaining_cycles = self._draw_work()
        else:
            self.phase = ThreadPhase.DONE
