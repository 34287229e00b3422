"""Multi-threaded application: barrier coordination and performance.

The :class:`Application` owns its :class:`~repro.workloads.thread_model.SimThread`
objects, advances the barrier/sync state machine every tick, and exposes
the performance metric the controllers consume — frames per second for
the video codecs, throughput (iterations/second, the reciprocal of
execution time per unit work) for the others, as described in Section 5
of the paper.
"""

from __future__ import annotations

import enum
from typing import List, Optional

import numpy as np

from repro.workloads.thread_model import SimThread, ThreadPhase, WorkloadSpec

#: Phase singletons compared by identity on the tick path (an attribute
#: read instead of a property call per thread).
_COMPUTE = ThreadPhase.COMPUTE
_BARRIER = ThreadPhase.BARRIER
_SYNC = ThreadPhase.SYNC
_DONE = ThreadPhase.DONE


class PerformanceMetric(enum.Enum):
    """How an application's performance is expressed."""

    FRAMES_PER_SECOND = "fps"
    THROUGHPUT = "throughput"


class Application:
    """Run-time state of one multi-threaded application.

    Parameters
    ----------
    spec:
        Workload description.
    metric:
        Performance-metric flavour (fps for the codecs).
    seed:
        Seed of the jitter RNG; fixed per run for reproducibility.
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).  The
    #: jitter RNG is shared by reference with the threads, so this one
    #: stream position covers the whole application.
    STATE_FIELDS = (
        "_rng",
        "_sync_remaining_s",
        "_thread_sync_s",
        "_thread_completions",
        "_completion_times_s",
        "_elapsed_s",
        "_queue_remaining",
        "threads",
    )
    #: Construction values, never checkpointed.
    DERIVED_FIELDS = ("spec", "metric")

    def __init__(
        self,
        spec: WorkloadSpec,
        metric: PerformanceMetric = PerformanceMetric.THROUGHPUT,
        seed: int = 0,
    ) -> None:
        self.spec = spec
        self.metric = metric
        self._rng = np.random.default_rng(seed)
        self.threads: List[SimThread] = [
            SimThread(spec, tid, self._rng) for tid in range(spec.num_threads)
        ]
        self._sync_remaining_s: Optional[float] = None
        self._thread_sync_s: dict = {}
        self._thread_completions = 0
        self._completion_times_s: List[float] = []
        self._elapsed_s = 0.0
        # Work-queue pool for data-parallel applications: total work
        # items; the initial bursts of the threads consume the first
        # num_threads items.
        self._queue_remaining = (
            spec.iterations * spec.num_threads - spec.num_threads
            if not spec.barrier_sync
            else 0
        )

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Application name from the spec."""
        return self.spec.name

    @property
    def done(self) -> bool:
        """True once every thread finished all iterations."""
        for thread in self.threads:
            if thread.phase is not _DONE:
                return False
        return True

    @property
    def completed_iterations(self) -> int:
        """Number of barrier-to-barrier iterations completed so far."""
        return len(self._completion_times_s)

    @property
    def elapsed_s(self) -> float:
        """Simulated time since the application started."""
        return self._elapsed_s

    def tick(self, dt: float) -> None:
        """Advance the barrier/sync coordination by one tick.

        The scheduler must already have called
        :meth:`~repro.workloads.thread_model.SimThread.execute` on the
        running threads for this tick.
        """
        self._elapsed_s += dt
        if self.done:
            return

        if not self.spec.barrier_sync:
            self._tick_independent(dt)
            return

        if self._sync_remaining_s is not None:
            # The dependent section is in progress.
            self._sync_remaining_s -= dt
            if self._sync_remaining_s <= 0.0:
                self._sync_remaining_s = None
                for thread in self.threads:
                    thread.finish_sync()
            return

        active = []
        all_at_barrier = True
        for thread in self.threads:
            phase = thread.phase
            if phase is _DONE:
                continue
            active.append(thread)
            if phase is not _BARRIER:
                all_at_barrier = False
        if active and all_at_barrier:
            # Barrier reached by everyone: record the iteration and enter
            # the dependent section.
            self._completion_times_s.append(self._elapsed_s)
            for thread in active:
                thread.release_barrier()
            self._sync_remaining_s = self.spec.sync_time_s
            if self._sync_remaining_s <= 0.0:
                self._sync_remaining_s = None
                for thread in active:
                    thread.finish_sync()

    def _tick_independent(self, dt: float) -> None:
        """Per-thread progression for data-parallel applications.

        Each thread runs its own compute -> sync loop with no barrier;
        one application iteration is credited whenever the pool completes
        ``num_threads`` thread-iterations, so throughput stays comparable
        to the barrier-synced metric.
        """
        sync_s = self._thread_sync_s
        spec = self.spec
        for thread in self.threads:
            phase = thread.phase
            if phase is _DONE:
                sync_s.pop(thread.thread_id, None)
                continue
            if phase is _BARRIER:
                thread.release_barrier()
                sync_s[thread.thread_id] = spec.sync_time_s
                phase = _SYNC  # release_barrier: BARRIER -> SYNC
            if phase is _SYNC:
                remaining = sync_s.get(thread.thread_id, 0.0) - dt
                if remaining <= 0.0:
                    sync_s.pop(thread.thread_id, None)
                    has_work = self._queue_remaining > 0
                    if has_work:
                        self._queue_remaining -= 1
                    thread.continue_from_queue(has_work)
                    self._thread_completions += 1
                    if self._thread_completions % spec.num_threads == 0:
                        self._completion_times_s.append(self._elapsed_s)
                else:
                    sync_s[thread.thread_id] = remaining

    # ------------------------------------------------------------------
    # Performance
    # ------------------------------------------------------------------

    def throughput(self, window_s: Optional[float] = None) -> float:
        """Iterations (frames) completed per second.

        Parameters
        ----------
        window_s:
            When given, only iterations completed within the trailing
            window count — this is the per-epoch performance ``P`` the
            reward function uses.  Otherwise the whole-run average.
        """
        if self._elapsed_s <= 0.0:
            return 0.0
        if window_s is None:
            return self.completed_iterations / self._elapsed_s
        window = min(window_s, self._elapsed_s)
        if window <= 0.0:
            return 0.0
        threshold = self._elapsed_s - window
        recent = sum(  # repro: noqa[FP001] reason=integer event count, no float reassociation possible
            1 for t in self._completion_times_s if t > threshold
        )
        return recent / window

    def performance_satisfied(self, window_s: Optional[float] = None) -> bool:
        """Whether the current throughput meets the constraint ``Pc``."""
        return self.throughput(window_s) >= self.spec.performance_constraint
