"""The parallel, cache-aware job scheduler.

:class:`ExperimentEngine` takes a batch of :class:`JobSpec` objects and
returns their :class:`~repro.experiments.runner.RunSummary` results *in
submission order*, regardless of how many worker processes executed them
or which came back from the cache.  :meth:`ExperimentEngine.run` is the
only way a batch executes; the pipeline per batch is:

1. deduplicate equal specs (deterministic simulations make duplicates
   free to share);
2. resolve cache hits;
3. plan the misses into ensemble groups of at least
   :data:`~repro.experiments.engine.planner.MIN_GROUP` members, each
   split into member shards by :mod:`repro.ensemble.shard`, plus the
   scalar leftovers (``ensemble=False``, or checkpointing or resume
   set, runs every miss as a scalar job);
4. dispatch the jobs in one go — inline when ``jobs == 1`` or there is
   one job, else fanned out over one ``ProcessPoolExecutor``;
5. store each fresh result in the cache as it lands (an ensemble shard
   stores one entry per member, under the member's scalar key);
6. fold the batch into the attached metrics registry.

Only the engine resolves the cache, counts :class:`EngineStats` and
records failures; the shard layer is a pure split → execute → expand
step over the engine's dispatcher.

Every job runs through :func:`~repro.experiments.engine.worker.execute_job`,
so a scalar cell takes :func:`~repro.experiments.runner.run_job`, the
one job path.  With ``jobs=1`` and no cache the engine degenerates to
calling it in a loop — with ``ensemble=False`` that is the scalar
reference path the bit-identity guarantee (ensemble-routed, parallel
and cached output == serial scalar output) is tested against.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from typing import (
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.config import EngineConfig
from repro.experiments.engine.cache import ResultCache
from repro.experiments.engine.spec import EnsembleJobSpec, JobSpec, job_key
from repro.experiments.engine.worker import execute_job
from repro.experiments.runner import RunSummary
from repro.obs.metrics import (
    DURATION_BUCKETS_S,
    MetricsRegistry,
    TEMPERATURE_BUCKETS_C,
)

#: Poll period of the parallel wait loop when a job timeout is armed.
_TIMEOUT_POLL_S = 0.1

#: A grid cell's label (an experiment's row/column coordinates).
Label = TypeVar("Label", bound=Hashable)


@dataclass
class EngineStats:
    """Lifetime accounting of one engine instance."""

    #: Jobs submitted across all batches (before deduplication).
    submitted: int = 0
    #: Unique jobs that actually ran a simulation.
    executed: int = 0
    #: Jobs resolved from the cache.
    cache_hits: int = 0
    #: Unique jobs that missed the cache (equals ``executed`` when a
    #: cache is attached).
    cache_misses: int = 0
    #: Duplicate submissions shared within batches.
    deduplicated: int = 0
    #: Failed attempts that were retried.
    retried: int = 0
    #: Jobs that exhausted every attempt.
    failed: int = 0
    #: Attempts killed by the per-job timeout.
    timeouts: int = 0
    #: Worker-pool respawns (timeout kills and broken-pool recoveries).
    pool_restarts: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view (for logging and tests), in field order."""
        return asdict(self)


@dataclass(frozen=True)
class JobFailure:
    """Structured record of a job that exhausted its attempts.

    Replaces the bare worker traceback with everything needed to triage
    and re-run the job: the spec's content hash, a display label, how
    many attempts were burned over how long, the final error, and
    whether the last attempt was killed by the timeout.
    """

    key: str
    label: str
    attempts: int
    duration_s: float
    error_type: str
    message: str
    timed_out: bool = False

    def as_dict(self) -> dict:
        """Plain-dict view (manifest records, summaries), in field order."""
        return asdict(self)


class EngineJobError(RuntimeError):
    """A batch had jobs that failed after exhausting their retries.

    ``failures`` holds one :class:`JobFailure` per failed cell;
    ``results`` aligns with the submitted batch and holds ``None`` for
    every failed cell, so callers can still report the cells that ran.
    """

    def __init__(
        self,
        failures: Sequence[JobFailure],
        results: Sequence[Optional[RunSummary]] = (),
    ) -> None:
        self.failures = list(failures)
        self.results = list(results)
        lines = [f"{len(self.failures)} job(s) failed after retries:"]
        for failure in self.failures:
            suffix = " (timed out)" if failure.timed_out else ""
            lines.append(
                f"  {failure.label} [{failure.key[:12]}] — "
                f"{failure.error_type}: {failure.message}"
                f" ({failure.attempts} attempts{suffix})"
            )
        super().__init__("\n".join(lines))


@dataclass
class ExperimentEngine:
    """Run batches of simulation jobs, optionally parallel and cached.

    Parameters
    ----------
    jobs:
        Worker processes; 1 executes inline in this process.
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching.  The
        default engine (``ExperimentEngine()``) is serial and uncached.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  After
        every batch the engine folds its scheduling counters and
        per-job rollups (average temperature, execution time) into it,
        in submission order — so serial and parallel execution of the
        same batch produce identical metric state.
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    stats: EngineStats = field(default_factory=EngineStats)
    metrics: Optional[MetricsRegistry] = None
    #: Wall-clock budget per cell and attempt (parallel mode only): an
    #: ensemble shard's attempt gets one budget per member.  ``None``
    #: disables the timeout.
    job_timeout_s: Optional[float] = None
    #: Total attempts per job before a structured failure is recorded.
    max_job_attempts: int = 3
    #: Checkpoint cadence (ticks) and per-job store root; see worker.
    #: A cadence, like ``resume``, needs the root.
    checkpoint_every: Optional[int] = None
    checkpoint_dir: Optional[str] = None
    #: Resume interrupted jobs from their newest valid checkpoint.
    resume: bool = False
    #: Route each batch through the ensemble grid planner: cells that
    #: share a platform closure are batched into vectorized ensemble
    #: shards (see :mod:`repro.experiments.engine.planner`); everything
    #: else runs on the scalar path.  Bit-identical either way;
    #: ``False`` is the all-scalar reference the identity tests compare
    #: with.  Checkpointing or resume routes every cell scalar, since
    #: ensemble shards keep no disk checkpoints.
    ensemble: bool = True
    #: Structured failure records accumulated over the engine's life.
    failures: List[JobFailure] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.max_job_attempts < 1:
            raise ValueError(
                f"max_job_attempts must be >= 1, got {self.max_job_attempts}"
            )
        if self.checkpoint_dir is None and (
            self.checkpoint_every is not None or self.resume
        ):
            raise ValueError("checkpoint_every and resume need a checkpoint_dir")

    @classmethod
    def from_config(cls, config: EngineConfig) -> "ExperimentEngine":
        """Build an engine from an :class:`repro.config.EngineConfig`."""
        cache = ResultCache(root=config.cache_dir) if config.use_cache else None
        return cls(
            jobs=config.jobs,
            cache=cache,
            job_timeout_s=config.job_timeout_s,
            max_job_attempts=config.max_job_attempts,
            checkpoint_every=config.checkpoint_every,
            checkpoint_dir=config.checkpoint_dir,
            resume=config.resume,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, specs: Sequence[JobSpec]) -> List[RunSummary]:
        """Execute a batch; results align index-for-index with ``specs``."""
        specs = list(specs)
        self.stats.submitted += len(specs)

        # Deduplicate: map each submission to the first equal spec.
        unique: List[JobSpec] = []
        slot_of: Dict[JobSpec, int] = {}
        placement: List[int] = []
        for spec in specs:
            if spec not in slot_of:
                slot_of[spec] = len(unique)
                unique.append(spec)
            else:
                self.stats.deduplicated += 1
            placement.append(slot_of[spec])

        results: List[Optional[RunSummary]] = [None] * len(unique)
        pending: List[int] = []
        for index, spec in enumerate(unique):
            if self.cache is not None:
                summary = self.cache.get(spec)
                if summary is not None:
                    self.stats.cache_hits += 1
                    results[index] = summary
                    continue
                self.stats.cache_misses += 1
            pending.append(index)

        failures: List[JobFailure] = []
        if pending:
            self.stats.executed += len(pending)
            jobs = {index: unique[index] for index in pending}
            checkpointed = self.checkpoint_every is not None or self.resume
            if self.ensemble and not checkpointed:
                outcomes, failures = self._execute_ensemble(jobs)
            else:
                outcomes, failures = self._dispatch(jobs)
            for index, summary in sorted(outcomes.items()):
                results[index] = summary

        ordered = [results[slot] for slot in placement]
        if self.metrics is not None:
            self._fold_metrics(len(specs), len(pending), ordered)
        if failures:
            self.failures.extend(failures)
            raise EngineJobError(failures, ordered)
        return ordered

    def run_grid(self, grid: Mapping[Label, JobSpec]) -> Dict[Label, RunSummary]:
        """Execute a labelled grid (an experiment's ``cells``) as one
        batch; every label maps to its cell's summary."""
        return dict(zip(grid, self.run(list(grid.values()))))

    # ------------------------------------------------------------------
    # Hardened execution paths
    # ------------------------------------------------------------------

    def _worker_args(self) -> Tuple[Optional[int], Optional[str], bool]:
        """Checkpoint settings forwarded to every ``execute_job`` call."""
        return (self.checkpoint_every, self.checkpoint_dir, self.resume)

    def _store(
        self, spec: JobSpec, outcome: Union[RunSummary, List[RunSummary]]
    ) -> None:
        """Persist one fresh result the moment it lands.

        Caching per arrival (instead of per batch) means a crash of the
        driver process loses at most the jobs still in flight.  An
        :class:`EnsembleJobSpec` outcome is one summary per member; each
        is stored under its member's scalar :func:`job_key`, so shards,
        serial runs and sweeps share one cache.
        """
        if self.cache is None:
            return
        if isinstance(spec, EnsembleJobSpec):
            for member, summary in zip(spec.members, outcome):
                self.cache.put(member, summary)
        else:
            self.cache.put(spec, outcome)

    def _failures_for(
        self,
        spec: JobSpec,
        attempts: int,
        duration_s: float,
        error: BaseException,
        timed_out: bool = False,
    ) -> List[JobFailure]:
        """Structured failure records for one exhausted job.

        An :class:`EnsembleJobSpec` expands to one failure *per member*,
        keyed by the member's scalar :func:`job_key` — so a failed shard
        degrades exactly its members' cells and a sweep re-run (whose
        cache holds every member of the shards that did succeed) only
        re-executes the members that actually failed.
        """
        members: Sequence[JobSpec]
        if isinstance(spec, EnsembleJobSpec):
            members = spec.members
        else:
            members = (spec,)
        self.stats.failed += len(members)
        return [
            JobFailure(
                key=job_key(member),
                label=member.label,
                attempts=attempts,
                duration_s=duration_s,
                error_type=type(error).__name__,
                message=str(error) or type(error).__name__,
                timed_out=timed_out,
            )
            for member in members
        ]

    def _dispatch(
        self, jobs: Dict[int, JobSpec]
    ) -> Tuple[Dict[int, RunSummary], List[JobFailure]]:
        """Execute ``jobs`` with retries: inline when ``jobs == 1`` or
        there is one job, else over the worker pool.  Every result is
        stored as it lands; failures are returned, not recorded."""
        if self.jobs == 1 or len(jobs) == 1:
            return self._execute_serial(jobs)
        return self._execute_parallel(jobs)

    def _execute_ensemble(
        self, jobs: Dict[int, JobSpec]
    ) -> Tuple[Dict[int, RunSummary], List[JobFailure]]:
        """Route one pending batch through the ensemble grid planner.

        The planner partitions the (already cache-missed, deduplicated)
        batch into platform-uniform member groups plus scalar leftovers,
        and :func:`repro.ensemble.shard.run_sharded_ensemble_job` sends
        every group's member shards and the leftovers through one
        :meth:`_dispatch` — one worker pool per batch — whose
        :meth:`_store` caches every member under its scalar key as its
        shard lands.  A group is split into shards only while each
        keeps at least :data:`~repro.experiments.engine.planner.MIN_GROUP`
        members.  Every member summary is bit-identical to scalar
        execution, so this changes *throughput only* — never bytes.

        Imports lazily and looks the shard entry point up at call time:
        the shard layer sits above the scheduler in the module graph, so
        a top-level import would be cyclic, and a process that never
        plans pays nothing for it.
        """
        from repro.ensemble import shard
        from repro.experiments.engine import planner

        indices = sorted(jobs)
        specs = [jobs[index] for index in indices]
        report = shard.run_sharded_ensemble_job(specs, planner.plan_grid(specs), self)
        return {
            indices[local]: summary
            for local, summary in sorted(report.summaries.items())
        }, report.failures

    def _execute_serial(
        self, jobs: Dict[int, JobSpec]
    ) -> Tuple[Dict[int, RunSummary], List[JobFailure]]:
        """Inline execution with bounded retries (no timeout machinery:
        a hung job in-process would hang the caller regardless)."""
        outcomes: Dict[int, RunSummary] = {}
        failures: List[JobFailure] = []
        for index in sorted(jobs):
            spec = jobs[index]
            attempts = 0
            started = time.perf_counter()
            while True:
                attempts += 1
                try:
                    summary = execute_job(spec, *self._worker_args())
                except Exception as error:
                    if attempts >= self.max_job_attempts:
                        failures.extend(
                            self._failures_for(
                                spec,
                                attempts,
                                time.perf_counter() - started,
                                error,
                            )
                        )
                        break
                    self.stats.retried += 1
                    continue
                outcomes[index] = summary
                self._store(spec, summary)
                break
        return outcomes, failures

    def _execute_parallel(
        self, jobs: Dict[int, JobSpec]
    ) -> Tuple[Dict[int, RunSummary], List[JobFailure]]:
        """Submit-based fan-out with timeouts, retries and pool recovery.

        Unlike ``pool.map``, each job is tracked individually: a worker
        exception burns one attempt and requeues the job; an attempt
        exceeding its budget (``job_timeout_s`` per cell, so times the
        member count for an ensemble shard) gets its worker killed (terminating
        the pool — sibling jobs are requeued without burning attempts);
        a ``BrokenProcessPool`` respawns the pool and requeues only the
        jobs that were in flight.
        """
        workers = min(self.jobs, len(jobs))
        # The timeout is a per-cell budget: a shard of N members may run
        # N times as long as one scalar cell before it is killed.
        limits = {
            index: (self.job_timeout_s or 0.0)
            * len(getattr(jobs[index], "members", (jobs[index],)))
            for index in sorted(jobs)
        }
        outcomes: Dict[int, RunSummary] = {}
        failures: List[JobFailure] = []
        attempts: Dict[int, int] = {index: 0 for index in jobs}
        started: Dict[int, float] = {}
        queue: deque = deque(sorted(jobs))
        inflight: Dict[object, Tuple[int, float]] = {}
        pool = ProcessPoolExecutor(max_workers=workers)

        def attempt_failed(index: int, error: BaseException, timed_out: bool) -> None:
            if attempts[index] >= self.max_job_attempts:
                failures.extend(
                    self._failures_for(
                        jobs[index],
                        attempts[index],
                        time.perf_counter() - started[index],
                        error,
                        timed_out=timed_out,
                    )
                )
            else:
                self.stats.retried += 1
                queue.append(index)

        def respawn_pool() -> None:
            nonlocal pool
            self.stats.pool_restarts += 1
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.terminate()
                except Exception:
                    pass
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            pool = ProcessPoolExecutor(max_workers=workers)

        def requeue_inflight(charge_attempt: bool) -> None:
            for future, (index, _submitted) in list(inflight.items()):
                del inflight[future]
                if not charge_attempt:
                    # Collateral of a sibling's timeout kill or a pool
                    # crash attributed elsewhere: give the attempt back.
                    attempts[index] -= 1
                queue.append(index)

        try:
            while queue or inflight:
                while queue and len(inflight) < workers:
                    index = queue.popleft()
                    attempts[index] += 1
                    now = time.perf_counter()
                    started.setdefault(index, now)
                    try:
                        future = pool.submit(
                            execute_job, jobs[index], *self._worker_args()
                        )
                    except BrokenProcessPool:
                        # Pool died between batches of submissions.
                        attempts[index] -= 1
                        queue.appendleft(index)
                        requeue_inflight(charge_attempt=False)
                        respawn_pool()
                        continue
                    inflight[future] = (index, now)
                poll = _TIMEOUT_POLL_S if self.job_timeout_s is not None else None
                done, _ = wait(
                    set(inflight), timeout=poll, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in done:
                    index, _submitted = inflight.pop(future)
                    try:
                        summary = future.result()
                    except BrokenProcessPool as error:
                        # The pool died under this job (or a sibling);
                        # charge this job the attempt, requeue the rest
                        # for free, and start a fresh pool.
                        broken = True
                        attempt_failed(index, error, timed_out=False)
                    except Exception as error:
                        attempt_failed(index, error, timed_out=False)
                    else:
                        outcomes[index] = summary
                        self._store(jobs[index], summary)
                if broken:
                    requeue_inflight(charge_attempt=False)
                    respawn_pool()
                    continue
                if self.job_timeout_s is not None and inflight:
                    now = time.perf_counter()
                    expired = [
                        (future, index)
                        for future, (index, submitted) in sorted(
                            inflight.items(), key=lambda item: item[1][0]
                        )
                        if now - submitted >= limits[index] and not future.done()
                    ]
                    if expired:
                        for future, index in expired:
                            del inflight[future]
                            self.stats.timeouts += 1
                            attempt_failed(
                                index,
                                TimeoutError(
                                    f"attempt exceeded {limits[index]:g} s"
                                ),
                                timed_out=True,
                            )
                        # Killing a worker mid-job requires killing the
                        # pool; jobs caught in the blast radius are
                        # requeued without burning an attempt.
                        requeue_inflight(charge_attempt=False)
                        respawn_pool()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        return outcomes, failures

    def _fold_metrics(
        self,
        submitted: int,
        executed: int,
        ordered: Sequence[Optional[RunSummary]],
    ) -> None:
        """Roll one batch up into the attached metrics registry; failed
        cells (``None``) add no per-job rollup."""
        registry = self.metrics
        registry.counter(
            "repro_engine_jobs_submitted_total", "jobs submitted to the engine"
        ).inc(submitted)
        registry.counter(
            "repro_engine_jobs_executed_total", "jobs that ran a simulation"
        ).inc(executed)
        registry.gauge(
            "repro_engine_cache_hits", "lifetime cache hits of this engine"
        ).set(self.stats.cache_hits)
        registry.gauge(
            "repro_engine_cache_misses", "lifetime cache misses of this engine"
        ).set(self.stats.cache_misses)
        registry.gauge(
            "repro_engine_deduplicated", "lifetime duplicate submissions shared"
        ).set(self.stats.deduplicated)
        temp_hist = registry.histogram(
            "repro_job_avg_temp_c",
            TEMPERATURE_BUCKETS_C,
            "per-job average temperature (degC)",
        )
        time_hist = registry.histogram(
            "repro_job_execution_time_s",
            DURATION_BUCKETS_S,
            "per-job simulated execution time (s)",
        )
        for summary in ordered:
            if summary is None:  # a failed cell
                continue
            temp_hist.observe(summary.average_temp_c)
            time_hist.observe(summary.execution_time_s)

    def run_one(self, spec: JobSpec) -> RunSummary:
        """Convenience wrapper for a single job."""
        return self.run([spec])[0]
