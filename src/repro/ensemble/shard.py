"""Process sharding of ensemble jobs.

:func:`run_sharded_ensemble_job` is the experiment engine's one
planned dispatch: every ensemble group of a
:class:`~repro.experiments.engine.planner.GridPlan` is split into
per-process member shards (:func:`split_plan`), the shards and the
scalar leftovers run through the engine's one dispatcher — so sharded
execution inherits the engine's per-job timeouts, bounded retries and
worker-pool recovery — and :func:`expand` maps the shard outcomes back
to per-member summaries.  The engine resolves the cache before
planning, stores each member under its scalar key as its shard lands,
counts the stats and records the failures.

Correctness rests on two already-established invariants:

* **Cross-member isolation** — a member's results never depend on which
  other members share its ensemble (see
  :func:`repro.ensemble.runner.run_ensemble_workloads`), so *any*
  partition of the member list reproduces the unsharded results
  bit-for-bit.  This module still fixes one canonical partition
  (contiguous, balanced, order-preserving) so shard job specs — and
  hence their content hashes and failure records — are deterministic
  for a given plan and worker count.
* **Scalar/vector cache equivalence** — every member is built and
  summarised by the scalar runner's own
  :func:`~repro.experiments.runner.build_simulation` and
  :func:`~repro.experiments.runner.summarise`, so its summary is
  bit-identical to the scalar job's, and the engine caches members
  under their own scalar
  :func:`~repro.experiments.engine.spec.job_key`.  Shards therefore
  expand to the same per-seed cache keys as serial and unsharded runs,
  and all of them populate one shared cache.

Checkpointing note: ensemble state snapshots live in process memory
(:meth:`~repro.ensemble.engine.EnsembleSimulation.capture`), so an
engine with disk checkpointing or resume set routes every cell through
the scalar path instead of sharding it; crash recovery for sharded runs
comes from member-level caching (a re-run only re-simulates members
whose summaries were never stored) and from the engine's retry
machinery re-running a failed shard whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from repro.experiments.engine import planner
from repro.experiments.engine.scheduler import ExperimentEngine, JobFailure
from repro.experiments.engine.spec import EnsembleJobSpec, JobSpec, ensemble_job
from repro.experiments.runner import RunSummary

#: One dispatch's jobs, keyed by dispatch slot: ensemble shards and
#: scalar cells alike.
Work = Dict[int, Union[JobSpec, EnsembleJobSpec]]


def shard_members(count: int, shards: int) -> List[range]:
    """Deterministic contiguous member->shard partition.

    Members keep their order; the first ``count % shards`` shards get
    one extra member (``np.array_split`` semantics).  Requesting more
    shards than members yields one single-member shard per member.
    """
    if count < 0:
        raise ValueError(f"member count must be >= 0, got {count}")
    if shards < 1:
        raise ValueError(f"shard count must be >= 1, got {shards}")
    shards = min(shards, count)
    ranges: List[range] = []
    if shards == 0:
        return ranges
    base, extra = divmod(count, shards)
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        ranges.append(range(start, start + size))
        start += size
    return ranges


def split_plan(
    specs: Sequence[JobSpec], plan: planner.GridPlan, jobs: int
) -> Tuple[Work, Dict[int, Tuple[int, ...]]]:
    """The jobs of one dispatch for ``plan`` over ``specs``.

    Every group becomes one contiguous member shard per worker process,
    while each shard keeps at least
    :data:`~repro.experiments.engine.planner.MIN_GROUP` members (read at
    call time), in plan order; the scalar leftovers follow, so the
    largest jobs are queued first.  Returns the dispatch jobs and, per
    slot, the indices into ``specs`` whose summaries the job yields.
    """
    work: Work = {}
    members_of: Dict[int, Tuple[int, ...]] = {}
    for group in plan.groups:
        shards = max(1, min(jobs, len(group) // planner.MIN_GROUP))
        for part in shard_members(len(group), shards):
            members = tuple(group[member] for member in part)
            members_of[len(work)] = members
            work[len(work)] = ensemble_job(specs[index] for index in members)
    for index in plan.scalar:
        members_of[len(work)] = (index,)
        work[len(work)] = specs[index]
    return work, members_of


def expand(
    work: Work, members_of: Dict[int, Tuple[int, ...]], outcomes: Dict[int, object]
) -> Dict[int, RunSummary]:
    """Per-spec summaries of every dispatch slot that landed: a shard's
    member summaries in member order, a scalar cell's one summary."""
    summaries: Dict[int, RunSummary] = {}
    for slot, outcome in sorted(outcomes.items()):
        results = outcome if isinstance(work[slot], EnsembleJobSpec) else [outcome]
        summaries.update(zip(members_of[slot], results))
    return summaries


@dataclass
class ShardedRunReport:
    """Outcome of one planned dispatch.

    ``summaries`` maps every index into the dispatched specs whose job
    landed to its summary; a member of a shard that exhausted its
    retries is missing, and one structured :class:`JobFailure` per
    member of the failed shard — keyed by the member's scalar job key —
    appears in ``failures``, so failures degrade exactly the cells that
    were actually lost.  ``shards`` counts the ensemble shards
    dispatched (scalar leftovers are not shards).
    """

    summaries: Dict[int, RunSummary] = field(default_factory=dict)
    failures: List[JobFailure] = field(default_factory=list)
    shards: int = 0


def run_sharded_ensemble_job(
    specs: Sequence[JobSpec], plan: planner.GridPlan, engine: ExperimentEngine
) -> ShardedRunReport:
    """Execute ``specs`` as ``plan`` lays them out, in one dispatch.

    Every group is split into at most ``engine.jobs`` member shards
    (:func:`split_plan`); the shards and the scalar leftovers go through
    the engine's dispatcher together — one worker pool, or inline when
    ``engine.jobs == 1`` — which stores each job's summaries in the
    engine's cache as it lands.  Cache resolution happens before
    planning, in the engine; failures are returned in the report, not
    recorded on the engine.
    """
    work, members_of = split_plan(specs, plan, engine.jobs)
    outcomes, failures = engine._dispatch(work)
    return ShardedRunReport(
        summaries=expand(work, members_of, outcomes),
        failures=failures,
        shards=len([job for job in work.values() if isinstance(job, EnsembleJobSpec)]),
    )
