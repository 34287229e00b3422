"""Process sharding of ensemble jobs.

Splits one :class:`~repro.experiments.engine.spec.EnsembleJobSpec` into
per-process member shards, executes them through the experiment
engine's dispatcher — so sharded execution inherits the engine's
per-job timeouts, bounded retries and worker-pool recovery — and
expands the shard outcomes back into per-member summaries.  It is a
pure split → execute → expand step: the engine resolves the cache
before planning, stores each member under its scalar key as its shard
lands, counts the stats and records the failures.

Correctness rests on two already-established invariants:

* **Cross-member isolation** — a member's results never depend on which
  other members share its ensemble (see
  :func:`repro.ensemble.runner.run_ensemble_workloads`), so *any*
  partition of the member list reproduces the unsharded results
  bit-for-bit.  This module still fixes one canonical partition
  (contiguous, balanced, order-preserving) so shard job specs — and
  hence their content hashes and failure records — are deterministic
  for a given ``(spec, shards)`` pair.
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
(:meth:`~repro.ensemble.engine.EnsembleSimulation.capture`), so the
engine's *disk* checkpoint settings do not apply to ensemble shards;
crash recovery for sharded runs comes from member-level caching (a
re-run only re-simulates members whose summaries were never stored) and
from the engine's retry machinery re-running a failed shard whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.experiments.engine.scheduler import ExperimentEngine, JobFailure
from repro.experiments.engine.spec import EnsembleJobSpec, ensemble_job
from repro.experiments.runner import RunSummary


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


@dataclass
class ShardedRunReport:
    """Outcome of one sharded ensemble job.

    ``summaries`` aligns index-for-index with the job's members; a
    member of a shard that exhausted its retries is ``None`` and one
    structured :class:`JobFailure` per member of the failed shard —
    keyed by the member's scalar job key — appears in ``failures``, so
    failures degrade exactly the cells that were actually lost.
    """

    summaries: List[Optional[RunSummary]] = field(default_factory=list)
    failures: List[JobFailure] = field(default_factory=list)
    shards: int = 0


def run_sharded_ensemble_job(
    spec: EnsembleJobSpec, engine: ExperimentEngine
) -> ShardedRunReport:
    """Execute an ensemble job as ``engine.jobs`` member shards.

    Every member of ``spec`` runs: cache resolution is the engine's job
    and happens before planning.  The shards go through the engine's
    dispatcher, which stores each shard's members in the engine's cache
    as the shard lands; with ``engine.jobs == 1`` the single shard runs
    inline, still with bounded retries.  Failures are returned in the
    report; :meth:`ExperimentEngine.run` records and counts them.
    """
    members = list(spec.members)
    parts = shard_members(len(members), engine.jobs)
    shard_specs = {
        index: ensemble_job(members[member] for member in part)
        for index, part in enumerate(parts)
    }
    outcomes, failures = engine._dispatch(shard_specs)
    report = ShardedRunReport(
        summaries=[None] * len(members), failures=failures, shards=len(parts)
    )
    for index, part in enumerate(parts):
        for member, summary in zip(part, outcomes.get(index, ())):
            report.summaries[member] = summary
    return report
