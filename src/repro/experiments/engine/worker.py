"""Job execution: the function a worker process actually runs.

:func:`execute_job` is the one entry point for every job the engine
dispatches — a scalar cell goes to :func:`repro.experiments.runner.run_job`,
an ensemble shard to :func:`repro.ensemble.runner.run_ensemble_workloads`;
caching, retries and failure records stay with the engine.  Kept in its
own module (no engine/scheduler imports) so ``ProcessPoolExecutor`` can
pickle the callable cheaply and a worker process only imports what one
simulation needs.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import List, Optional, Union

from repro.experiments.engine.spec import EnsembleJobSpec, JobSpec, job_key
from repro.experiments.runner import RunSummary, run_job


def job_checkpoint_dir(checkpoint_root: Union[str, Path], spec: JobSpec) -> Path:
    """Per-job checkpoint directory, keyed by the spec's content hash."""
    return Path(checkpoint_root) / job_key(spec)[:16]


def execute_job(
    spec: Union[JobSpec, EnsembleJobSpec],
    checkpoint_every: Optional[int] = None,
    checkpoint_root: Optional[str] = None,
    resume: bool = False,
) -> Union[RunSummary, "List[RunSummary]"]:
    """Execute one job spec serially in this process.

    An :class:`EnsembleJobSpec` runs through the vectorized ensemble
    engine and yields one ``RunSummary`` per member, in member order;
    a scalar spec yields its single summary.

    Parameters
    ----------
    spec:
        The job to run.  Checkpoint settings deliberately do NOT live on
        the spec: they change crash-recovery behaviour, never results,
        so cache keys stay stable with or without checkpointing.
    checkpoint_every / checkpoint_root / resume:
        When ``checkpoint_root`` is given, the simulation snapshots its
        full state every ``checkpoint_every`` ticks into a per-job
        directory (keyed by the spec hash) and, with ``resume``,
        restarts from the newest valid checkpoint there.  The directory
        is removed once the job completes.

        Ensemble shards are exempt: their snapshots live in process
        memory (``EnsembleSimulation.capture``), so disk checkpoint
        settings are ignored for :class:`EnsembleJobSpec` jobs.  The
        engine never sends one with checkpointing or resume set — it
        routes every cell scalar then; otherwise crash recovery for
        shards comes from the engine caching each member as its shard
        lands.
    """
    if isinstance(spec, EnsembleJobSpec):
        # Lazy import: workers running scalar jobs never pay for the
        # ensemble machinery.
        from repro.ensemble.runner import run_ensemble_workloads

        return run_ensemble_workloads(spec.members)
    checkpoint_dir: Optional[str] = None
    if checkpoint_root is not None:
        checkpoint_dir = str(job_checkpoint_dir(checkpoint_root, spec))
    summary = run_job(
        spec,
        checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
    if checkpoint_dir is not None:
        # The job finished; its checkpoints have served their purpose.
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    return summary

