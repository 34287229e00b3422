"""Job execution: the function a worker process actually runs.

:func:`execute_job` is the one entry point for every job the engine
dispatches — a scalar cell goes to :func:`repro.experiments.runner.run_job`,
an ensemble shard to :func:`repro.ensemble.runner.run_ensemble_workloads`,
and either gets the same per-job checkpoint store; caching, retries and
failure records stay with the engine.  Kept in its own module (no
engine/scheduler imports) so ``ProcessPoolExecutor`` can pickle the
callable cheaply and a worker process only imports what one simulation
needs.
"""

from __future__ import annotations

import shutil
from typing import List, Optional, Union

from repro.experiments.engine.spec import EnsembleJobSpec, JobSpec
from repro.experiments.runner import RunSummary, run_job


def execute_job(
    spec: Union[JobSpec, EnsembleJobSpec],
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
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
    checkpoint_every / checkpoint_dir / resume:
        When ``checkpoint_dir`` (the job's own store, named by the
        engine's :func:`~repro.experiments.engine.scheduler.job_checkpoint_dir`)
        is given, the job — a scalar cell or a whole ensemble shard —
        snapshots its full state there every ``checkpoint_every`` ticks
        and, with ``resume``, restarts from the newest valid checkpoint
        there.  The directory is removed once the job completes.
    """
    outcome: Union[RunSummary, List[RunSummary]]
    if isinstance(spec, EnsembleJobSpec):
        # Lazy import: workers running scalar jobs never pay for the
        # ensemble machinery.
        from repro.ensemble.runner import run_ensemble_workloads

        outcome = run_ensemble_workloads(
            spec.members, checkpoint_every, checkpoint_dir, resume
        )
    else:
        outcome = run_job(
            spec,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )
    if checkpoint_dir is not None:
        # The job finished; its checkpoints have served their purpose.
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    return outcome
