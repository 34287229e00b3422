"""Ensemble execution of experiment-engine job specs.

Builds one scalar :class:`~repro.soc.simulator.Simulation` per member
with the scalar runner's own
:func:`~repro.experiments.runner.build_simulation`, adopts them into an
:class:`~repro.ensemble.engine.EnsembleSimulation`, and reduces each
member's result with the same :func:`~repro.experiments.runner.summarise`
— so a member's :class:`~repro.experiments.runner.RunSummary` is
bit-identical to what :func:`~repro.experiments.runner.run_job` would
have produced, and can therefore share the content-addressed result
cache with scalar runs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.ensemble.engine import EnsembleSimulation
from repro.experiments.engine.spec import JobSpec, ensemble_job
from repro.experiments.runner import (
    RunSummary,
    arm_checkpoints,
    build_simulation,
    summarise,
)


def run_ensemble_workloads(
    specs: Sequence[JobSpec],
    checkpoint_every: Optional[int] = None,
    checkpoint_dir=None,
    resume=False,
) -> List[RunSummary]:
    """Run job specs — workloads and scenarios alike, supervised or not —
    as one ensemble; one summary per spec.

    The specs must form a valid
    :class:`~repro.experiments.engine.spec.EnsembleJobSpec` (one
    platform).  Member results do not depend on
    which other members share the ensemble (cross-member isolation), so
    any subset of a job list can be batched together without changing
    anyone's summary.  ``checkpoint_every``/``checkpoint_dir``/``resume``
    checkpoint the whole ensemble into one store and resume it from
    there, as :func:`~repro.experiments.runner.run_job` does a scalar
    job (:func:`~repro.experiments.runner.arm_checkpoints`).
    """
    specs = ensemble_job(specs).members
    simulations = [build_simulation(spec) for spec in specs]
    ensemble = EnsembleSimulation(simulations)
    arm_checkpoints(ensemble, checkpoint_every, checkpoint_dir, resume)
    results = ensemble.run()
    return [
        summarise(spec, sim, result)
        for spec, sim, result in zip(specs, simulations, results)
    ]
