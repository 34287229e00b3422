"""Ensemble execution of experiment-engine job specs.

Builds one scalar :class:`~repro.soc.simulator.Simulation` per member
through the *same* setup helper the scalar runner uses
(:func:`repro.experiments.runner._build_workload_setup`), adopts them
into an :class:`~repro.ensemble.engine.EnsembleSimulation`, and reduces
each member's result through the same summary helper — so a member's
:class:`~repro.experiments.runner.RunSummary` is bit-identical to what
``run_workload`` would have produced, and can therefore share the
content-addressed result cache with scalar runs.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.config import default_reliability_config
from repro.ensemble.engine import EnsembleSimulation
from repro.experiments.engine.spec import JobSpec
from repro.experiments.runner import (
    RunSummary,
    _build_workload_setup,
    _summarise_workload,
    _validate_policy,
)
from repro.soc.simulator import Simulation

#: ``run_workload``'s default safety limit, applied when a member spec
#: leaves ``max_time_s`` unset (mirrors the worker's kwarg elision).
_DEFAULT_MAX_TIME_S = 20000.0


def _member_simulation(spec: JobSpec) -> Simulation:
    """One member's simulation, built exactly like the scalar runner's."""
    if spec.kind != "workload":
        raise ValueError(
            f"ensembles run workload jobs only, got kind {spec.kind!r}"
        )
    _validate_policy(spec.policy)
    return _build_workload_setup(
        spec.app,
        spec.dataset,
        spec.policy,
        seed=spec.seed,
        train_passes=spec.train_passes,
        agent_config=spec.agent_config,
        reliability=spec.reliability,
        platform=spec.platform,
        action_space=spec.action_space(),
        ge_config=spec.ge_config,
        mapping=spec.mapping,
        iteration_scale=spec.iteration_scale,
        max_time_s=(
            spec.max_time_s
            if spec.max_time_s is not None
            else _DEFAULT_MAX_TIME_S
        ),
        faults=spec.faults,
        supervisor=spec.supervisor,
    )


def run_ensemble_workloads(specs: Sequence[JobSpec]) -> List[RunSummary]:
    """Run workload job specs as one ensemble; one summary per spec.

    Member results do not depend on which other members share the
    ensemble (cross-member isolation), so any subset of a job list can
    be batched together without changing anyone's summary.
    """
    specs = list(specs)
    simulations = [_member_simulation(spec) for spec in specs]
    ensemble = EnsembleSimulation(simulations)
    results = ensemble.run()
    summaries: List[RunSummary] = []
    for spec, sim, result in zip(specs, simulations, results):
        reliability = (
            spec.reliability
            if spec.reliability is not None
            else default_reliability_config()
        )
        dataset = (
            spec.dataset
            if spec.dataset is not None
            else sim.applications[-1].spec.dataset
        )
        summaries.append(
            _summarise_workload(
                result,
                spec.app,
                dataset,
                spec.policy,
                spec.train_passes,
                reliability,
            )
        )
    return summaries

