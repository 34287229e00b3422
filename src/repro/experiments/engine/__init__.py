"""Parallel, content-addressed experiment engine.

Every paper artefact is a grid of independent, deterministic,
seeded simulations.  This package turns each grid cell into a hashable
:class:`JobSpec`, fans batches of specs out across worker processes
with deterministic result ordering (:class:`ExperimentEngine`), and
memoises completed runs in a content-addressed on-disk cache
(:class:`ResultCache`) keyed by a stable hash of the spec, the package
version and the behavior-closure digest — see DESIGN.md, "Job hashing
and the result cache".

Layout:

* :mod:`~repro.experiments.engine.spec` — job descriptions + hashing;
* :mod:`~repro.experiments.engine.cache` — the on-disk result store and
  the artifact-routing policy for reduced-scale sweeps;
* :mod:`~repro.experiments.engine.worker` — the per-process job entry;
* :mod:`~repro.experiments.engine.scheduler` — batch execution;
* :mod:`~repro.experiments.engine.planner` — the ensemble grid planner
  batching scalar sweep cells into vectorized ensemble groups;
* :mod:`~repro.experiments.engine.sweep` — ``repro all`` (imported
  lazily by the CLI; not re-exported here to keep experiment modules
  importable from this package without a cycle).
"""

from repro.experiments.engine.cache import (
    CACHE_DIR_ENV,
    CacheStats,
    ResultCache,
    artifact_dir,
    default_cache_root,
)
from repro.experiments.engine.planner import GridPlan, plan_grid
from repro.experiments.engine.scheduler import (
    EngineStats,
    ExperimentEngine,
)
from repro.experiments.engine.spec import (
    CLOSURE_DIGEST_ENV,
    CLOSURE_ROOT_ENV,
    EnsembleJobSpec,
    JobSpec,
    behavior_digest,
    canonical_json,
    canonicalise,
    ensemble_job,
    job_key,
    scenario_job,
    workload_job,
)
from repro.experiments.engine.worker import execute_job

__all__ = [
    "CACHE_DIR_ENV",
    "CLOSURE_DIGEST_ENV",
    "CLOSURE_ROOT_ENV",
    "CacheStats",
    "EngineStats",
    "EnsembleJobSpec",
    "ExperimentEngine",
    "GridPlan",
    "JobSpec",
    "ResultCache",
    "artifact_dir",
    "behavior_digest",
    "canonical_json",
    "canonicalise",
    "default_cache_root",
    "ensemble_job",
    "execute_job",
    "job_key",
    "plan_grid",
    "scenario_job",
    "workload_job",
]
