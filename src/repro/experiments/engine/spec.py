"""Hashable job descriptions for the experiment engine.

A :class:`JobSpec` is the complete, immutable description of one
simulation job — everything :func:`repro.experiments.runner.run_job`
needs to produce a :class:`~repro.experiments.runner.RunSummary`.
Because every simulation is deterministic and seeded, the spec *is* the
result's identity: two equal specs always produce bit-identical
summaries, which is what makes the content-addressed cache
(:mod:`repro.experiments.engine.cache`) sound.

The cache key is a SHA-256 over a canonical JSON rendering of the spec
plus the package version plus the **behavior-closure digest**
(:func:`job_key`).  The rendering walks nested dataclasses field by
field and tags each with its qualified class name, so *any* config-field
change — a new default, a renamed field, a tweaked probability — changes
the key.  The closure digest (:func:`behavior_digest`, computed by
:mod:`repro.analysis.lint.closure`) fingerprints every module
transitively reachable from the job executors, so editing simulation
*code* re-keys the cache automatically too, while doc-only edits leave
keys — and therefore warm caches — untouched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import repro
from repro.config import (
    AgentConfig,
    FaultConfig,
    GeQiuConfig,
    PlatformConfig,
    ReliabilityConfig,
    SupervisorConfig,
)
from repro.core.actions import Action, ActionSpace
from repro.sched.affinity import AffinityMapping

#: Job kinds the engine knows how to execute.
JOB_KINDS: Tuple[str, ...] = ("workload", "scenario")


@dataclass(frozen=True)
class JobSpec:
    """One (workload|scenario, policy, configuration) simulation job.

    Mirrors the keyword surface of the runner entry points; ``None``
    config fields mean "the runner's default", exactly like calling the
    runner directly (:func:`~repro.experiments.runner.build_simulation`
    applies every default).  ``actions`` holds the :class:`ActionSpace`
    content as a plain tuple so the spec stays hashable and picklable.
    """

    kind: str
    #: Workload jobs: the application name.  Scenario jobs: unused.
    app: Optional[str] = None
    #: Scenario jobs: the application sequence.  Workload jobs: unused.
    apps: Tuple[str, ...] = ()
    dataset: Optional[str] = None
    policy: str = "linux"
    seed: int = 1
    train_passes: int = 1
    iteration_scale: float = 1.0
    #: ``None`` -> the runner's per-kind default.
    max_time_s: Optional[float] = None
    agent_config: Optional[AgentConfig] = None
    reliability: Optional[ReliabilityConfig] = None
    platform: Optional[PlatformConfig] = None
    actions: Optional[Tuple[Action, ...]] = None
    ge_config: Optional[GeQiuConfig] = None
    mapping: Optional[AffinityMapping] = None
    faults: Optional[FaultConfig] = None
    supervisor: Optional[SupervisorConfig] = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; known: {JOB_KINDS}")
        if self.kind == "workload" and not self.app:
            raise ValueError("workload jobs need an app name")
        if self.kind == "scenario" and not self.apps:
            raise ValueError("scenario jobs need an application sequence")

    def action_space(self) -> Optional[ActionSpace]:
        """Materialise the stored actions back into an ActionSpace."""
        if self.actions is None:
            return None
        return ActionSpace(list(self.actions))

    @property
    def label(self) -> str:
        """Short display label for progress reporting."""
        target = self.app if self.kind == "workload" else "-".join(self.apps)
        return f"{target}/{self.policy}"


def workload_job(
    app: str,
    dataset: Optional[str] = None,
    policy: str = "linux",
    *,
    seed: int = 1,
    train_passes: int = 1,
    iteration_scale: float = 1.0,
    max_time_s: Optional[float] = None,
    agent_config: Optional[AgentConfig] = None,
    reliability: Optional[ReliabilityConfig] = None,
    platform: Optional[PlatformConfig] = None,
    action_space: Optional[ActionSpace] = None,
    ge_config: Optional[GeQiuConfig] = None,
    mapping: Optional[AffinityMapping] = None,
    faults: Optional[FaultConfig] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> JobSpec:
    """A workload job spec, mirroring ``run_workload``'s signature."""
    return JobSpec(
        kind="workload",
        app=app,
        dataset=dataset,
        policy=policy,
        seed=seed,
        train_passes=train_passes,
        iteration_scale=iteration_scale,
        max_time_s=max_time_s,
        agent_config=agent_config,
        reliability=reliability,
        platform=platform,
        actions=tuple(action_space) if action_space is not None else None,
        ge_config=ge_config,
        mapping=mapping,
        faults=faults,
        supervisor=supervisor,
    )


def scenario_job(
    apps,
    policy: str,
    *,
    seed: int = 1,
    iteration_scale: float = 1.0,
    max_time_s: Optional[float] = None,
    agent_config: Optional[AgentConfig] = None,
    reliability: Optional[ReliabilityConfig] = None,
    platform: Optional[PlatformConfig] = None,
    action_space: Optional[ActionSpace] = None,
    ge_config: Optional[GeQiuConfig] = None,
    faults: Optional[FaultConfig] = None,
    supervisor: Optional[SupervisorConfig] = None,
) -> JobSpec:
    """A scenario job spec, mirroring ``run_scenario``'s signature."""
    return JobSpec(
        kind="scenario",
        apps=tuple(apps),
        policy=policy,
        seed=seed,
        iteration_scale=iteration_scale,
        max_time_s=max_time_s,
        agent_config=agent_config,
        reliability=reliability,
        platform=platform,
        actions=tuple(action_space) if action_space is not None else None,
        ge_config=ge_config,
        faults=faults,
        supervisor=supervisor,
    )


def ensemble_eligible(spec: JobSpec) -> bool:
    """Whether the vectorized ensemble engine can execute ``spec``.

    The one eligibility rule: the grid planner batches exactly these
    specs and :class:`EnsembleJobSpec` rejects any other member.  Both
    job kinds qualify (a workload's training passes and a scenario's
    applications are each an application sequence the ensemble steps
    per member), supervised or not; the one exclusion is an effective
    platform whose evaluation sensor low-pass filters
    (``sensor.ema_tau_s > 0``):
    :class:`~repro.ensemble.sensors.BatchedEvalSensors` has no batched
    filter path.
    """
    platform = spec.platform if spec.platform is not None else PlatformConfig()
    return not platform.sensor.ema_tau_s > 0.0


@dataclass(frozen=True)
class EnsembleJobSpec:
    """A batch of jobs executed by the vectorized ensemble engine.

    The members are plain :class:`JobSpec` objects, so each member's
    cache identity (:func:`job_key`) is exactly the scalar job's —
    bit-faithfulness of the ensemble engine is what makes sharing the
    result cache between the two execution paths sound.  The bundle
    itself also canonicalises (it is a dataclass of dataclasses), so an
    :class:`EnsembleJobSpec` can be hashed with :func:`job_key` too.
    """

    members: Tuple[JobSpec, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("ensemble jobs need at least one member")
        platform = self.members[0].platform
        for index, member in enumerate(self.members):
            if not ensemble_eligible(member):
                raise ValueError(
                    f"ensemble member {index} ({member.label}) is not "
                    "ensemble-eligible: ensembles take jobs with an "
                    "EMA-free evaluation sensor"
                )
            if member.platform != platform:
                raise ValueError(
                    f"ensemble member {index} has a different platform; "
                    "ensembles require a uniform platform"
                )

    def member_keys(self, version: Optional[str] = None) -> Tuple[str, ...]:
        """Each member's scalar cache key, in member order."""
        return tuple(job_key(member, version) for member in self.members)

    @property
    def label(self) -> str:
        """Short display label for progress reporting."""
        return f"ensemble[{len(self.members)}]"


def ensemble_job(members) -> EnsembleJobSpec:
    """An ensemble job spec from an iterable of ensemble-eligible job specs
    (workload or scenario)."""
    return EnsembleJobSpec(members=tuple(members))


# ---------------------------------------------------------------------------
# Canonical serialisation and hashing
# ---------------------------------------------------------------------------

#: Environment variable pointing the closure digest at an alternate
#: package tree (tests audit fixture trees without installing them).
CLOSURE_ROOT_ENV = "REPRO_CLOSURE_ROOT"

#: Environment variable pinning the closure digest to a literal value,
#: bypassing the AST walk entirely (fixtures, cross-tree comparisons).
CLOSURE_DIGEST_ENV = "REPRO_CLOSURE_DIGEST"


def behavior_digest() -> str:
    """The behavior-closure digest mixed into every job key.

    Resolution order: the literal ``$REPRO_CLOSURE_DIGEST`` pin if set,
    otherwise the digest of the tree at ``$REPRO_CLOSURE_ROOT`` (the
    installed ``repro`` package when unset).  The underlying computation
    is memoized per process and per root, so repeated key derivations —
    and worker processes forked after the first one — pay the AST walk
    at most once.
    """
    pinned = os.environ.get(CLOSURE_DIGEST_ENV)
    if pinned:
        return pinned
    # Imported lazily: the lint package is excluded from the closure
    # itself, and most spec consumers never need it resolved at import.
    from repro.analysis.lint.closure import closure_digest

    root = os.environ.get(CLOSURE_ROOT_ENV)
    return closure_digest(Path(root) if root else None)


def canonicalise(value):
    """Reduce a spec value to a JSON-serialisable canonical form.

    Dataclasses carry their qualified class name so that two configs
    with coincidentally equal field dicts but different types (or a
    future renamed type) never collide; frozensets are sorted; floats
    are rendered through ``repr`` by ``json.dumps`` (exact for the
    round-trippable doubles used throughout the configs).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__class__": f"{type(value).__module__}.{type(value).__qualname__}",
            "fields": {
                f.name: canonicalise(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {str(k): canonicalise(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonicalise(v) for v in value]
    if isinstance(value, frozenset):
        return {"__frozenset__": sorted(canonicalise(v) for v in value)}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__}: {value!r}")


def canonical_json(
    spec: JobSpec,
    version: Optional[str] = None,
    closure: Optional[str] = None,
) -> str:
    """The canonical JSON document a job key is hashed over.

    Carries the package version *and* the behavior-closure digest, so a
    key changes when the spec changes, when a release is cut, or when
    any code reachable from the job executors changes behavior.  Both
    default to the current tree's values.
    """
    document = {
        "closure": closure if closure is not None else behavior_digest(),
        "version": version if version is not None else repro.__version__,
        "spec": canonicalise(spec),
    }
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def job_key(
    spec: JobSpec,
    version: Optional[str] = None,
    closure: Optional[str] = None,
) -> str:
    """Content address of a job: SHA-256 of spec + version + closure."""
    return hashlib.sha256(
        canonical_json(spec, version, closure).encode("utf-8")
    ).hexdigest()
