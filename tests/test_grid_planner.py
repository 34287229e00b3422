"""The ensemble grid planner: partition properties, cache discipline,
failure granularity, and the experiments' declared batching axes.

Four layers of guarantees over :mod:`repro.experiments.engine.planner`
and the engine's ``ensemble=True`` execution path:

* **Partition properties** (Hypothesis) — for arbitrary mixed batches
  (workload/scenario kinds, platforms, supervisors), ``plan_grid``
  yields a deterministic partition: every index exactly once, groups
  platform-uniform and ensemble-valid, ineligible cells scalar, groups
  in first-appearance order.
* **Cache discipline** (Hypothesis) — routing a batch through
  ``ExperimentEngine(ensemble=True)`` never executes a member that the
  cache (or deduplication) already resolved, and never executes any
  member twice.
* **Failure granularity** (regression) — a failed shard inside a real
  sweep grid degrades exactly its members' cells; a re-run against the
  same cache re-executes only the members that actually failed.
* **Declared axes** — every experiment that advertises
  ``ENSEMBLE_AXES`` produces grids whose planned groups vary only along
  those axes.
"""

import dataclasses
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.engine.scheduler as scheduler_module
from repro.config import PlatformConfig, SupervisorConfig
from repro.experiments import (
    fault_tolerance,
    fig6_sampling,
    fig8_convergence,
    montecarlo,
    table2_intra,
)
from repro.experiments.engine import ExperimentEngine, ResultCache
from repro.experiments.engine.planner import (
    MIN_GROUP,
    ensemble_eligible,
    plan_grid,
    varying_fields,
)
from repro.experiments.engine.scheduler import EngineJobError
from repro.experiments.engine.spec import (
    EnsembleJobSpec,
    ensemble_job,
    job_key,
    scenario_job,
    workload_job,
)

#: Smallest scale at which every app clears the 60 s warm-up skip.
SCALE = 0.12

_DEFAULT_PLATFORM = PlatformConfig()
_EMA_PLATFORM = dataclasses.replace(
    _DEFAULT_PLATFORM,
    sensor=dataclasses.replace(_DEFAULT_PLATFORM.sensor, ema_tau_s=0.25),
)

# ----------------------------------------------------------------------
# Strategies: mixed batches exercising every eligibility rule
# ----------------------------------------------------------------------

_workload_specs = st.builds(
    workload_job,
    st.sampled_from(("tachyon", "mpeg_dec")),
    policy=st.sampled_from(("linux", "proposed")),
    seed=st.integers(min_value=1, max_value=5),
    platform=st.sampled_from((None, _DEFAULT_PLATFORM, _EMA_PLATFORM)),
    supervisor=st.sampled_from(
        (None, SupervisorConfig(enabled=False), SupervisorConfig(enabled=True))
    ),
)

_scenario_specs = st.builds(
    scenario_job,
    st.just(("tachyon", "mpeg_dec")),
    st.sampled_from(("linux", "proposed")),
    seed=st.integers(min_value=1, max_value=3),
)

_grids = st.lists(st.one_of(_workload_specs, _scenario_specs), max_size=24)
_min_groups = st.integers(min_value=1, max_value=4)


class TestPlanGridProperties:
    @given(specs=_grids, min_group=_min_groups)
    @settings(deadline=None)
    def test_partition_covers_every_index_exactly_once(self, specs, min_group):
        plan = plan_grid(specs, min_group=min_group)
        assert plan.indices() == list(range(len(specs)))
        assert plan.batched_members + len(plan.scalar) == len(specs)

    @given(specs=_grids, min_group=_min_groups)
    @settings(deadline=None)
    def test_groups_are_valid_uniform_ensembles(self, specs, min_group):
        plan = plan_grid(specs, min_group=min_group)
        for group in plan.groups:
            assert len(group) >= min_group
            assert list(group) == sorted(group)
            members = [specs[index] for index in group]
            assert all(ensemble_eligible(member) for member in members)
            platforms = {member.platform for member in members}
            assert len(platforms) == 1
            # The group materialises into a valid EnsembleJobSpec.
            ensemble_job(members)

    @given(specs=_grids, min_group=_min_groups)
    @settings(deadline=None)
    def test_ineligible_specs_always_stay_scalar(self, specs, min_group):
        plan = plan_grid(specs, min_group=min_group)
        batched = {index for group in plan.groups for index in group}
        for index, spec in enumerate(specs):
            if not ensemble_eligible(spec):
                assert index not in batched
        assert list(plan.scalar) == sorted(plan.scalar)

    @given(specs=_grids, min_group=_min_groups)
    @settings(deadline=None)
    def test_platform_cells_batch_all_or_none(self, specs, min_group):
        """Every eligible cell of a platform is batched iff the platform
        mustered ``min_group`` cells — no partial groups."""
        plan = plan_grid(specs, min_group=min_group)
        eligible_by_platform = Counter(
            spec.platform for spec in specs if ensemble_eligible(spec)
        )
        for group in plan.groups:
            platform = specs[group[0]].platform
            assert len(group) == eligible_by_platform[platform]
        for index in plan.scalar:
            spec = specs[index]
            if ensemble_eligible(spec):
                assert eligible_by_platform[spec.platform] < min_group

    @given(specs=_grids, min_group=_min_groups)
    @settings(deadline=None)
    def test_deterministic_and_first_appearance_ordered(self, specs, min_group):
        plan = plan_grid(specs, min_group=min_group)
        assert plan == plan_grid(list(specs), min_group=min_group)
        # Groups appear in order of their platform's first eligible cell.
        first_indices = [group[0] for group in plan.groups]
        assert first_indices == sorted(first_indices)

    def test_min_group_validation(self):
        with pytest.raises(ValueError):
            plan_grid([], min_group=0)
        assert plan_grid([]) == plan_grid([])

    def test_varying_fields(self):
        a = workload_job("tachyon", policy="linux", seed=1)
        b = workload_job("tachyon", policy="proposed", seed=2)
        assert varying_fields([]) == frozenset()
        assert varying_fields([a]) == frozenset()
        assert varying_fields([a, b]) == frozenset({"policy", "seed"})


# ----------------------------------------------------------------------
# Cache discipline: no member executes twice
# ----------------------------------------------------------------------


@dataclasses.dataclass
class _FakeSummary:
    """Picklable stand-in carrying its member's identity."""

    key: str


class TestNoDoubleExecution:
    @given(
        seeds=st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=12),
        warm_mask=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    @settings(deadline=None, max_examples=30)
    def test_cache_and_dedup_resolved_members_never_rerun(self, seeds, warm_mask):
        """Submit a grid with duplicates and a partially warm cache
        through the ensemble-routed engine: every unique cold member
        executes exactly once, everything else executes zero times."""
        specs = [
            workload_job("tachyon", policy="linux", seed=seed, iteration_scale=SCALE)
            for seed in seeds
        ]
        unique = sorted({spec for spec in specs}, key=lambda spec: spec.seed)
        warm = {
            spec
            for index, spec in enumerate(unique)
            if warm_mask[index % len(warm_mask)]
        }
        executions = Counter()

        def counting_execute(spec, *args, **kwargs):
            if isinstance(spec, EnsembleJobSpec):
                for member in spec.members:
                    executions[job_key(member)] += 1
                return [_FakeSummary(job_key(member)) for member in spec.members]
            executions[job_key(spec)] += 1
            return _FakeSummary(job_key(spec))

        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(root=Path(tmp) / "cache")
            for spec in warm:
                cache.put(spec, _FakeSummary(job_key(spec)))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(scheduler_module, "execute_job", counting_execute)
                engine = ExperimentEngine(jobs=1, cache=cache, ensemble=True)
                results = engine.run(specs)

            # Results align with the submission, warm or cold.
            assert [result.key for result in results] == [
                job_key(spec) for spec in specs
            ]
            for spec in unique:
                expected = 0 if spec in warm else 1
                assert executions[job_key(spec)] == expected, spec.seed
            # Warm members stay cached; cold members that formed an
            # ensemble group (>= MIN_GROUP of them — all these specs
            # share one platform) are cached by the shard layer.  (A
            # lone scalar leftover is only cached for real RunSummary
            # results, which this counting stub does not produce.)
            cold = [spec for spec in unique if spec not in warm]
            cached_after = warm if len(cold) < MIN_GROUP else unique
            for spec in cached_after:
                assert cache.get(spec) is not None


# ----------------------------------------------------------------------
# Partial-shard failure inside a sweep grid
# ----------------------------------------------------------------------

_REAL_EXECUTE = scheduler_module.execute_job


def _fail_proposed_shards(spec, *args, **kwargs):
    """Module-level (hence picklable) fault: any shard containing a
    ``proposed`` member dies; everything else executes for real."""
    if isinstance(spec, EnsembleJobSpec) and any(
        member.policy == "proposed" for member in spec.members
    ):
        raise RuntimeError("injected shard failure")
    return _REAL_EXECUTE(spec, *args, **kwargs)


class TestPartialShardFailureInSweep:
    def test_failed_shard_degrades_only_its_members(self, tmp_path, monkeypatch):
        """A Monte Carlo grid (1 app x 2 policies x 4 seeds) at jobs=2
        splits its single ensemble group into two shards — linux seeds
        and proposed seeds.  Killing the proposed shard must surface one
        failure per proposed member, leave the linux members cached, and
        let a re-run against the same cache execute only the four
        members that actually failed."""
        cache = ResultCache(root=tmp_path / "cache")
        monkeypatch.setattr(scheduler_module, "execute_job", _fail_proposed_shards)
        engine = ExperimentEngine(
            jobs=2, cache=cache, ensemble=True, max_job_attempts=1
        )
        with pytest.raises(EngineJobError) as excinfo:
            montecarlo.run_montecarlo(
                iteration_scale=SCALE, seeds=4, apps=("tachyon",), engine=engine
            )
        members = [
            workload_job(
                "tachyon", None, policy, seed=seed, iteration_scale=SCALE
            )
            for policy in ("linux", "proposed")
            for seed in (1, 2, 3, 4)
        ]
        linux, proposed = members[:4], members[4:]
        failures = excinfo.value.failures
        assert [failure.key for failure in failures] == [
            job_key(member) for member in proposed
        ]
        assert all(failure.label == "tachyon/proposed" for failure in failures)
        assert engine.stats.failed == 4
        # The healthy shard's members landed in the cache; the failed
        # shard's members did not.
        assert all(cache.get(member) is not None for member in linux)
        assert all(cache.get(member) is None for member in proposed)

        monkeypatch.undo()
        retry = ExperimentEngine(jobs=2, cache=cache, ensemble=True)
        result = montecarlo.run_montecarlo(
            iteration_scale=SCALE, seeds=4, apps=("tachyon",), engine=retry
        )
        assert retry.stats.cache_hits == 4
        assert retry.stats.executed == 4
        assert {row.policy for row in result.rows} == {"linux", "proposed"}


# ----------------------------------------------------------------------
# Declared ensemble axes
# ----------------------------------------------------------------------


class _Captured(Exception):
    """Sentinel unwinding an experiment after its batch is recorded."""


class _RecordingEngine(ExperimentEngine):
    def run(self, specs):
        self.captured = list(specs)
        raise _Captured


_AXED_EXPERIMENTS = {
    "table2": (table2_intra.run_table2, table2_intra.ENSEMBLE_AXES),
    "fig6": (fig6_sampling.run_fig6, fig6_sampling.ENSEMBLE_AXES),
    "fig8": (fig8_convergence.run_fig8, fig8_convergence.ENSEMBLE_AXES),
    "fault_tolerance": (
        fault_tolerance.run_fault_tolerance,
        fault_tolerance.ENSEMBLE_AXES,
    ),
    "montecarlo": (montecarlo.run_montecarlo, montecarlo.ENSEMBLE_AXES),
}


@pytest.mark.parametrize("name", list(_AXED_EXPERIMENTS), ids=list(_AXED_EXPERIMENTS))
def test_planned_groups_vary_only_along_declared_axes(name):
    """Each experiment's full default grid partitions into groups that
    vary only along its declared ``ENSEMBLE_AXES`` — capturing the
    submitted batch costs no simulation time."""
    run, axes = _AXED_EXPERIMENTS[name]
    engine = _RecordingEngine(jobs=1)
    with pytest.raises(_Captured):
        run(iteration_scale=SCALE, seed=1, engine=engine)
    specs = engine.captured
    plan = plan_grid(specs)
    assert plan.groups, f"{name} declared axes but plans no ensemble groups"
    for group in plan.groups:
        members = [specs[index] for index in group]
        undeclared = varying_fields(members) - set(axes)
        assert not undeclared, (
            f"{name}: group varies along undeclared axes {sorted(undeclared)}"
        )


# ----------------------------------------------------------------------
# Routing: an ensemble grid never falls back to scalar jobs
# ----------------------------------------------------------------------


def test_montecarlo_grid_executes_only_as_planned_ensemble_groups(monkeypatch):
    """The Monte Carlo grid shares one platform closure, so the
    ensemble-routed engine must hand ``execute_job`` exactly one
    ``EnsembleJobSpec`` per planned group and no scalar member at all.
    Counting calls, not timing them, catches a quiet fallback to scalar
    jobs deterministically."""
    recorder = _RecordingEngine(jobs=1)
    with pytest.raises(_Captured):
        montecarlo.run_montecarlo(iteration_scale=SCALE, engine=recorder)
    submitted = recorder.captured
    plan = plan_grid(submitted)

    received = []

    def recording_execute(spec, *args, **kwargs):
        received.append(spec)
        return _REAL_EXECUTE(spec, *args, **kwargs)

    monkeypatch.setattr(scheduler_module, "execute_job", recording_execute)
    engine = ExperimentEngine(ensemble=True, jobs=1, cache=None)
    montecarlo.run_montecarlo(iteration_scale=SCALE, engine=engine)

    assert all(isinstance(spec, EnsembleJobSpec) for spec in received)
    assert len(received) == len(plan.groups)
    executed = [member for spec in received for member in spec.members]
    assert sorted(map(job_key, executed)) == sorted(map(job_key, submitted))
