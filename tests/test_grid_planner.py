"""The ensemble grid planner: partition properties, cache discipline,
failure granularity, and the experiments' ensemble groups.

Four layers of guarantees over :mod:`repro.experiments.engine.planner`
and the engine's ``ensemble=True`` execution path:

* **Partition properties** (Hypothesis) — for arbitrary mixed batches
  (workload/scenario kinds, platforms, supervisors), ``plan_grid``
  yields a deterministic partition: every index exactly once, groups
  platform-uniform and ensemble-valid, a platform's cells batched all
  or none, groups in first-appearance order.
* **Cache discipline** (Hypothesis) — routing a batch through
  ``ExperimentEngine(ensemble=True)`` never executes a member that the
  cache (or deduplication) already resolved, and never executes any
  member twice; each shard's members reach the cache as that shard
  lands, while its siblings still run.
* **Failure granularity** (regression) — a failed shard inside a real
  sweep grid degrades exactly its members' cells; a re-run against the
  same cache re-executes only the members that actually failed.
* **Ensemble groups** — the default grid of each experiment that
  batches across its cells plans at least one ensemble group.
"""

import dataclasses
import tempfile
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.engine.scheduler as scheduler_module
from repro.config import PlatformConfig, SupervisorConfig
from repro.experiments import (
    fault_tolerance,
    fig3_inter,
    fig6_sampling,
    fig8_convergence,
    montecarlo,
    table2_intra,
)
from repro.checkpoint import CheckpointStore
from repro.experiments.engine import ExperimentEngine, ResultCache, planner
from repro.experiments.engine.planner import MIN_GROUP, plan_grid
from repro.experiments.engine.scheduler import EngineJobError
from repro.experiments.engine.spec import (
    EnsembleJobSpec,
    ensemble_job,
    job_key,
    scenario_job,
    workload_job,
)
from repro.experiments.engine.sweep import ARTEFACTS
from repro.experiments.engine.worker import job_checkpoint_dir
from tests.conftest import render_artefact

#: Smallest scale at which every app clears the 60 s warm-up skip.
SCALE = 0.12

_DEFAULT_PLATFORM = PlatformConfig()
_EMA_PLATFORM = dataclasses.replace(
    _DEFAULT_PLATFORM,
    sensor=dataclasses.replace(_DEFAULT_PLATFORM.sensor, ema_tau_s=0.25),
)

# ----------------------------------------------------------------------
# Strategies: mixed batches over kinds, platforms and supervisors
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
        with mock.patch.object(planner, "MIN_GROUP", min_group):
            plan = plan_grid(specs)
        assert plan.indices() == list(range(len(specs)))
        assert plan.batched_members + len(plan.scalar) == len(specs)

    @given(specs=_grids, min_group=_min_groups)
    @settings(deadline=None)
    def test_groups_are_valid_uniform_ensembles(self, specs, min_group):
        with mock.patch.object(planner, "MIN_GROUP", min_group):
            plan = plan_grid(specs)
        for group in plan.groups:
            assert len(group) >= min_group
            assert list(group) == sorted(group)
            members = [specs[index] for index in group]
            platforms = {member.platform for member in members}
            assert len(platforms) == 1
            # The group materialises into a valid EnsembleJobSpec.
            ensemble_job(members)

    @given(specs=_grids, min_group=_min_groups)
    @settings(deadline=None)
    def test_platform_cells_batch_all_or_none(self, specs, min_group):
        """Every cell of a platform is batched iff the platform mustered
        ``MIN_GROUP`` cells — no partial groups, no other rule."""
        with mock.patch.object(planner, "MIN_GROUP", min_group):
            plan = plan_grid(specs)
        cells_by_platform = Counter(spec.platform for spec in specs)
        for group in plan.groups:
            platform = specs[group[0]].platform
            assert len(group) == cells_by_platform[platform]
        for index in plan.scalar:
            assert cells_by_platform[specs[index].platform] < min_group
        assert list(plan.scalar) == sorted(plan.scalar)

    @given(specs=_grids, min_group=_min_groups)
    @settings(deadline=None)
    def test_deterministic_and_first_appearance_ordered(self, specs, min_group):
        with mock.patch.object(planner, "MIN_GROUP", min_group):
            plan = plan_grid(specs)
            assert plan == plan_grid(list(specs))
        # Groups appear in order of their platform's first cell.
        first_indices = [group[0] for group in plan.groups]
        assert first_indices == sorted(first_indices)

    @given(spec=st.one_of(_workload_specs, _scenario_specs))
    @settings(deadline=None)
    def test_every_spec_builds_an_ensemble_job(self, spec):
        """Workload or scenario, supervised or not, EMA-filtered sensor
        or not: any spec is a valid one-member ensemble."""
        assert ensemble_job([spec]).members == (spec,)


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
                # Any group size batches, so small grids take the
                # ensemble path.
                mp.setattr(planner, "MIN_GROUP", 1)
                engine = ExperimentEngine(jobs=1, cache=cache, ensemble=True)
                results = engine.run(specs)

            # Results align with the submission, warm or cold.
            assert [result.key for result in results] == [
                job_key(spec) for spec in specs
            ]
            for spec in unique:
                expected = 0 if spec in warm else 1
                assert executions[job_key(spec)] == expected, spec.seed
            # Warm members stay cached; cold members (one ensemble
            # group — all these specs share one platform) are stored per
            # member as their shard lands.
            for spec in unique:
                assert cache.get(spec) is not None


class TestMembersCachedAsShardsLand:
    def test_first_shard_is_cached_while_its_sibling_runs(
        self, tmp_path, monkeypatch, narrow_ensembles
    ):
        """At jobs=2 a 4-member group runs as two concurrent shards.
        The first shard's members must reach the cache as soon as that
        shard lands, while the second is still running — so a driver
        crash loses only the shards in flight.  Threads stand in for
        worker processes so the stub can wait on the driver's puts."""
        members = [
            workload_job("tachyon", policy="linux", seed=seed, iteration_scale=SCALE)
            for seed in (1, 2, 3, 4)
        ]
        first_shard = {job_key(member) for member in members[:2]}
        stored = set()
        first_shard_cached = threading.Event()
        real_put = ResultCache.put

        def recording_put(cache, spec, summary):
            key = real_put(cache, spec, summary)
            stored.add(job_key(spec))
            if first_shard <= stored:
                first_shard_cached.set()
            return key

        waited = []

        def fake_execute(spec, *args, **kwargs):
            if spec.members[0].seed == 3:
                waited.append(first_shard_cached.wait(timeout=5.0))
            return [_FakeSummary(job_key(member)) for member in spec.members]

        monkeypatch.setattr(scheduler_module, "ProcessPoolExecutor", ThreadPoolExecutor)
        monkeypatch.setattr(scheduler_module, "execute_job", fake_execute)
        monkeypatch.setattr(ResultCache, "put", recording_put)
        cache = ResultCache(root=tmp_path / "cache")
        engine = ExperimentEngine(jobs=2, cache=cache, ensemble=True)
        results = engine.run(members)

        assert waited == [True]
        assert [result.key for result in results] == [
            job_key(member) for member in members
        ]
        assert stored == {job_key(member) for member in members}


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
    def test_failed_shard_degrades_only_its_members(
        self, tmp_path, monkeypatch, narrow_ensembles
    ):
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
            render_artefact(
                montecarlo, engine, iteration_scale=SCALE, seeds=4, apps=("tachyon",)
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
        result = render_artefact(
            montecarlo, retry, iteration_scale=SCALE, seeds=4, apps=("tachyon",)
        )
        assert retry.stats.cache_hits == 4
        assert retry.stats.executed == 4
        assert {row.policy for row in result.rows} == {"linux", "proposed"}


# ----------------------------------------------------------------------
# Ensemble groups of the experiments' default grids
# ----------------------------------------------------------------------


_GROUPED_ARTEFACTS = {
    "table2": table2_intra,
    "fig3": fig3_inter,
    "fig6": fig6_sampling,
    "fig8": fig8_convergence,
    "fault_tolerance": fault_tolerance,
    "montecarlo": montecarlo,
}


@pytest.mark.parametrize("name", list(_GROUPED_ARTEFACTS))
def test_default_grid_plans_an_ensemble_group(name):
    """Each of these experiments' default grids, at the sweep scale,
    plans at least one ensemble group (planning runs no simulation)."""
    grid = _GROUPED_ARTEFACTS[name].cells(iteration_scale=SCALE, seed=1)
    assert plan_grid(list(grid.values())).groups, f"{name} plans no ensemble group"


# ----------------------------------------------------------------------
# Routing: an ensemble grid never falls back to scalar jobs
# ----------------------------------------------------------------------


def test_montecarlo_grid_executes_only_as_planned_ensemble_groups(monkeypatch):
    """The Monte Carlo grid shares one platform closure, so the
    ensemble-routed engine must hand ``execute_job`` exactly one
    ``EnsembleJobSpec`` per planned group and no scalar member at all.
    Counting calls, not timing them, catches a quiet fallback to scalar
    jobs deterministically."""
    submitted = list(montecarlo.cells(iteration_scale=SCALE).values())
    plan = plan_grid(submitted)

    received = []

    def recording_execute(spec, *args, **kwargs):
        received.append(spec)
        return _REAL_EXECUTE(spec, *args, **kwargs)

    monkeypatch.setattr(scheduler_module, "execute_job", recording_execute)
    engine = ExperimentEngine(ensemble=True, jobs=1, cache=None)
    render_artefact(montecarlo, engine, iteration_scale=SCALE)

    assert all(isinstance(spec, EnsembleJobSpec) for spec in received)
    assert len(received) == len(plan.groups)
    executed = [member for spec in received for member in spec.members]
    assert sorted(map(job_key, executed)) == sorted(map(job_key, submitted))


# ----------------------------------------------------------------------
# The crossover floor, one dispatch per batch, the checkpoint rule
# ----------------------------------------------------------------------


def _tachyon_cells(count):
    return [
        workload_job("tachyon", policy="linux", seed=seed, iteration_scale=SCALE)
        for seed in range(1, count + 1)
    ]


def _fake_execute(spec, *args, **kwargs):
    """Stand-in worker: one picklable fake summary per member."""
    if isinstance(spec, EnsembleJobSpec):
        return [_FakeSummary(job_key(member)) for member in spec.members]
    return _FakeSummary(job_key(spec))


class TestCrossoverFloor:
    def test_floor_is_the_measured_break_even(self):
        assert MIN_GROUP == 8

    def test_seven_cell_group_stays_scalar(self):
        plan = plan_grid(_tachyon_cells(7))
        assert plan.groups == ()
        assert plan.scalar == tuple(range(7))

    @pytest.mark.parametrize("count, shards", [(8, [8]), (9, [9]), (16, [8, 8])])
    def test_shards_keep_the_floor_at_jobs_2(self, count, shards, monkeypatch):
        """At jobs=2 a group splits in two only when both halves keep
        ``MIN_GROUP`` members."""
        received = []

        def recording_execute(spec, *args, **kwargs):
            received.append(spec)
            return _fake_execute(spec)

        monkeypatch.setattr(scheduler_module, "ProcessPoolExecutor", ThreadPoolExecutor)
        monkeypatch.setattr(scheduler_module, "execute_job", recording_execute)
        specs = _tachyon_cells(count)
        results = ExperimentEngine(jobs=2, cache=None).run(specs)
        assert [result.key for result in results] == [job_key(spec) for spec in specs]
        assert all(isinstance(spec, EnsembleJobSpec) for spec in received)
        assert sorted(len(spec.members) for spec in received) == shards


def test_one_pool_serves_every_group_and_the_leftovers(monkeypatch):
    """One ensemble group — workload, scenario and supervised cells
    alike — plus the scalar leftover (a cell alone on its platform) run through
    a single dispatch: one worker pool per batch."""
    pools = []
    received = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    def recording_execute(spec, *args, **kwargs):
        received.append(spec)
        return _fake_execute(spec)

    monkeypatch.setattr(scheduler_module, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(scheduler_module, "execute_job", recording_execute)
    leftover = workload_job(
        "tachyon", policy="linux", iteration_scale=SCALE, platform=_EMA_PLATFORM
    )
    specs = _tachyon_cells(16) + [
        scenario_job(("mpeg_dec", "tachyon"), "linux", iteration_scale=SCALE),
        workload_job(
            "tachyon", policy="linux", iteration_scale=SCALE,
            supervisor=SupervisorConfig(enabled=True),
        ),
        leftover,
    ]
    plan = plan_grid(specs)
    assert plan.groups == (tuple(range(18)),) and plan.scalar == (18,)
    results = ExperimentEngine(jobs=2, cache=None).run(specs)
    assert [result.key for result in results] == [job_key(spec) for spec in specs]
    assert len(pools) == 1
    shards = [spec for spec in received if isinstance(spec, EnsembleJobSpec)]
    assert sorted(len(spec.members) for spec in shards) == [9, 9]
    assert [spec for spec in received if spec not in shards] == [leftover]


def test_engine_dispatches_through_the_shard_entry_point(monkeypatch):
    """The engine looks ``run_sharded_ensemble_job`` up on the shard
    module at call time — the name a profiler wraps to time sharding —
    and its report counts the ensemble shards, not the leftovers."""
    from repro.ensemble import shard

    reports = []
    real_run = shard.run_sharded_ensemble_job

    def recording_run(*args):
        reports.append(real_run(*args))
        return reports[-1]

    monkeypatch.setattr(shard, "run_sharded_ensemble_job", recording_run)
    monkeypatch.setattr(scheduler_module, "ProcessPoolExecutor", ThreadPoolExecutor)
    monkeypatch.setattr(scheduler_module, "execute_job", _fake_execute)
    specs = _tachyon_cells(16) + [
        scenario_job(("mpeg_dec", "tachyon"), "linux", iteration_scale=SCALE),
        workload_job(
            "tachyon", policy="linux", iteration_scale=SCALE, platform=_EMA_PLATFORM
        ),
    ]
    ExperimentEngine(jobs=2, cache=None).run(specs)
    assert [report.shards for report in reports] == [2]
    assert sorted(reports[0].summaries) == list(range(len(specs)))


def test_cold_sweep_plans_one_group_and_one_scalar_cell():
    """A cold scale-0.12 ``repro all`` batch, deduplicated as the engine
    does, plans every cell into one ensemble group but Figure 6's
    EMA-sensor reference, the one cell alone on its platform."""
    cells = [
        spec
        for name in ARTEFACTS
        for spec in ARTEFACTS[name].cells(iteration_scale=SCALE, seed=1).values()
    ]
    pending = list(dict.fromkeys(cells))
    plan = plan_grid(pending)
    assert [len(group) for group in plan.groups] == [253]
    assert len(plan.scalar) == 1
    leftover = pending[plan.scalar[0]]
    assert [spec.platform for spec in pending].count(leftover.platform) == 1
    assert leftover.platform.sensor.ema_tau_s > 0.0
    assert leftover in fig6_sampling.cells(iteration_scale=SCALE, seed=1).values()


def test_checkpointing_engine_routes_every_cell_scalar(tmp_path, monkeypatch):
    """Ensemble shards keep no disk checkpoints, so an engine with
    ``checkpoint_every`` set runs a group-sized grid cell by cell and
    writes a checkpoint store for every one of them."""
    saved_into = set()
    real_save = CheckpointStore.save

    def recording_save(store, *args, **kwargs):
        saved_into.add(store.root)
        return real_save(store, *args, **kwargs)

    received = []

    def recording_execute(spec, *args, **kwargs):
        received.append(spec)
        return _REAL_EXECUTE(spec, *args, **kwargs)

    monkeypatch.setattr(CheckpointStore, "save", recording_save)
    monkeypatch.setattr(scheduler_module, "execute_job", recording_execute)
    specs = [
        workload_job("tachyon", policy="linux", seed=seed, iteration_scale=0.05)
        for seed in range(1, MIN_GROUP + 1)
    ]
    assert len(plan_grid(specs).groups) == 1
    engine = ExperimentEngine(
        jobs=1, cache=None, checkpoint_every=500, checkpoint_dir=str(tmp_path)
    )
    engine.run(specs)
    assert received == specs
    assert saved_into == {job_checkpoint_dir(tmp_path, spec) for spec in specs}
