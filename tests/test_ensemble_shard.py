"""Process sharding of ensemble jobs: partition, identity, hardening.

The contract under test (``repro.ensemble.shard``): splitting a planned
ensemble group into per-process member shards changes
*nothing* about the results — sharded == unsharded == serial, member
for member, bit for bit (compared through each summary's pickle, the
same bytes the result cache stores) — while failures of a shard are
surfaced as the engine's structured :class:`JobFailure` records instead
of aborting the whole job.
"""

import pickle

import pytest

from repro.ensemble.shard import run_sharded_ensemble_job, shard_members
from repro.experiments.engine.cache import ResultCache
from repro.experiments.engine.planner import plan_grid
from repro.experiments.engine.scheduler import EngineJobError, ExperimentEngine
from repro.experiments.engine.spec import EnsembleJobSpec, job_key, workload_job
from repro.experiments.engine.worker import execute_job

#: Small-but-real member grid shared by the identity tests.
SCALE = 0.05


def _spec(members: int, app: str = "tachyon", policy: str = "linux"):
    return EnsembleJobSpec(
        members=tuple(
            workload_job(
                app, policy=policy, seed=1 + offset, iteration_scale=SCALE
            )
            for offset in range(members)
        )
    )


def _pickles(summaries):
    return [pickle.dumps(summary) for summary in summaries]


# ----------------------------------------------------------------------
# Partition
# ----------------------------------------------------------------------
class TestShardMembers:
    def test_contiguous_balanced_order_preserving(self):
        parts = shard_members(7, 3)
        assert parts == [range(0, 3), range(3, 5), range(5, 7)]

    def test_covers_every_member_exactly_once(self):
        for count in (1, 2, 5, 16, 17):
            for shards in (1, 2, 3, 8, 40):
                parts = shard_members(count, shards)
                flat = [index for part in parts for index in part]
                assert flat == list(range(count)), (count, shards)
                assert all(len(part) > 0 for part in parts)

    def test_more_shards_than_members_degenerates_to_singletons(self):
        assert shard_members(2, 5) == [range(0, 1), range(1, 2)]

    def test_empty_and_invalid(self):
        assert shard_members(0, 4) == []
        with pytest.raises(ValueError):
            shard_members(-1, 2)
        with pytest.raises(ValueError):
            shard_members(4, 0)

    def test_deterministic(self):
        assert shard_members(13, 4) == shard_members(13, 4)


# ----------------------------------------------------------------------
# Sharded == unsharded == serial
# ----------------------------------------------------------------------
def test_sharded_equals_unsharded_equals_serial(narrow_ensembles):
    """The same members sharded at jobs 1/2/3, unsharded through
    ``execute_job`` and through the scalar worker path produce
    byte-identical member summaries."""
    spec = _spec(5)
    members = list(spec.members)
    unsharded = _pickles(execute_job(spec))
    for jobs in (1, 2, 3):
        engine = ExperimentEngine(jobs=jobs, cache=None)
        report = run_sharded_ensemble_job(members, plan_grid(members), engine)
        assert not report.failures
        assert report.shards == min(jobs, 5)
        summaries = [report.summaries[index] for index in range(len(members))]
        assert _pickles(summaries) == unsharded, f"jobs={jobs}"
    # Serial scalar execution of one member — the path a cache producer
    # takes — yields the same bytes as the sharded member summary.
    scalar = pickle.dumps(execute_job(spec.members[2]))
    assert scalar == unsharded[2]


def test_shards_share_the_member_level_cache(tmp_path, narrow_ensembles):
    """A sharded run populates per-member scalar keys; a wider sharded
    run through another engine hits them."""
    cache = ResultCache(root=tmp_path / "cache")
    members = list(_spec(4).members)
    engine = ExperimentEngine(jobs=2, cache=cache, ensemble=True)
    first = engine.run(members)
    assert engine.stats.executed == 4 and engine.stats.cache_hits == 0

    # Every member landed under its own scalar key.
    assert _pickles(cache.get(member) for member in members) == _pickles(first)
    # Wider job: the overlapping seeds hit, only the new members run.
    wider = list(_spec(6).members)
    engine2 = ExperimentEngine(jobs=2, cache=cache, ensemble=True)
    second = engine2.run(wider)
    assert engine2.stats.cache_hits == 4
    assert engine2.stats.executed == 2
    assert _pickles(second[:4]) == _pickles(first)


# ----------------------------------------------------------------------
# Failure surfacing
# ----------------------------------------------------------------------
def test_failed_shard_surfaces_jobfailure_and_partial_results(
    monkeypatch, narrow_ensembles
):
    """One shard exhausting its retries yields None results for its
    members plus one structured JobFailure per member."""
    import repro.experiments.engine.scheduler as scheduler_module

    real_execute = scheduler_module.execute_job
    calls = {"n": 0}

    def flaky(spec, *args, **kwargs):
        if isinstance(spec, EnsembleJobSpec) and spec.members[0].seed == 1:
            calls["n"] += 1
            raise RuntimeError("boom")
        return real_execute(spec, *args, **kwargs)

    monkeypatch.setattr(scheduler_module, "execute_job", flaky)
    spec = _spec(4)
    engine = ExperimentEngine(
        jobs=1, cache=None, max_job_attempts=2, ensemble=True
    )
    with pytest.raises(EngineJobError) as excinfo:
        engine.run(spec.members)
    error = excinfo.value
    assert calls["n"] == 2  # bounded retries were attempted
    # Failures are member-granular: the single failed 4-member shard
    # surfaces one JobFailure per member, keyed by the member's scalar
    # job key and labelled with the member's label.
    assert len(error.failures) == 4
    member_keys = [job_key(member) for member in spec.members]
    assert [failure.key for failure in error.failures] == member_keys
    assert [failure.label for failure in error.failures] == [
        member.label for member in spec.members
    ]
    for failure in error.failures:
        assert failure.error_type == "RuntimeError"
        assert failure.attempts == 2
    assert engine.failures == error.failures
    # jobs=1 -> a single shard holds every member; all of them are None.
    assert error.results == [None] * 4
