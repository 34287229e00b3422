"""Tests for the fault-hardened experiment engine.

Covers the reliability half of the engine contract: worker exceptions
burn bounded retries, hung
attempts are killed by the per-job timeout, a crashed worker pool is
respawned with only the unfinished jobs requeued, and jobs that exhaust
every attempt surface as structured :class:`JobFailure` records instead
of a bare traceback — without aborting the rest of the campaign.
"""

import os
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.experiments.engine.scheduler as scheduler_module
from repro.config import EngineConfig
from repro.experiments.engine import ExperimentEngine, job_key, workload_job
from repro.experiments.engine.scheduler import EngineJobError, JobFailure
from repro.experiments.engine.spec import EnsembleJobSpec
from repro.experiments.engine import sweep as sweep_module


def _specs(count):
    return [workload_job("tachyon", None, "linux", seed=100 + i) for i in range(count)]


# Worker stand-ins must be module-level so a ProcessPoolExecutor can
# pickle them by reference.


def _ok(spec, *args):
    return ("done", spec.seed)


def _fail_seed_999(spec, *args):
    if spec.seed == 999:
        raise RuntimeError("worker exploded")
    return ("done", spec.seed)


def _sleep_forever(spec, *args):
    time.sleep(300)


def _slow_per_member(spec, *args):
    """0.2 s of work per cell; an ensemble shard does all its members'."""
    members = getattr(spec, "members", (spec,))
    time.sleep(0.2 * len(members))
    results = [("done", member.seed) for member in members]
    return results if isinstance(spec, EnsembleJobSpec) else results[0]


def _die_once(spec, *args):
    marker = Path(os.environ["HARDENING_DIE_ONCE_MARKER"])
    if not marker.exists():
        marker.write_text("died")
        os._exit(3)
    return ("revived", spec.seed)


class _FlakyThenOk:
    """In-process flaky worker: fails ``failures`` times, then succeeds."""

    def __init__(self, failures):
        self.remaining = failures

    def __call__(self, spec, *args):
        if self.remaining > 0:
            self.remaining -= 1
            raise ValueError("transient wobble")
        return ("done", spec.seed)


# ---------------------------------------------------------------------------
# Serial path: retries and structured failures
# ---------------------------------------------------------------------------


def test_flaky_job_is_retried_to_success(monkeypatch):
    monkeypatch.setattr(scheduler_module, "execute_job", _FlakyThenOk(2))
    engine = ExperimentEngine(max_job_attempts=3)
    [result] = engine.run(_specs(1))
    assert result == ("done", 100)
    assert engine.stats.retried == 2
    assert engine.stats.failed == 0
    assert engine.failures == []


def test_exhausted_job_raises_structured_failure(monkeypatch):
    monkeypatch.setattr(scheduler_module, "execute_job", _FlakyThenOk(10))
    engine = ExperimentEngine(max_job_attempts=3)
    spec = _specs(1)[0]
    with pytest.raises(EngineJobError) as excinfo:
        engine.run([spec])
    [failure] = excinfo.value.failures
    assert failure.key == job_key(spec)
    assert failure.label == spec.label
    assert failure.attempts == 3
    assert failure.error_type == "ValueError"
    assert failure.message == "transient wobble"
    assert failure.timed_out is False
    assert failure.duration_s >= 0.0
    # The engine also keeps the record, and the message names the job.
    assert engine.failures == [failure]
    assert engine.stats.failed == 1
    assert engine.stats.retried == 2
    assert spec.label in str(excinfo.value)
    assert failure.key[:12] in str(excinfo.value)


def test_max_job_attempts_one_never_retries(monkeypatch):
    monkeypatch.setattr(scheduler_module, "execute_job", _FlakyThenOk(10))
    engine = ExperimentEngine(max_job_attempts=1)
    with pytest.raises(EngineJobError) as excinfo:
        engine.run(_specs(1))
    assert excinfo.value.failures[0].attempts == 1
    assert engine.stats.retried == 0


# ---------------------------------------------------------------------------
# Parallel path: exceptions, timeouts, pool crashes
# ---------------------------------------------------------------------------


def test_parallel_worker_exception_becomes_failure(monkeypatch):
    monkeypatch.setattr(scheduler_module, "execute_job", _fail_seed_999)
    specs = _specs(2) + [workload_job("tachyon", None, "linux", seed=999)]
    engine = ExperimentEngine(jobs=2, max_job_attempts=2)
    with pytest.raises(EngineJobError) as excinfo:
        engine.run(specs)
    [failure] = excinfo.value.failures
    assert failure.error_type == "RuntimeError"
    assert failure.attempts == 2
    assert engine.stats.retried == 1
    assert engine.stats.failed == 1


def test_parallel_success_path_unchanged(monkeypatch):
    monkeypatch.setattr(scheduler_module, "execute_job", _ok)
    engine = ExperimentEngine(jobs=2)
    results = engine.run(_specs(4))
    assert results == [("done", 100 + i) for i in range(4)]
    assert engine.stats.failed == 0


def test_timeout_kills_hung_attempt(monkeypatch):
    monkeypatch.setattr(scheduler_module, "execute_job", _sleep_forever)
    engine = ExperimentEngine(jobs=2, job_timeout_s=0.4, max_job_attempts=1)
    start = time.perf_counter()
    with pytest.raises(EngineJobError) as excinfo:
        engine.run(_specs(2))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, "timeout reaping did not fire"
    failures = excinfo.value.failures
    assert len(failures) == 2
    assert all(failure.timed_out for failure in failures)
    assert all(failure.error_type == "TimeoutError" for failure in failures)
    assert engine.stats.timeouts == 2
    assert engine.stats.pool_restarts >= 1


def test_timeout_budget_is_per_cell_for_ensemble_shards(monkeypatch):
    """A per-cell timeout that a scalar cell meets is not a shard's
    budget: two 8-member shards each take 8 cells' time and still land,
    because each attempt gets the timeout once per member."""
    from repro.experiments.engine.planner import plan_grid

    monkeypatch.setattr(scheduler_module, "execute_job", _slow_per_member)
    scalar = ExperimentEngine(jobs=2, job_timeout_s=0.5, ensemble=False)
    assert scalar.run(_specs(2)) == [("done", 100), ("done", 101)]
    specs = _specs(16)
    assert len(plan_grid(specs).groups) == 1
    engine = ExperimentEngine(jobs=2, job_timeout_s=0.5, max_job_attempts=1)
    assert engine.run(specs) == [("done", 100 + i) for i in range(16)]
    assert engine.stats.timeouts == 0 and engine.stats.failed == 0


def test_broken_pool_is_respawned_and_job_retried(monkeypatch, tmp_path):
    marker = tmp_path / "died.marker"
    monkeypatch.setenv("HARDENING_DIE_ONCE_MARKER", str(marker))
    monkeypatch.setattr(scheduler_module, "execute_job", _die_once)
    engine = ExperimentEngine(jobs=2, max_job_attempts=3)
    results = engine.run(_specs(2))
    assert results == [("revived", 100), ("revived", 101)]
    assert marker.exists()
    assert engine.stats.pool_restarts >= 1
    assert engine.stats.retried >= 1
    assert engine.stats.failed == 0


# ---------------------------------------------------------------------------
# Accounting surfaces
# ---------------------------------------------------------------------------


def test_stats_dict_carries_hardening_counters():
    stats = ExperimentEngine().stats.as_dict()
    for key in ("retried", "failed", "timeouts", "pool_restarts"):
        assert stats[key] == 0


def test_engine_from_config_threads_hardening_fields():
    engine = ExperimentEngine.from_config(
        EngineConfig(
            jobs=2,
            use_cache=False,
            job_timeout_s=12.5,
            max_job_attempts=5,
            checkpoint_every=400,
            checkpoint_dir="ckpts",
            resume=True,
        )
    )
    assert engine.job_timeout_s == 12.5
    assert engine.max_job_attempts == 5
    assert engine.checkpoint_every == 400
    assert engine.checkpoint_dir == "ckpts"
    assert engine.resume is True


def test_engine_config_validates_hardening_fields():
    with pytest.raises(ValueError):
        EngineConfig(job_timeout_s=0.0)
    with pytest.raises(ValueError):
        EngineConfig(max_job_attempts=0)
    with pytest.raises(ValueError):
        EngineConfig(checkpoint_every=0)


@pytest.mark.parametrize(
    "flags",
    [{"checkpoint_every": 50}, {"resume": True}],
    ids=["every", "resume"],
)
def test_engine_rejects_checkpoint_flags_without_a_directory(flags):
    """With no store directory a checkpoint flag would do nothing but
    route every cell scalar, so every way of building an engine fails."""
    with pytest.raises(ValueError, match="checkpoint_dir"):
        ExperimentEngine(**flags)
    with pytest.raises(ValueError, match="checkpoint_dir"):
        ExperimentEngine.from_config(EngineConfig(use_cache=False, **flags))


def test_job_failure_as_dict_round_trips():
    failure = JobFailure(
        key="a" * 64,
        label="tachyon/linux",
        attempts=3,
        duration_s=1.25,
        error_type="RuntimeError",
        message="boom",
        timed_out=True,
    )
    assert failure.as_dict() == {
        "key": "a" * 64,
        "label": "tachyon/linux",
        "attempts": 3,
        "duration_s": 1.25,
        "error_type": "RuntimeError",
        "message": "boom",
        "timed_out": True,
    }


# ---------------------------------------------------------------------------
# Campaign-level degradation: one failed artefact never aborts the sweep
# ---------------------------------------------------------------------------


class _FakeResult:
    def format_table(self):
        return "fake table"


def _artefact(*seeds):
    """A stand-in experiment module: one tachyon/proposed cell per seed,
    rendered as a fixed table."""
    return SimpleNamespace(
        cells=lambda iteration_scale, seed: {
            cell: workload_job("tachyon", None, "proposed", seed=cell)
            for cell in seeds
        },
        render=lambda summaries: _FakeResult(),
    )


def test_sweep_survives_a_failed_artefact(monkeypatch, tmp_path):
    monkeypatch.setattr(scheduler_module, "execute_job", _fail_seed_999)
    monkeypatch.setattr(
        sweep_module, "ARTEFACTS", {"good": _artefact(1), "bad": _artefact(2, 999)}
    )
    progress = []
    report = sweep_module.regenerate_all(results_dir=tmp_path, progress=progress.append)
    assert [run.name for run in report.runs] == ["good"]
    assert (tmp_path / "good.txt").read_text() == "fake table\n"
    assert not report.ok
    assert set(report.failed_artefacts) == {"bad"}
    [failure] = report.failed_artefacts["bad"]
    assert failure.label == "tachyon/proposed"
    assert failure.key == job_key(workload_job("tachyon", None, "proposed", seed=999))
    assert progress == [
        "regenerating good ...",
        "regenerating bad ...",
        "FAILED bad: 1 job(s) gave up",
    ]
    summary = "\n".join(report.summary_lines())
    assert "FAILED bad: 1 job(s) gave up" in summary
    assert "tachyon/proposed" in summary
    assert "3 cells in one engine run" in summary


def test_sweep_fails_every_artefact_sharing_a_failed_cell(monkeypatch, tmp_path):
    """The sweep is one deduplicated batch, so a failed cell shared by two
    artefacts fails both, and every other artefact still renders."""
    monkeypatch.setattr(scheduler_module, "execute_job", _fail_seed_999)
    monkeypatch.setattr(
        sweep_module,
        "ARTEFACTS",
        {
            "first": _artefact(1, 999),
            "clean": _artefact(1, 2),
            "second": _artefact(999, 3),
        },
    )
    report = sweep_module.regenerate_all(results_dir=tmp_path)
    assert [run.name for run in report.runs] == ["clean"]
    assert set(report.failed_artefacts) == {"first", "second"}
    for name in ("first", "second"):
        [failure] = report.failed_artefacts[name]
        assert failure.key == job_key(
            workload_job("tachyon", None, "proposed", seed=999)
        )
    assert report.stats.failed == 1
    assert report.stats.deduplicated == 2
    assert not (tmp_path / "first.txt").exists()


def test_sweep_report_ok_when_nothing_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(scheduler_module, "execute_job", _ok)
    monkeypatch.setattr(sweep_module, "ARTEFACTS", {"solo": _artefact(1)})
    report = sweep_module.regenerate_all(results_dir=tmp_path)
    assert report.ok
    assert report.failed_artefacts == {}
