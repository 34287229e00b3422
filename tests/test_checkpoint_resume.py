"""The keystone crash-tolerance guarantee, tested in-process.

A run interrupted at an arbitrary checkpoint and resumed must be
**byte-identical** to an uninterrupted run: same summary (pickle bytes),
same trace events, same metrics.  These tests simulate the interruption
by truncating a completed run's checkpoint chain to a mid-run prefix —
content-addressed snapshots make that state indistinguishable from a
process killed right after that checkpoint — and then resume through the
ordinary runner entry points, ``run_workload`` and ``run_scenario``.
The chain surgery is the ``traced`` and ``resumed`` axes of
:mod:`tests.test_differential`.
"""

import json
import pickle

import pytest

import repro.checkpoint as checkpoint
from repro.checkpoint import (
    CheckpointStore,
    capture_simulation,
    restore_simulation,
    serialize_checkpoint,
)
from repro.config import FaultConfig
from repro.ensemble.engine import EnsembleSimulation
import repro.experiments.engine.spec as spec_module
from repro.experiments.engine import ExperimentEngine, execute_job, workload_job
from repro.experiments.engine.planner import plan_grid
from repro.experiments.engine.scheduler import EngineJobError, job_checkpoint_dir
from repro.experiments.engine.spec import ensemble_job

from tests.test_differential import (
    CHECKPOINT_EVERY,
    SUPERVISED,
    assert_same_digests,
    build_sim,
    member,
    outcomes,
    resumed,
    scalar,
    traced,
    traced_and_resumed,
)

#: The RL policy with faults and supervision exercises every stateful
#: subsystem the snapshot must close over.
SPEC = member("tachyon", "proposed", 5, faults=FaultConfig(enabled=True), supervisor=SUPERVISED)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted, checkpointed, traced reference run."""
    chain_dir = tmp_path_factory.mktemp("ckpt-ref")
    outcome, obs = traced(SPEC, chain_dir)
    assert_same_digests({SPEC: scalar(SPEC)}, {"traced": [(SPEC, outcome)]})
    return {
        "chain_dir": chain_dir,
        "ticks": [entry.tick for entry in CheckpointStore(chain_dir).entries()],
        "outcome": outcome,
        "obs": obs,
    }


def _resume_and_compare(reference, tmp_path, tick, damage):
    outcome, obs = resumed(SPEC, reference["chain_dir"], tick, damage, tmp_path / "cut")
    assert_same_digests({SPEC: reference["outcome"]}, {"resumed": [(SPEC, outcome)]})
    assert obs.tracer.events == reference["obs"].tracer.events, (
        "resumed trace diverged from the uninterrupted run"
    )
    assert obs.registry.as_dict() == reference["obs"].registry.as_dict()


def test_reference_run_left_a_chain(reference):
    # ``traced`` already checked the ticks are consecutive multiples of
    # the checkpoint cadence.
    assert len(reference["ticks"]) >= 2


def test_resume_mid_chain_is_byte_identical(reference, tmp_path):
    ticks = reference["ticks"]
    _resume_and_compare(reference, tmp_path, ticks[len(ticks) // 2], "none")


def test_resume_from_first_checkpoint_is_byte_identical(reference, tmp_path):
    _resume_and_compare(reference, tmp_path, reference["ticks"][0], "none")


def test_corrupt_newest_falls_back_and_stays_identical(reference, tmp_path):
    """A damaged newest checkpoint degrades to the previous valid one
    (``resumed`` asserts which) and the resumed run is still identical."""
    _resume_and_compare(reference, tmp_path, reference["ticks"][1], "newest")


def test_everything_corrupt_restarts_from_scratch(reference, tmp_path):
    """With no valid checkpoint at all the run silently starts over —
    graceful degradation, never a crash — and still matches."""
    _resume_and_compare(reference, tmp_path, reference["ticks"][1], "all")


def test_resume_false_ignores_existing_checkpoints(reference, tmp_path):
    _resume_and_compare(reference, tmp_path, reference["ticks"][0], "ignored")


def test_scenario_resume_is_byte_identical(tmp_path):
    """Inter-application scenarios (app switches mid-run) resume too."""
    spec = member(("tachyon", "mpeg_dec"), "ge", 3)
    traced_outcome, resumed_outcome = traced_and_resumed(spec, 900, "none", tmp_path)
    assert_same_digests(
        {spec: scalar(spec)}, {"traced": [(spec, traced_outcome)], "resumed": [(spec, resumed_outcome)]}
    )


class QuietSnapshot:
    """A run-loop hook that captures the first tick boundary, past
    ``after`` ticks, that falls inside a quiet stretch: the tick just run
    was served from the scheduler's memo and the memo is still held."""

    def __init__(self, after: int) -> None:
        self.after = after
        self.state = None
        self._quiet_ticks = 0

    def maybe_checkpoint(self, sim) -> bool:
        quiet = sim.scheduler.quiet_ticks > self._quiet_ticks
        self._quiet_ticks = sim.scheduler.quiet_ticks
        if self.state is not None or sim.tick_index < self.after:
            return False
        if not quiet or sim.scheduler._memo is None:
            return False
        self.state = json.loads(serialize_checkpoint(capture_simulation(sim)))
        return True


def test_resume_inside_a_quiet_stretch_is_identical():
    """A snapshot taken between two quiet ticks, restored into a fresh
    simulation (which holds no memo), continues to the summary of the
    run that was never interrupted."""
    spec = member("face_rec", "proposed", 2)
    sim = build_sim(spec)
    hook = QuietSnapshot(after=300)
    sim.attach_checkpointer(hook)
    reference = outcomes([spec], [sim], [sim.run()])[0][1]
    assert hook.state is not None

    fresh = build_sim(spec)
    restore_simulation(fresh, hook.state)
    assert fresh.scheduler._memo is None
    outcome = outcomes([spec], [fresh], [fresh.run()])[0][1]
    assert fresh.scheduler.quiet_ticks > 0
    assert_same_digests({spec: reference}, {"resumed": [(spec, outcome)]})


#: A group-sized grid: one ensemble shard.
SHARD = [
    member("tachyon", policy, seed)
    for seed in (1, 2, 3, 4)
    for policy in ("linux", "proposed")
]


@pytest.mark.parametrize("damage", ["none", "newest"])
def test_interrupted_shard_resumes_from_its_store(tmp_path, monkeypatch, damage):
    """An engine with checkpointing and resume set, killed after a
    shard's second checkpoint, restores that shard from its own store on
    the rerun — from the first checkpoint when the second is damaged —
    and every member's summary is byte-identical to the uninterrupted
    run's."""
    assert [len(group) for group in plan_grid(SHARD).groups] == [len(SHARD)]
    uninterrupted = ExperimentEngine(cache=None).run(SHARD)
    settings = dict(cache=None, checkpoint_every=CHECKPOINT_EVERY,
                    checkpoint_dir=str(tmp_path), resume=True)
    real_save = CheckpointStore.save

    def killed_after_two(store, *args, **kwargs):
        if len(store.entries()) == 2:
            raise RuntimeError("worker killed")
        return real_save(store, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(CheckpointStore, "save", killed_after_two)
        with pytest.raises(EngineJobError):
            ExperimentEngine(max_job_attempts=1, **settings).run(SHARD)
    store_dir = job_checkpoint_dir(tmp_path, ensemble_job(SHARD))
    chain = CheckpointStore(store_dir).entries()
    assert [entry.tick for entry in chain] == [CHECKPOINT_EVERY, 2 * CHECKPOINT_EVERY]
    if damage == "newest":
        data = (store_dir / chain[-1].file).read_bytes()
        (store_dir / chain[-1].file).write_bytes(data[: len(data) // 2])

    restored = []
    real_resume = checkpoint.resume_simulation

    def recording_resume(sim, *args, **kwargs):
        loaded = real_resume(sim, *args, **kwargs)
        restored.append((type(sim), loaded.tick if loaded else None))
        return loaded

    monkeypatch.setattr(checkpoint, "resume_simulation", recording_resume)
    summaries = ExperimentEngine(**settings).run(SHARD)
    want = chain[-1 if damage == "none" else -2].tick
    assert restored == [(EnsembleSimulation, want)]
    assert [pickle.dumps(s) for s in summaries] == [pickle.dumps(s) for s in uninterrupted]
    assert not store_dir.exists(), "a finished shard's store is removed"


def test_worker_checkpoints_into_the_store_it_is_handed(tmp_path, monkeypatch):
    """The engine names each job's store; ``execute_job`` never hashes
    its spec (no closure digest in a worker), checkpoints into the
    directory it is handed and removes it once the job completes."""

    def no_digest():
        raise AssertionError("the worker computed a job key")

    saved_into = set()
    real_save = CheckpointStore.save

    def recording_save(store, *args, **kwargs):
        saved_into.add(store.root)
        return real_save(store, *args, **kwargs)

    monkeypatch.setattr(spec_module, "behavior_digest", no_digest)
    monkeypatch.setattr(CheckpointStore, "save", recording_save)
    store_dir = tmp_path / "store"
    spec = workload_job("tachyon", policy="linux", seed=3, iteration_scale=0.05)
    summary = execute_job(spec, 200, str(store_dir))
    assert summary.completed
    assert saved_into == {store_dir}
    assert not store_dir.exists()
