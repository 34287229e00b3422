"""Randomized equivalence: fast-path scheduler vs the preserved seed one.

The production :class:`~repro.sched.scheduler.Scheduler` was rewritten
for throughput (incremental runnable counts, per-tick phase/core
snapshots, inlined execution); its contract is that every observable —
placements, migrations, CoreLoad values, runnable counts, the packing
EWMA and the thread states it mutates — is *identical* (exact float
equality, not approximate) to the seed implementation preserved in
``tests/_reference_scheduler.py``.  These tests drive both schedulers
with mirrored workloads through randomized scenarios: mapping changes,
frequency changes, stalls, barrier and work-queue applications.
"""

from __future__ import annotations

import random

import pytest

from tests._reference_scheduler import ReferenceScheduler
from repro.checkpoint import capture_state, restore_state
from repro.experiments.engine.spec import workload_job
from repro.experiments.runner import build_simulation
from repro.sched.affinity import MAPPING_ORDER, mapping_by_name
from repro.sched.scheduler import Scheduler
from repro.workloads.application import Application
from repro.workloads.thread_model import WorkloadSpec

FREQUENCIES_HZ = [1.6e9, 2.0e9, 2.4e9, 2.8e9, 3.4e9]
DT = 0.1
NUM_CORES = 4


def _make_spec(rng: random.Random) -> WorkloadSpec:
    """A randomized but well-formed workload description."""
    return WorkloadSpec(
        name="prop",
        dataset="prop",
        num_threads=rng.choice([1, 2, 4, 6, 7]),
        work_cycles=rng.choice([2e8, 8e8, 2e9]),
        work_jitter_sigma=rng.choice([0.0, 0.2, 0.5]),
        activity_high=rng.choice([0.6, 0.85, 1.0]),
        activity_low=rng.choice([0.05, 0.1]),
        sync_time_s=rng.choice([0.0, 0.2, 0.7]),
        iterations=rng.choice([3, 5, 8]),
        performance_constraint=1.0,
        barrier_sync=rng.random() < 0.5,
    )


def _mirrored_pair(spec: WorkloadSpec, seed: int):
    """Two independent (application, scheduler) stacks with equal RNGs."""
    stacks = []
    for scheduler_cls in (ReferenceScheduler, Scheduler):
        app = Application(spec, seed=seed)
        sched = scheduler_cls(NUM_CORES)
        sched.set_threads(app.threads)
        stacks.append((app, sched))
    return stacks


def _observables(app: Application, sched) -> dict:
    """Everything the scheduler is allowed to influence, exactly."""
    return {
        "cores": {t.thread_id: sched.core_of(t) for t in app.threads},
        "last_cores": {t.thread_id: t.last_core for t in app.threads},
        "phases": {t.thread_id: t.phase for t in app.threads},
        "remaining": {t.thread_id: t.remaining_cycles for t in app.threads},
        "iterations": {t.thread_id: t.iteration for t in app.threads},
        "runnable_counts": sched.runnable_counts(),
        "migrations": sched.perf.migrations,
        "executed_cycles": sched.perf.executed_cycles,
        "busy_ewma": sched.busy_ewma,
        "app_iterations": app.completed_iterations,
    }


@pytest.mark.parametrize("scenario_seed", range(12))
def test_fast_scheduler_matches_reference(scenario_seed: int) -> None:
    """Bit-identical trajectories through randomized scenarios."""
    rng = random.Random(1000 + scenario_seed)
    spec = _make_spec(rng)
    (ref_app, ref_sched), (fast_app, fast_sched) = _mirrored_pair(
        spec, seed=scenario_seed
    )

    frequencies = [rng.choice(FREQUENCIES_HZ) for _ in range(NUM_CORES)]
    for tick in range(400):
        if rng.random() < 0.04:
            frequencies = [rng.choice(FREQUENCIES_HZ) for _ in range(NUM_CORES)]
        if rng.random() < 0.03:
            name = rng.choice(MAPPING_ORDER)
            mapping = (
                None
                if name == "os_default" and rng.random() < 0.5
                else mapping_by_name(name, spec.num_threads)
            )
            ref_sched.set_mapping(mapping)
            fast_sched.set_mapping(mapping)
        if rng.random() < 0.05:
            stall = rng.choice([0.005, 0.025])
            ref_sched.stall_all(stall)
            fast_sched.stall_all(stall)

        ref_loads = ref_sched.tick(frequencies, DT)
        fast_loads = fast_sched.tick(frequencies, DT)
        ref_app.tick(DT)
        fast_app.tick(DT)

        # CoreLoad is a tuple subclass: == is exact element equality.
        assert fast_loads == ref_loads, f"loads diverged at tick {tick}"
        assert _observables(fast_app, fast_sched) == _observables(
            ref_app, ref_sched
        ), f"state diverged at tick {tick}"
        if ref_app.done and fast_app.done:
            break


def test_fast_scheduler_matches_reference_with_initial_mapping() -> None:
    """set_threads with a mapping places identically on both paths."""
    spec = _make_spec(random.Random(7))
    mapping = mapping_by_name("paired_2211", spec.num_threads)
    ref_app = Application(spec, seed=3)
    fast_app = Application(spec, seed=3)
    ref_sched = ReferenceScheduler(NUM_CORES)
    fast_sched = Scheduler(NUM_CORES)
    ref_sched.set_threads(ref_app.threads, mapping=mapping)
    fast_sched.set_threads(fast_app.threads, mapping=mapping)
    for _ in range(120):
        ref_loads = ref_sched.tick([2.4e9] * NUM_CORES, DT)
        fast_loads = fast_sched.tick([2.4e9] * NUM_CORES, DT)
        ref_app.tick(DT)
        fast_app.tick(DT)
        assert fast_loads == ref_loads
        assert _observables(fast_app, fast_sched) == _observables(
            ref_app, ref_sched
        )


def test_core_load_fields_and_type() -> None:
    """The fast path's CoreLoad construction preserves the public shape."""
    spec = WorkloadSpec(
        name="t", dataset="d", num_threads=2, work_cycles=1e8,
        work_jitter_sigma=0.0, activity_high=0.9, activity_low=0.1,
        sync_time_s=0.1, iterations=2, performance_constraint=1.0,
    )
    app = Application(spec, seed=0)
    sched = Scheduler(NUM_CORES)
    sched.set_threads(app.threads)
    loads = sched.tick([2.0e9] * NUM_CORES, DT)
    assert len(loads) == NUM_CORES
    for load in loads:
        assert type(load).__name__ == "CoreLoad"
        assert load.utilisation == load[0]
        assert load.activity == load[1]
        assert load.num_runnable == load[2]
        assert load.executed_cycles == load[3]
        assert 0.0 <= load.utilisation <= 1.0
        assert 0.0 <= load.activity <= 1.0


# ---------------------------------------------------------------------------
# The quiet-tick memo
# ---------------------------------------------------------------------------


def test_short_face_rec_run_takes_the_quiet_path_on_most_ticks() -> None:
    """Most ticks of a face_rec run under the proposed manager find the
    last full tick's phases, cores and frequencies and are replayed from
    the memo.  A refactor that silently stops serving them fails here."""
    sim = build_simulation(
        workload_job("face_rec", None, "proposed", seed=1, iteration_scale=0.1)
    )
    sim.run()
    assert sim.scheduler.quiet_ticks >= 0.5 * sim.tick_index


def test_restore_into_a_ticked_scheduler_drops_its_memo() -> None:
    """A snapshot restored into a scheduler that has ticked on (a rewind)
    must not replay the memo of the layout it ticked under since.

    Bursts never end here, so every thread stays in COMPUTE: the phases
    and frequencies match the stale memo after the restore, and only the
    restored cores (spread, not the packed ``cluster_2`` layout the memo
    holds) tell the two apart.
    """
    spec = WorkloadSpec(
        name="t", dataset="d", num_threads=4, work_cycles=1e15,
        work_jitter_sigma=0.0, activity_high=0.9, activity_low=0.1,
        sync_time_s=0.1, iterations=2, performance_constraint=1.0,
    )
    frequencies = [2.4e9] * NUM_CORES
    app, twin_app = Application(spec, seed=0), Application(spec, seed=0)
    sched, twin = Scheduler(NUM_CORES), Scheduler(NUM_CORES)
    sched.set_threads(app.threads)
    twin.set_threads(twin_app.threads)
    for _ in range(3):
        assert sched.tick(frequencies, DT) == twin.tick(frequencies, DT)
    snapshot = capture_state(sched)

    sched.set_mapping(mapping_by_name("cluster_2", spec.num_threads))
    for _ in range(3):
        sched.tick(frequencies, DT)
    assert sched._memo is not None

    restore_state(sched, snapshot)
    for _ in range(3):
        assert sched.tick(frequencies, DT) == twin.tick(frequencies, DT)
    assert [t.remaining_cycles for t in app.threads] == [
        t.remaining_cycles for t in twin_app.threads
    ]
