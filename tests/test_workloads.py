"""Tests for the workload models (threads, applications, ALPBench)."""

import numpy as np
import pytest

from repro.workloads.alpbench import APP_NAMES, make_application, workload_spec
from repro.workloads.application import Application, PerformanceMetric
from repro.workloads.datasets import DATASET_NAMES, dataset_names_for, dataset_overlay
from repro.workloads.scenarios import (
    INTER_APP_SCENARIOS,
    scenario_applications,
    scenario_name,
)
from repro.workloads.thread_model import SimThread, ThreadPhase, WorkloadSpec


def make_spec(**overrides):
    defaults = dict(
        name="t",
        dataset="d",
        num_threads=2,
        work_cycles=1e9,
        work_jitter_sigma=0.0,
        activity_high=0.8,
        activity_low=0.05,
        sync_time_s=0.5,
        iterations=3,
        performance_constraint=0.1,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


# ---------------------------------------------------------------------------
# Thread model
# ---------------------------------------------------------------------------


def test_thread_lifecycle_barrier_app():
    rng = np.random.default_rng(0)
    thread = SimThread(make_spec(), 0, rng)
    assert thread.phase is ThreadPhase.COMPUTE
    assert thread.runnable
    thread.execute(2e9)
    assert thread.phase is ThreadPhase.BARRIER
    assert not thread.runnable
    thread.release_barrier()
    assert thread.phase is ThreadPhase.SYNC
    thread.finish_sync()
    assert thread.phase is ThreadPhase.COMPUTE
    assert thread.iteration == 1


def test_thread_completes_after_iterations():
    rng = np.random.default_rng(0)
    thread = SimThread(make_spec(iterations=2), 0, rng)
    for _ in range(2):
        thread.execute(2e9)
        thread.release_barrier()
        thread.finish_sync()
    assert thread.done
    assert thread.activity == 0.0


def test_thread_activity_levels():
    rng = np.random.default_rng(0)
    spec = make_spec()
    thread = SimThread(spec, 0, rng)
    assert thread.activity == spec.activity_high
    thread.execute(2e9)
    assert thread.activity == spec.activity_low


def test_thread_jitter_reproducible():
    spec = make_spec(work_jitter_sigma=0.3)
    a = SimThread(spec, 0, np.random.default_rng(42))
    b = SimThread(spec, 0, np.random.default_rng(42))
    assert a.remaining_cycles == b.remaining_cycles
    assert a.remaining_cycles != spec.work_cycles  # jitter applied


def test_thread_queue_continuation():
    rng = np.random.default_rng(0)
    thread = SimThread(make_spec(iterations=2), 0, rng)
    thread.execute(2e9)
    thread.release_barrier()
    thread.continue_from_queue(True)
    assert thread.phase is ThreadPhase.COMPUTE
    thread.execute(2e9)
    thread.release_barrier()
    thread.continue_from_queue(False)
    assert thread.done


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(num_threads=0)
    with pytest.raises(ValueError):
        make_spec(activity_high=0.2, activity_low=0.5)
    with pytest.raises(ValueError):
        make_spec(work_cycles=0)


# ---------------------------------------------------------------------------
# Application (barrier coordination)
# ---------------------------------------------------------------------------


def run_app_manually(app, freq=2e9, dt=0.1, max_ticks=5000):
    """Drive an application without a scheduler (all threads execute)."""
    ticks = 0
    while not app.done and ticks < max_ticks:
        for thread in app.threads:
            if thread.runnable:
                thread.execute(freq * dt)
        app.tick(dt)
        ticks += 1
    return ticks


def test_barrier_application_completes():
    app = Application(make_spec(iterations=3), seed=1)
    run_app_manually(app)
    assert app.done
    assert app.completed_iterations == 3


def test_barrier_waits_for_slowest_thread():
    app = Application(make_spec(num_threads=2, iterations=1), seed=1)
    fast, slow = app.threads
    fast.execute(2e9)  # fast thread reaches the barrier
    app.tick(0.1)
    assert fast.phase is ThreadPhase.BARRIER  # still waiting
    slow.execute(2e9)
    app.tick(0.1)
    assert fast.phase is ThreadPhase.SYNC


def test_queue_application_completes_with_total_work():
    spec = make_spec(iterations=4, barrier_sync=False, num_threads=2)
    app = Application(spec, seed=1)
    run_app_manually(app)
    assert app.done
    # Total thread-iterations equals iterations * num_threads; the app
    # credits one iteration per num_threads completions.
    assert app.completed_iterations == 4


def test_throughput_window():
    app = Application(make_spec(iterations=5), seed=1)
    run_app_manually(app)
    assert app.throughput() > 0.0
    assert app.throughput(window_s=1e9) == pytest.approx(app.throughput())


def test_throughput_empty_at_start():
    app = Application(make_spec(), seed=1)
    assert app.throughput() == 0.0


def test_performance_satisfied():
    spec = make_spec(iterations=5, performance_constraint=1e-6)
    app = Application(spec, seed=1)
    run_app_manually(app)
    assert app.performance_satisfied()


def test_phase_census():
    app = Application(make_spec(num_threads=3), seed=1)
    assert [thread.phase for thread in app.threads] == [ThreadPhase.COMPUTE] * 3


def test_progress_fraction():
    app = Application(make_spec(iterations=4), seed=1)
    assert app.completed_iterations == 0
    run_app_manually(app)
    assert app.completed_iterations == app.spec.iterations


# ---------------------------------------------------------------------------
# ALPBench factory and datasets
# ---------------------------------------------------------------------------


def test_all_apps_have_three_datasets():
    for app in APP_NAMES:
        assert len(dataset_names_for(app)) == 3


def test_workload_spec_fields():
    spec = workload_spec("tachyon", "set 1")
    assert spec.num_threads == 6
    assert spec.performance_constraint > 0.0
    assert not spec.barrier_sync  # tachyon is a work-queue renderer


def test_mpeg_is_barrier_synced():
    assert workload_spec("mpeg_dec", "clip 1").barrier_sync
    assert workload_spec("mpeg_enc", "seq 1").barrier_sync


def test_mpeg_apps_use_fps_metric():
    assert make_application("mpeg_dec").metric is PerformanceMetric.FRAMES_PER_SECOND
    assert make_application("tachyon").metric is PerformanceMetric.THROUGHPUT


def test_default_dataset_is_first():
    app = make_application("tachyon")
    assert app.spec.dataset == "set 1"


def test_unknown_app_and_dataset():
    with pytest.raises(KeyError):
        workload_spec("doom", "e1m1")
    with pytest.raises(KeyError):
        workload_spec("tachyon", "set 9")
    with pytest.raises(KeyError):
        dataset_overlay("nope", "x")


def test_dataset_names_structure():
    assert set(DATASET_NAMES) == set(APP_NAMES)
    assert DATASET_NAMES["mpeg_dec"] == ("clip 1", "clip 2", "clip 3")


def test_heaviest_dataset_first():
    """set 1 / clip 1 / seq 1 carry the most work, as in the paper."""
    for app in ("tachyon", "mpeg_dec"):
        names = dataset_names_for(app)
        works = [dataset_overlay(app, n).work_cycles for n in names]
        assert works[0] == max(works)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def test_six_scenarios():
    assert len(INTER_APP_SCENARIOS) == 6
    assert sum(1 for s in INTER_APP_SCENARIOS if len(s) == 3) == 2


def test_scenario_name():
    assert scenario_name(("mpeg_dec", "tachyon")) == "mpegdec-tachyon"


def test_scenario_applications():
    apps = scenario_applications(("tachyon", "mpeg_dec"), seed=3)
    assert [a.spec.name for a in apps] == ["tachyon", "mpeg_dec"]


def test_scenario_iteration_scale():
    apps = scenario_applications(("tachyon",), seed=3, iteration_scale=0.5)
    full = make_application("tachyon").spec.iterations
    assert apps[0].spec.iterations == max(10, int(full * 0.5))
