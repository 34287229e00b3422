"""Edge-case tests for the experiment runner.

A run whose measured pass is shorter than the warm-up skip has an empty
measurement window; the runner must fail with a readable ``ValueError``
rather than crashing deep in the profile code or reporting NaN metrics.
Unknown policy names must be rejected up front with the allowed list.
The keyword entry points must stay exact mirrors of the job-spec
constructors they wrap.
"""

from inspect import signature

import pytest

from repro.experiments.engine.spec import scenario_job, workload_job
from repro.experiments.runner import (
    POLICIES,
    WARMUP_SKIP_S,
    build_manager,
    build_simulation,
    run_scenario,
    run_workload,
)

#: The entry points' keywords that are not job-spec fields.
HOOKS = {"instrumentation", "checkpoint_every", "checkpoint_dir", "resume"}

ENTRY_POINTS = (
    (run_workload, workload_job, workload_job("tachyon")),
    (run_scenario, scenario_job, scenario_job(("tachyon", "mpeg_dec"), "linux")),
)


def test_run_shorter_than_warmup_raises_clear_error():
    # face_rec at minimum length (10 iterations) runs ~43 s, inside the
    # 60 s warm-up skip that applies when train_passes == 0.
    with pytest.raises(ValueError) as excinfo:
        run_workload("face_rec", None, "linux", iteration_scale=0.01, train_passes=0)
    message = str(excinfo.value)
    assert "empty measurement window" in message
    assert f"{WARMUP_SKIP_S:.0f}" in message
    assert "iteration_scale" in message  # actionable advice


def test_scenario_shorter_than_warmup_raises_clear_error():
    # A single minimum-length tachyon pass lasts ~30 s < 60 s warm-up.
    with pytest.raises(ValueError, match="empty measurement window"):
        run_scenario(("tachyon",), "linux", iteration_scale=0.01)


def test_trained_short_run_is_fine():
    # With a training pass the warm-up skip does not apply: the same
    # short workload measures normally.
    summary = run_workload(
        "face_rec", None, "linux", iteration_scale=0.01, train_passes=1
    )
    assert summary.execution_time_s > 0.0
    assert summary.average_temp_c == summary.average_temp_c  # not NaN


def test_unknown_policy_rejected_with_allowed_list():
    with pytest.raises(ValueError) as excinfo:
        run_workload("tachyon", None, "magic", iteration_scale=0.05)
    message = str(excinfo.value)
    assert "magic" in message
    for policy in POLICIES:
        assert policy in message


def test_unknown_policy_rejected_for_scenarios():
    with pytest.raises(ValueError, match="allowed policies"):
        run_scenario(("tachyon", "mpeg_dec"), "turbo", iteration_scale=0.05)


def test_malformed_userspace_policy_rejected():
    with pytest.raises(ValueError, match="allowed policies"):
        run_workload("tachyon", None, "userspace@fast", iteration_scale=0.05)


def test_nonstandard_userspace_frequency_accepted():
    summary = run_workload("tachyon", "set 2", "userspace@2.0", iteration_scale=0.05)
    assert summary.policy == "userspace@2.0"
    assert summary.completed


def test_build_manager_still_raises_keyerror_with_allowed_list():
    with pytest.raises(KeyError, match="unknown policy"):
        build_manager("magic")


@pytest.mark.parametrize("entry, constructor, spec", ENTRY_POINTS)
def test_entry_point_keywords_are_the_constructor_keywords_plus_hooks(
    entry, constructor, spec
):
    assert set(signature(entry).parameters) == (
        set(signature(constructor).parameters) | HOOKS
    )


@pytest.mark.parametrize("entry, constructor, spec", ENTRY_POINTS)
def test_entry_point_max_time_default_is_the_job_default(entry, constructor, spec):
    assert spec.max_time_s is None
    default = signature(entry).parameters["max_time_s"].default
    assert default == build_simulation(spec).max_time_s
