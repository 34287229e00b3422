"""Acceptance tests for ``repro all``: parallel + cached == serial.

Three axes of the session's ``sweeps`` (see ``conftest.py``), each a
full sweep at reduced scale (everything the ``repro all`` command does,
minus argument parsing):

* **reference** — ``--jobs 1 --no-cache``, the serial code path;
* **parallel** — ``--jobs 2`` with a cold content-addressed cache;
* **warm** — the same sweep again on the now-warm cache.

The parallel sweep must write byte-identical artefact files, and the
warm sweep must execute zero jobs.
"""

from repro.experiments.engine.sweep import ARTEFACTS

from tests.test_differential import assert_same_artefacts, assert_sweeps_stay_out_of_results

AXES = ("reference", "parallel", "warm")


def test_all_artefacts_written(sweeps):
    for axis in AXES:
        report = sweeps(axis)
        assert report.ok
        assert [run.name for run in report.runs] == list(ARTEFACTS)
        assert all(run.path.exists() for run in report.runs)


def test_parallel_cached_output_is_bit_identical_to_serial(sweeps):
    assert_same_artefacts(sweeps("reference"), sweeps("parallel"), "--jobs 2")


def test_warm_cache_rerun_executes_zero_jobs(sweeps):
    stats = sweeps("warm").stats.as_dict()
    assert stats["executed"] == 0
    assert stats["cache_misses"] == 0
    assert stats["cache_hits"] > 0
    assert_same_artefacts(sweeps("reference"), sweeps("warm"), "warm --jobs 2")


def test_serial_engine_ran_uncached(sweeps):
    stats = sweeps("reference").stats.as_dict()
    assert stats["cache_hits"] == 0
    assert stats["executed"] > 0


def test_serial_and_parallel_metrics_agree(sweeps):
    """Metrics fold in submission order, so the deterministic subset
    matches.  The cache gauges and executed-job counter differ: the
    uncached reference re-executes cross-batch duplicates."""
    serial = sweeps("reference").metrics.as_dict()
    parallel = sweeps("parallel").metrics.as_dict()
    for name in (
        "repro_engine_jobs_submitted_total",
        "repro_artefacts_regenerated_total",
        "repro_job_avg_temp_c",
        "repro_job_execution_time_s",
    ):
        assert serial[name] == parallel[name], f"metric {name} differs"
    assert serial["repro_artefacts_regenerated_total"]["value"] == len(ARTEFACTS)
    # Per-job rollups cover every submitted job exactly once.
    assert (
        serial["repro_job_avg_temp_c"]["count"]
        == serial["repro_engine_jobs_submitted_total"]["value"]
    )


def test_scaled_sweeps_never_touch_committed_results(sweeps):
    assert_sweeps_stay_out_of_results(sweeps(axis) for axis in AXES)
