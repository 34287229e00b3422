"""Acceptance tests for ``repro all``: parallel + cached == serial.

Three axes of the session's ``sweeps`` (see ``conftest.py``), each a
full sweep at reduced scale (everything the ``repro all`` command does,
minus argument parsing):

* **reference** — ``--jobs 1 --no-cache``, the serial code path;
* **parallel** — ``--jobs 2`` with a cold content-addressed cache;
* **warm** — the same sweep again on the now-warm cache.

The parallel sweep must write byte-identical artefact files, and the
warm sweep must execute zero jobs.  Every sweep submits all its
artefacts' cells as one engine batch.
"""

import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.engine import ExperimentEngine
from repro.experiments.engine import sweep as sweep_module
from repro.experiments.engine.sweep import ARTEFACTS, regenerate_all

from tests.test_differential import assert_same_artefacts, assert_sweeps_stay_out_of_results

AXES = ("reference", "parallel", "warm")

#: The sweeps' scale (``conftest.SWEEP_SCALE``).
SCALE = 0.12


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


def test_cold_sweep_counts_one_deduplicated_batch(sweeps):
    """The 286 cells of a scale-0.12 sweep hold 254 distinct runs: the
    one batch shares the 32 repeats (Table 3 and Figure 9 share every
    cell, and so on) instead of running them twice."""
    stats = sweeps("reference").stats.as_dict()
    assert stats["submitted"] == 286
    assert stats["executed"] == 254
    assert stats["deduplicated"] == 32


class _OneBatchEngine(ExperimentEngine):
    """Records every ``run`` call; each cell's "summary" is its spec."""

    def run(self, specs):
        self.batches.append(list(specs))
        return list(specs)


@settings(max_examples=20, deadline=None)
@given(names=st.lists(st.sampled_from(list(ARTEFACTS)), min_size=1, unique=True))
def test_any_artefact_subset_is_one_engine_run(names):
    """Whatever subset is requested, the sweep makes exactly one
    ``engine.run`` call over the artefacts' concatenated cells and
    renders each artefact from its own cells' labels and results."""
    rendered = {}

    def stand_in(name):
        module = ARTEFACTS[name]

        def render(summaries):
            rendered[name] = dict(summaries)
            return SimpleNamespace(format_table=lambda: name)

        return SimpleNamespace(cells=module.cells, render=render)

    engine = _OneBatchEngine()
    engine.batches = []
    cells = {
        name: ARTEFACTS[name].cells(iteration_scale=SCALE, seed=1)
        for name in names
    }
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", tmp)
        mp.setattr(sweep_module, "ARTEFACTS", {name: stand_in(name) for name in ARTEFACTS})
        report = regenerate_all(
            iteration_scale=SCALE, seed=1, engine=engine, artefacts=names,
            results_dir=Path(tmp) / "results",
        )
    assert report.ok
    assert engine.batches == [
        [spec for name in names for spec in cells[name].values()]
    ]
    assert rendered == cells
