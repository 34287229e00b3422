"""Grid equivalence: ensemble-routed sweeps == scalar sweeps, byte for byte.

The acceptance layer for the ensemble grid planner, over four axes of
the session's ``sweeps`` (see ``conftest.py``):

* **reference** — ``--jobs 1 --no-cache`` on the scalar
  (``ensemble=False``) engine;
* **ensemble serial** — ``--jobs 1`` on a cold cache, default routing;
* **ensemble sharded** — ``--jobs 2`` on a cold cache, default routing;
* **ensemble warm** — ``--jobs 2`` again on the now-warm cache.

Both ensemble sweeps must write artefact files byte-identical to the
scalar sweep's, and the warm rerun must execute zero jobs: the cache the
ensemble shards populated under scalar member keys satisfies the very
same grids on the next pass.

A second layer replays the committed golden-master grids
(:mod:`tests.test_golden_artefacts`) through an ensemble-routed engine
whose member floor is lowered to 1, so every cell of those small grids
runs inside an ensemble shard:
the goldens were generated on the scalar path, so matching them proves
scalar/ensemble interchangeability against a fixed on-disk reference,
not merely within one process.
"""

from collections import Counter

import pytest

from repro.experiments.engine import ExperimentEngine, ResultCache, planner
from repro.experiments.engine.spec import EnsembleJobSpec
from repro.experiments.engine.sweep import ARTEFACTS

from tests.test_differential import assert_same_artefacts, assert_sweeps_stay_out_of_results
from tests.test_golden_artefacts import CASES, assert_matches_golden

AXES = ("ensemble_serial", "ensemble_sharded", "ensemble_warm")


def test_all_artefacts_written(sweeps):
    for axis in AXES:
        report = sweeps(axis)
        assert report.ok
        assert [run.name for run in report.runs] == list(ARTEFACTS)
        assert all(run.path.exists() for run in report.runs)


def test_ensemble_serial_is_bit_identical_to_scalar(sweeps):
    assert_same_artefacts(sweeps("reference"), sweeps("ensemble_serial"), "ensemble --jobs 1")


def test_ensemble_sharded_is_bit_identical_to_scalar(sweeps):
    assert_same_artefacts(sweeps("reference"), sweeps("ensemble_sharded"), "ensemble --jobs 2")


def test_cold_ensemble_sweeps_actually_executed(sweeps):
    for axis in ("ensemble_serial", "ensemble_sharded"):
        stats = sweeps(axis).stats.as_dict()
        assert stats["executed"] > 0
        assert stats["cache_misses"] > 0
        assert stats["failed"] == 0


def test_warm_ensemble_rerun_executes_zero_jobs(sweeps):
    stats = sweeps("ensemble_warm").stats.as_dict()
    assert stats["executed"] == 0
    assert stats["cache_misses"] == 0
    assert stats["cache_hits"] > 0
    assert_same_artefacts(sweeps("reference"), sweeps("ensemble_warm"), "warm ensemble --jobs 2")


def test_scaled_sweeps_never_touch_committed_results(sweeps):
    assert_sweeps_stay_out_of_results(sweeps(axis) for axis in AXES)


# ----------------------------------------------------------------------
# Committed goldens through the ensemble path
# ----------------------------------------------------------------------
@pytest.fixture
def ensemble_engine(tmp_path, monkeypatch, narrow_ensembles):
    """A fresh ensemble-routed engine per case, with the planner's member
    floor at 1, and the list of jobs it dispatched.

    The reduced golden grids are far smaller than the default floor, so
    without ``narrow_ensembles`` they would run all-scalar and compare
    the scalar path with its own goldens.  A fresh cache per case keeps
    every cell of the case in the dispatch record.
    """
    engine = ExperimentEngine(jobs=2, cache=ResultCache(root=tmp_path / "cache"))
    dispatched = []
    dispatch = engine._dispatch

    def recording_dispatch(jobs):
        dispatched.extend(jobs.values())
        return dispatch(jobs)

    monkeypatch.setattr(engine, "_dispatch", recording_dispatch)
    return engine, dispatched


@pytest.mark.parametrize("name", list(CASES), ids=list(CASES))
def test_ensemble_path_reproduces_committed_goldens(name, ensemble_engine):
    """The golden masters were generated by the scalar path; the
    ensemble-routed engine must reproduce their bytes exactly, and never
    rewrites them.  Every cell of a platform with at least ``MIN_GROUP``
    cells crosses an ensemble shard, and every case dispatches at least
    one."""
    engine, dispatched = ensemble_engine
    assert_matches_golden(name, engine)
    shards = [job for job in dispatched if isinstance(job, EnsembleJobSpec)]
    scalar = [job for job in dispatched if not isinstance(job, EnsembleJobSpec)]
    cells_by_platform = Counter(
        cell.platform
        for cell in scalar + [member for shard in shards for member in shard.members]
    )
    grouped_scalar = [
        job for job in scalar if cells_by_platform[job.platform] >= planner.MIN_GROUP
    ]
    assert not grouped_scalar, f"{name}: cells of a full platform ran scalar"
    assert shards, f"{name}: no ensemble shard dispatched"
