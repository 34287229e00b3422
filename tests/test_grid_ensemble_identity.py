"""Grid equivalence: ensemble-routed sweeps == scalar sweeps, byte for byte.

The acceptance layer for the ensemble grid planner, over four axes of
the session's ``sweeps`` (see ``conftest.py``):

* **reference** — ``--jobs 1 --no-cache``, the scalar sweep;
* **ensemble serial** — ``--ensemble --jobs 1`` on a cold cache;
* **ensemble sharded** — ``--ensemble --jobs 2`` on a cold cache;
* **ensemble warm** — ``--ensemble --jobs 2`` again on the now-warm cache.

Both ensemble sweeps must write artefact files byte-identical to the
scalar sweep's, and the warm rerun must execute zero jobs: the cache the
ensemble shards populated under scalar member keys satisfies the very
same grids on the next pass.

A second layer replays the committed golden-master grids
(:mod:`tests.test_golden_artefacts`) through an ensemble-routed engine:
the goldens were generated on the scalar path, so matching them proves
scalar/ensemble interchangeability against a fixed on-disk reference,
not merely within one process.
"""

import pytest

from repro.experiments.engine import ExperimentEngine, ResultCache
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
    assert_same_artefacts(sweeps("reference"), sweeps("ensemble_serial"), "--ensemble --jobs 1")


def test_ensemble_sharded_is_bit_identical_to_scalar(sweeps):
    assert_same_artefacts(sweeps("reference"), sweeps("ensemble_sharded"), "--ensemble --jobs 2")


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
    assert_same_artefacts(sweeps("reference"), sweeps("ensemble_warm"), "warm --ensemble --jobs 2")


def test_scaled_sweeps_never_touch_committed_results(sweeps):
    assert_sweeps_stay_out_of_results(sweeps(axis) for axis in AXES)


# ----------------------------------------------------------------------
# Committed goldens through the ensemble path
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ensemble_engine(tmp_path_factory):
    """One shared ensemble-routed engine, like the golden suite's."""
    root = tmp_path_factory.mktemp("golden-ensemble-cache")
    return ExperimentEngine(jobs=2, cache=ResultCache(root=root), ensemble=True)


@pytest.mark.parametrize("name", list(CASES), ids=list(CASES))
def test_ensemble_path_reproduces_committed_goldens(name, ensemble_engine):
    """The golden masters were generated by the scalar path; the
    ensemble-routed engine must reproduce their bytes exactly, and never
    rewrites them."""
    assert_matches_golden(name, ensemble_engine)
