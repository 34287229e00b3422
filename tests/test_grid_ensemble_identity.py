"""Grid equivalence: ensemble-routed sweeps == scalar sweeps, byte for byte.

The acceptance layer for the ensemble grid planner.  Four full ``repro
all`` sweeps at reduced scale:

* **scalar** — ``--jobs 1 --no-cache``, the serial reference;
* **ensemble serial** — ``--ensemble --jobs 1`` on a cold cache;
* **ensemble sharded** — ``--ensemble --jobs 2`` on a cold cache;
* **warm** — ``--ensemble --jobs 2`` again on the now-warm cache.

Both ensemble sweeps must write artefact files byte-identical to the
scalar sweep's, and the warm re-run must execute zero jobs — the cache
the ensemble shards populated under scalar member keys satisfies the
very same grids on the next pass.

A second layer replays the committed golden-master grids
(:mod:`tests.test_golden_artefacts`) through an ensemble-routed engine:
the goldens were generated on the scalar path, so matching them proves
scalar/ensemble interchangeability against a fixed on-disk reference,
not merely within one process.
"""

import difflib
from pathlib import Path

import pytest

from repro.experiments.engine import ExperimentEngine, ResultCache
from repro.experiments.engine.sweep import ARTEFACTS, regenerate_all
from repro.experiments.engine.sweep import SweepReport  # noqa: F401  (docs)
from tests.test_golden_artefacts import CASES, GOLDEN_DIR

#: Smallest scale at which every app clears the 60 s warm-up skip.
SCALE = 0.12


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """Run the four sweeps once; every test inspects the reports."""
    scalar_root = tmp_path_factory.mktemp("scalar-root")
    serial_root = tmp_path_factory.mktemp("ensemble-serial-root")
    sharded_root = tmp_path_factory.mktemp("ensemble-sharded-root")

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(scalar_root))
        scalar = regenerate_all(
            iteration_scale=SCALE,
            seed=1,
            engine=ExperimentEngine(jobs=1),
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(serial_root))
        ensemble_serial = regenerate_all(
            iteration_scale=SCALE,
            seed=1,
            engine=ExperimentEngine(jobs=1, cache=ResultCache(), ensemble=True),
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(sharded_root))
        ensemble_sharded = regenerate_all(
            iteration_scale=SCALE,
            seed=1,
            engine=ExperimentEngine(jobs=2, cache=ResultCache(), ensemble=True),
        )
        warm = regenerate_all(
            iteration_scale=SCALE,
            seed=1,
            engine=ExperimentEngine(jobs=2, cache=ResultCache(), ensemble=True),
        )

    return {
        "scalar": scalar,
        "ensemble_serial": ensemble_serial,
        "ensemble_sharded": ensemble_sharded,
        "warm": warm,
    }


def test_all_artefacts_written(sweeps):
    for report in sweeps.values():
        assert report.ok
        assert [run.name for run in report.runs] == list(ARTEFACTS)
        for run in report.runs:
            assert run.path.exists()


def _assert_bytes_match(reference, candidate, label):
    assert reference.output_dir != candidate.output_dir
    for name in ARTEFACTS:
        reference_bytes = (reference.output_dir / f"{name}.txt").read_bytes()
        candidate_bytes = (candidate.output_dir / f"{name}.txt").read_bytes()
        assert reference_bytes == candidate_bytes, (
            f"{name}: {label} sweep diverged from the scalar sweep"
        )


def test_ensemble_serial_is_bit_identical_to_scalar(sweeps):
    _assert_bytes_match(sweeps["scalar"], sweeps["ensemble_serial"], "--ensemble --jobs 1")


def test_ensemble_sharded_is_bit_identical_to_scalar(sweeps):
    _assert_bytes_match(sweeps["scalar"], sweeps["ensemble_sharded"], "--ensemble --jobs 2")


def test_cold_ensemble_sweeps_actually_executed(sweeps):
    for key in ("ensemble_serial", "ensemble_sharded"):
        stats = sweeps[key].stats.as_dict()
        assert stats["executed"] > 0
        assert stats["cache_misses"] > 0
        assert stats["failed"] == 0


def test_warm_ensemble_rerun_executes_zero_jobs(sweeps):
    """The members the ensemble shards cached under scalar keys satisfy
    the identical grids on the next pass — nothing re-executes."""
    stats = sweeps["warm"].stats.as_dict()
    assert stats["executed"] == 0
    assert stats["cache_misses"] == 0
    assert stats["cache_hits"] > 0
    for warm_run, scalar_run in zip(sweeps["warm"].runs, sweeps["scalar"].runs):
        assert warm_run.text == scalar_run.text


def test_scaled_sweeps_never_touch_committed_results(sweeps):
    committed = (Path(__file__).resolve().parent.parent / "results").resolve()
    for report in sweeps.values():
        assert report.output_dir.resolve() != committed
        assert committed not in report.output_dir.resolve().parents


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
    ensemble-routed engine must reproduce their bytes exactly."""
    golden_path = GOLDEN_DIR / f"{name}.txt"
    assert golden_path.exists(), f"missing golden file {golden_path}"
    result = ARTEFACTS[name](
        iteration_scale=SCALE, seed=1, engine=ensemble_engine, **CASES[name]
    )
    text = result.format_table() + "\n"
    golden = golden_path.read_text()
    if text != golden:
        diff = "".join(
            difflib.unified_diff(
                golden.splitlines(keepends=True),
                text.splitlines(keepends=True),
                fromfile=f"golden/{name}.txt",
                tofile=f"ensemble-routed {name}",
            )
        )
        pytest.fail(
            f"ensemble-routed {name!r} drifted from the committed golden:\n{diff}"
        )
