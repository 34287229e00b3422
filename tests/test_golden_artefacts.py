"""Golden-master regression tests for every paper artefact.

Each case regenerates one artefact at a reduced grid (``scale`` 0.12 is
the smallest scale at which every application clears the warm-up skip)
and compares the formatted table byte-for-byte against a committed
golden file under ``tests/golden/``.  Any drift fails with a readable
unified diff.

``tests/test_grid_ensemble_identity.py`` replays every case through an
ensemble-routed engine with the same :func:`assert_matches_golden`,
which proves scalar/ensemble interchangeability against a fixed
on-disk reference, not merely within one process.

The simulations are fully deterministic, so these goldens are stable
across machines and worker counts; they only change when the model
itself changes.  When that happens intentionally, regenerate them with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_artefacts.py

and commit the refreshed files together with the model change.  Only
the scalar engine (``ensemble=False``) writes them; the ensemble cases
then compare against the fresh files.
"""

import difflib
import os
from pathlib import Path

import pytest

from repro.experiments.engine import ExperimentEngine, ResultCache
from repro.experiments.engine.sweep import ARTEFACTS
from repro.obs.metrics import MetricsRegistry
from tests.conftest import render_artefact

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Smallest scale at which every app clears the 60 s warm-up skip.
SCALE = 0.12

#: Reduced grid per artefact: big enough to exercise every code path of
#: the experiment (multiple rows, multiple policies), small enough that
#: the whole suite regenerates in well under a minute.
CASES = {
    "fig1": {},
    "table2": {"workloads": ("mpeg_dec",)},
    "fig3": {"scenarios": (("mpeg_dec", "tachyon"), ("tachyon", "mpeg_dec"))},
    "fig45": {},
    "fig6": {"intervals": (1, 5, 10)},
    "fig7": {"epochs": (5.0, 30.0), "apps": (("mpeg_dec", "clip 1"),)},
    "fig8": {"state_grid": ((4, (2, 2)),), "action_grid": (4, 8)},
    "table3": {"apps": ("mpeg_dec",)},
    "fig9": {"apps": ("mpeg_enc",)},
    "ablation": {
        "variants": ("full", "no_decoupling"),
        "workloads": (("mpeg_dec", "clip 1"),),
    },
    "fault_tolerance": {
        "policies": ("linux", "proposed"),
        "fault_modes": ("none", "sensor"),
    },
    "montecarlo": {
        "apps": ("mpeg_dec",),
        "policies": ("linux", "proposed"),
        "seeds": 8,
    },
}


def test_every_artefact_has_a_golden_case():
    assert set(CASES) == set(ARTEFACTS)


@pytest.fixture(scope="module")
def engine(tmp_path_factory):
    """One shared engine so overlapping grids resolve from the cache.

    A metrics registry is attached so the goldens are regenerated with
    observability enabled — the golden comparison itself then doubles as
    the proof that metric collection never perturbs the outputs.
    """
    root = tmp_path_factory.mktemp("golden-cache")
    return ExperimentEngine(
        jobs=1, cache=ResultCache(root=root), metrics=MetricsRegistry(),
        ensemble=False,
    )


def _regenerate(name, text, engine) -> bool:
    """Under ``REPRO_REGEN_GOLDEN``, write ``text`` as ``name``'s golden.

    Only the scalar engine that defines the goldens writes them.
    """
    if not os.environ.get("REPRO_REGEN_GOLDEN") or engine.ensemble:
        return False
    GOLDEN_DIR.mkdir(exist_ok=True)
    (GOLDEN_DIR / f"{name}.txt").write_text(text)
    return True


def test_ensemble_engine_never_writes_goldens(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_REGEN_GOLDEN", "1")
    monkeypatch.setitem(globals(), "GOLDEN_DIR", tmp_path / "golden")
    assert not _regenerate("fig1", "table\n", ExperimentEngine())
    assert not (tmp_path / "golden").exists()
    assert _regenerate("fig1", "table\n", ExperimentEngine(ensemble=False))
    assert (tmp_path / "golden" / "fig1.txt").read_text() == "table\n"


def assert_matches_golden(name, engine):
    """``name``'s reduced grid through ``engine`` reproduces its golden
    (or, under ``REPRO_REGEN_GOLDEN`` on the scalar engine, rewrites it)."""
    result = render_artefact(
        ARTEFACTS[name], engine, iteration_scale=SCALE, seed=1, **CASES[name]
    )
    text = result.format_table() + "\n"
    golden_path = GOLDEN_DIR / f"{name}.txt"

    if _regenerate(name, text, engine):
        pytest.skip(f"regenerated {golden_path}")

    assert golden_path.exists(), (
        f"missing golden file {golden_path}; generate it with "
        "REPRO_REGEN_GOLDEN=1 pytest tests/test_golden_artefacts.py"
    )
    golden = golden_path.read_text()
    if text != golden:
        diff = "".join(
            difflib.unified_diff(
                golden.splitlines(keepends=True),
                text.splitlines(keepends=True),
                fromfile=f"golden/{name}.txt",
                tofile=f"regenerated {name}" + (" (ensemble)" if engine.ensemble else ""),
            )
        )
        pytest.fail(
            f"artefact {name!r} drifted from its golden master:\n{diff}\n"
            "If the change is intentional, regenerate the goldens with "
            "REPRO_REGEN_GOLDEN=1 and commit them with the model change."
        )


@pytest.mark.parametrize("name", list(CASES), ids=list(CASES))
def test_artefact_matches_golden(name, engine):
    assert_matches_golden(name, engine)
