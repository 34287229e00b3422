"""Artefact routing: reduced-scale output never lands in ``results/``.

Only scale 1.0 may touch the committed ``results/`` directory; scaled
sweeps are routed through the experiment-engine cache tree instead, so a
quick reduced-scale run can never clobber the full-scale tables.
"""

from pathlib import Path

from repro.experiments.engine import artifact_dir, default_cache_root


def test_artifact_dir_full_scale_is_results_dir(tmp_path):
    assert artifact_dir(1.0, tmp_path) == tmp_path


def test_artifact_dir_scaled_lands_in_cache_tree(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    target = artifact_dir(0.2, Path("results"))
    assert target == tmp_path / "results-scale-0.2"
    assert default_cache_root() == tmp_path
