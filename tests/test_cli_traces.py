"""Tests for the CLI and the ASCII trace renderer."""

import pytest

from repro.analysis.traces import render_profile, render_series
from repro.cli import ARTEFACTS, build_parser, main
from repro.thermal.profile import ThermalProfile


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_parser_accepts_every_artefact():
    parser = build_parser()
    for name in ARTEFACTS:
        args = parser.parse_args([name, "--scale", "0.5"])
        assert args.command == name
        assert args.scale == 0.5


def test_parser_run_command():
    parser = build_parser()
    args = parser.parse_args(["run", "tachyon", "--policy", "ge", "--dataset", "set 2"])
    assert args.app == "tachyon"
    assert args.policy == "ge"
    assert not args.profile
    assert parser.parse_args(["run", "tachyon", "--profile"]).profile


def test_parser_rejects_unknown_app():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "doom"])


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table2" in out and "proposed" in out and "tachyon" in out


def test_cli_run_workload(capsys):
    assert main(["run", "mpeg_dec", "--scale", "0.15", "--policy", "powersave"]) == 0
    out = capsys.readouterr().out
    assert "average temperature" in out
    assert "cycling MTTF" in out


def test_cli_artefact_prints_table(capsys, tmp_path, monkeypatch):
    # Artefact commands cache by default; keep the cache out of the repo.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["fig1", "--scale", "0.15"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out


def test_cli_artefact_no_cache_leaves_no_cache_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["fig1", "--scale", "0.15", "--no-cache"]) == 0
    assert "Figure 1" in capsys.readouterr().out
    assert not (tmp_path / "cache").exists()


def test_cli_all_subset(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(
        ["all", "--scale", "0.15", "--only", "fig1", "--jobs", "2", "--quiet"]
    ) == 0
    out = capsys.readouterr().out
    assert "jobs executed:" in out
    assert (tmp_path / "results-scale-0.15" / "fig1.txt").exists()


# ---------------------------------------------------------------------------
# ASCII traces
# ---------------------------------------------------------------------------


def test_render_series_shape():
    series = [40.0 + (i % 10) for i in range(200)]
    chart = render_series(series, width=40, height=8, title="trace")
    lines = chart.splitlines()
    assert lines[0] == "trace"
    assert len(lines) == 1 + 8 + 1  # title + rows + axis
    assert "#" in chart


def test_render_series_axis_labels():
    chart = render_series([30.0, 50.0, 30.0], height=5)
    assert "50.0C" in chart
    assert "30.0C" in chart


def test_render_series_fixed_limits():
    a = render_series([40.0, 45.0], t_min=30.0, t_max=80.0)
    assert "80.0C" in a and "30.0C" in a


def test_render_series_rejects_empty():
    with pytest.raises(ValueError):
        render_series([])


def test_render_constant_series():
    chart = render_series([42.0] * 50)
    assert "#" in chart  # drawn at the bottom band


def test_render_profile_envelope_and_core():
    profile = ThermalProfile(2, 1.0)
    for i in range(100):
        profile.append([40.0 + (i % 5), 60.0])
    envelope = render_profile(profile)
    core0 = render_profile(profile, core=0)
    assert "60.0" in envelope  # the hot core dominates the envelope
    assert "#" in core0
