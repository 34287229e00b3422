"""Tests for the CLI."""

import pytest

from repro.cli import ARTEFACTS, build_parser, main


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


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "tachyon", "--checkpoint-every", "50"],
        ["run", "tachyon", "--resume"],
        ["fig1", "--checkpoint-every", "50"],
        ["all", "--resume"],
    ],
    ids=["run-every", "run-resume", "artefact-every", "all-resume"],
)
def test_checkpoint_flags_without_a_directory_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2
    assert "needs --checkpoint-dir" in capsys.readouterr().err


def test_resume_from_a_checkpoint_file_implies_its_directory():
    args = build_parser().parse_args(
        ["run", "tachyon", "--checkpoint-every", "50", "--resume", "ckpts/x.ckpt"]
    )
    assert args.checkpoint_dir is None and args.resume == "ckpts/x.ckpt"


@pytest.mark.parametrize("only", ["nope", "fig1,", "fig1,,table2"])
def test_all_only_rejects_unknown_artefacts(only, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["all", "--only", only])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "unknown artefact" in err and ", ".join(ARTEFACTS) in err


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
