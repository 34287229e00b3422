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
        ["run", "tachyon", "--members", "8", "--checkpoint-every", "50"],
    ],
    ids=["run-every", "run-resume", "artefact-every", "all-resume", "ensemble-every"],
)
def test_checkpoint_flags_without_a_directory_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2
    assert "needs --checkpoint-dir" in capsys.readouterr().err


def test_resume_from_a_checkpoint_file_implies_its_directory(tmp_path):
    ckpt = tmp_path / "x.ckpt"
    ckpt.write_text("{}")
    args = build_parser().parse_args(
        ["run", "tachyon", "--checkpoint-every", "50", "--resume", str(ckpt)]
    )
    assert args.checkpoint_dir is None and args.resume == str(ckpt)


#: Flags on the wrong side of ``run --members``: the single run's
#: instrumentation and ``--resume CKPT`` under a batch (``all`` is one
#: too), the engine's batch flags under a single run.
_BATCH = ["run", "tachyon", "--members", "2"]
_SINGLE = ["run", "tachyon"]
_WRONG_SIDE = {
    "batch-trace": (_BATCH, ["--trace"]),
    "batch-metrics": (_BATCH, ["--metrics"]),
    "batch-profile": (_BATCH, ["--profile"]),
    "batch-resume-ckpt": (_BATCH, ["--resume", "CKPT"]),
    "all-resume-ckpt": (["all"], ["--resume", "CKPT"]),
    "single-jobs": (_SINGLE, ["--jobs", "2"]),
    "single-no-cache": (_SINGLE, ["--no-cache"]),
    "single-job-timeout": (_SINGLE, ["--job-timeout", "5"]),
    "single-max-job-attempts": (_SINGLE, ["--max-job-attempts", "2"]),
}


@pytest.mark.parametrize(
    "command, flag", list(_WRONG_SIDE.values()), ids=list(_WRONG_SIDE)
)
def test_flags_a_run_path_would_ignore_are_usage_errors(command, flag, tmp_path, capsys):
    ckpt = tmp_path / "x.ckpt"
    ckpt.write_text("{}")
    flag = [str(ckpt) if part == "CKPT" else part for part in flag]
    with pytest.raises(SystemExit) as excinfo:
        main([*command, *flag])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and flag[0] in err
    assert "needs --members" in err or "needs a single run" in err


def test_batch_and_checkpoint_flags_parse_on_their_own_side():
    parser = build_parser()
    batch = parser.parse_args(
        ["run", "tachyon", "--members", "4", "--jobs", "2", "--no-cache",
         "--checkpoint-every", "50", "--checkpoint-dir", "ck", "--resume"]
    )
    assert (batch.members, batch.jobs, batch.resume) == (4, 2, True)
    single = parser.parse_args(
        ["run", "tachyon", "--trace", "--checkpoint-dir", "ck", "--resume"]
    )
    assert single.members == 1 and single.jobs is None and single.resume is True


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
