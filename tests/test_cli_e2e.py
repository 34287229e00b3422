"""End-to-end subprocess tests of the ``repro`` command-line interface.

Every test here launches ``python -m repro`` exactly as a user would,
in a temporary working directory, and asserts on exit codes and the
artefacts left on disk — exercising argument parsing, the observability
wiring and the manifest/trace validation path that unit tests cannot
reach.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"


def _repro(args, cwd, env_extra=None, timeout=600):
    """Run ``python -m repro <args>`` in ``cwd`` and capture output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=str(cwd),
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


RUN_ARGS = [
    "run", "mpeg_dec", "--policy", "proposed", "--scale", "0.02",
    "--trace", "--metrics",
]


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One traced+metered ``repro run`` shared by the assertions below."""
    workdir = tmp_path_factory.mktemp("traced_run")
    proc = _repro(RUN_ARGS, cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    return workdir, proc


class TestReproRunObservability:
    def test_writes_all_observability_artefacts(self, traced_run):
        workdir, _ = traced_run
        obs = workdir / "obs"
        for name in ("trace.jsonl", "metrics.json", "metrics.prom",
                     "result.json", "manifest.json"):
            path = obs / name
            assert path.is_file(), f"missing artefact {name}"
            assert path.stat().st_size > 0, f"empty artefact {name}"

    def test_every_trace_line_validates(self, traced_run):
        from repro.obs.trace import read_events, validate_event

        workdir, _ = traced_run
        events = list(read_events(workdir / "obs" / "trace.jsonl"))
        assert events
        for event in events:
            validate_event(event)
        types = {e["type"] for e in events}
        assert {"run_start", "tick", "decision", "run_end"} <= types

    def test_manifest_validates_and_artefacts_verify(self, traced_run):
        from repro.obs.manifest import load_manifest, verify_artefacts

        workdir, _ = traced_run
        obs = workdir / "obs"
        document = load_manifest(obs)
        verify_artefacts(document, obs)
        assert set(document["artefacts"]) >= {
            "trace.jsonl", "metrics.json", "metrics.prom", "result.json"
        }
        assert document["run"]["app"] == "mpeg_dec"

    def test_result_json_embeds_trace_headlines(self, traced_run):
        workdir, _ = traced_run
        result = json.loads((workdir / "obs" / "result.json").read_text())
        assert result["run"]["app"] == "mpeg_dec"
        assert result["summary"]["average_temp_c"] > 0.0
        trace = result["trace"]
        assert trace["total_events"] > 0
        assert trace["decisions"] >= 1
        assert trace["avg_temp_c"] > 0.0

    def test_metrics_exports_agree(self, traced_run):
        workdir, _ = traced_run
        obs = workdir / "obs"
        metrics = json.loads((obs / "metrics.json").read_text())
        prom = (obs / "metrics.prom").read_text()
        assert metrics["repro_runs_total"]["value"] == 1.0
        assert metrics["repro_eval_samples_total"]["value"] > 0
        assert "# TYPE repro_runs_total counter" in prom
        assert "repro_core_temp_c_bucket" in prom

    def test_trace_summarize_matches_result(self, traced_run):
        workdir, _ = traced_run
        proc = _repro(
            ["trace", "summarize", "obs/trace.jsonl",
             "--check-result", "obs/result.json"],
            cwd=workdir,
        )
        assert proc.returncode == 0, proc.stderr
        assert "trace matches" in proc.stdout
        assert "avg temperature" in proc.stdout

    def test_trace_summarize_detects_tampering(self, traced_run, tmp_path):
        workdir, _ = traced_run
        source = (workdir / "obs" / "trace.jsonl").read_text()
        lines = source.splitlines()
        # Drop every tick event: the recomputed headline statistics can
        # no longer match the recorded result document.
        kept = [line for line in lines if '"type": "tick"' not in line]
        assert len(kept) < len(lines)
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(kept) + "\n")
        result_path = workdir / "obs" / "result.json"
        proc = _repro(
            ["trace", "summarize", str(tampered),
             "--check-result", str(result_path)],
            cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert "MISMATCH" in proc.stdout

    def test_trace_summarize_rejects_invalid_events(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": 1, "seq": 0, "type": "nonsense", "t": 0.0}\n')
        proc = _repro(["trace", "summarize", str(bad)], cwd=tmp_path)
        assert proc.returncode == 1

    def test_plain_run_writes_no_observability(self, tmp_path):
        proc = _repro(
            ["run", "mpeg_dec", "--policy", "proposed", "--scale", "0.02"],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert not (tmp_path / "obs").exists()


class TestReproAllParallel:
    def test_all_jobs2_with_metrics(self, tmp_path):
        metrics_path = tmp_path / "sweep_metrics.json"
        proc = _repro(
            ["all", "--jobs", "2", "--scale", "0.12", "--only", "fig1",
             "--metrics", str(metrics_path)],
            cwd=tmp_path,
            env_extra={"REPRO_CACHE_DIR": str(tmp_path / "cache")},
        )
        assert proc.returncode == 0, proc.stderr
        assert metrics_path.is_file()
        metrics = json.loads(metrics_path.read_text())
        assert metrics["repro_artefacts_regenerated_total"]["value"] == 1.0
        assert metrics["repro_engine_jobs_submitted_total"]["value"] > 0
        assert "metrics written to" in proc.stdout

    def test_all_rejects_unknown_artefact(self, tmp_path):
        proc = _repro(
            ["all", "--only", "not_an_artefact", "--scale", "0.12"],
            cwd=tmp_path,
            env_extra={"REPRO_CACHE_DIR": str(tmp_path / "cache")},
        )
        assert proc.returncode != 0


#: 16 members: at --jobs 2 the planner splits them into two shards of
#: its 8-member floor, so these tests exercise real ensemble shards.
ENS_RUN_ARGS = [
    "ensemble", "run", "tachyon", "--members", "16",
    "--scale", "0.05", "--seed", "7",
]


class TestReproEnsembleRun:
    def test_sharded_output_is_identical_to_serial(self, tmp_path):
        """--jobs 2 must print the exact per-seed table --jobs 1 does;
        only the execution-summary line may differ."""
        serial = _repro([*ENS_RUN_ARGS, "--no-cache", "--jobs", "1"],
                        cwd=tmp_path)
        sharded = _repro([*ENS_RUN_ARGS, "--no-cache", "--jobs", "2"],
                         cwd=tmp_path)
        assert serial.returncode == 0, serial.stderr
        assert sharded.returncode == 0, sharded.stderr
        # header + 16 member rows + ensemble mean line
        head = serial.stdout.splitlines()[:18]
        assert head == sharded.stdout.splitlines()[:18]
        assert "0 member(s) from cache, 16 executed" in sharded.stdout

    def test_sharded_run_populates_the_member_cache(self, tmp_path):
        env = {"REPRO_CACHE_DIR": str(tmp_path / "cache")}
        cold = _repro([*ENS_RUN_ARGS, "--jobs", "2"], cwd=tmp_path,
                      env_extra=env)
        assert cold.returncode == 0, cold.stderr
        assert "0 member(s) from cache, 16 executed" in cold.stdout
        warm = _repro([*ENS_RUN_ARGS, "--jobs", "2"], cwd=tmp_path,
                      env_extra=env)
        assert warm.returncode == 0, warm.stderr
        assert "16 member(s) from cache, 0 executed" in warm.stdout
        assert (warm.stdout.splitlines()[:18]
                == cold.stdout.splitlines()[:18])

    def test_shard_timeout_surfaces_failure_and_exits_nonzero(self, tmp_path):
        # The timeout is per cell: each 8-member shard gets 8 x 0.005 s,
        # still far below one shard's run time.
        proc = _repro(
            [*ENS_RUN_ARGS, "--no-cache", "--jobs", "2",
             "--job-timeout", "0.005", "--max-job-attempts", "1"],
            cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert "-- shard failed; see below --" in proc.stdout
        assert "FAILED" in proc.stdout
        assert "timed out" in proc.stdout


#: (command, bad option) pairs every parser must reject before any work
#: starts.  Where the option under test is not ``--scale``, a small scale
#: and a one-artefact grid keep a parser that wrongly accepts it cheap.
_BAD_NUMERIC_OPTIONS = [
    (["all", "--only", "fig1"], ["--jobs", "0"]),
    (["all", "--only", "fig1"], ["--scale", "nan"]),
    (["all", "--only", "fig1"], ["--checkpoint-every", "0"]),
    (["all", "--only", "fig1"], ["--max-job-attempts", "0"]),
    (["montecarlo"], ["--scale", "inf"]),
    (["table2"], ["--scale", "-0.5"]),
    (["fig3"], ["--jobs", "0"]),
    (["run", "tachyon"], ["--scale", "-1"]),
    (["run", "tachyon"], ["--scale", "nan"]),
    (["run", "tachyon"], ["--scale", "0"]),
    (["run", "tachyon", "--scale", "0.02"], ["--checkpoint-every", "0"]),
    (["ensemble", "run", "tachyon"], ["--members", "0"]),
    (["ensemble", "run", "tachyon"], ["--jobs", "0"]),
    (["ensemble", "run", "tachyon"], ["--max-job-attempts", "0"]),
    (["ensemble", "run", "tachyon"], ["--scale", "abc"]),
    (["ckpt", "prune", "ckpts"], ["--keep", "0"]),
    (["fig1"], ["--job-timeout", "-1"]),
    (["ensemble", "run", "tachyon"], ["--job-timeout", "0"]),
    (["ensemble", "run", "tachyon"], ["--job-timeout", "nan"]),
    (["ensemble", "run", "tachyon"], ["--max-time", "-5"]),
]


class TestCliErrors:
    @pytest.mark.parametrize(
        "command, option",
        _BAD_NUMERIC_OPTIONS,
        ids=[f"{command[0]}{flag}={value}"
             for command, (flag, value) in _BAD_NUMERIC_OPTIONS],
    )
    def test_bad_numeric_option_exits_2_with_usage(self, command, option, tmp_path):
        proc = _repro(
            [*command, *option],
            cwd=tmp_path,
            env_extra={"REPRO_CACHE_DIR": str(tmp_path / "cache")},
        )
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "usage:" in proc.stderr
        assert option[0] in proc.stderr

    def test_unknown_app_exits_nonzero(self, tmp_path):
        proc = _repro(["run", "not_an_app"], cwd=tmp_path)
        assert proc.returncode != 0

    def test_trace_requires_subcommand(self, tmp_path):
        proc = _repro(["trace"], cwd=tmp_path)
        assert proc.returncode != 0
