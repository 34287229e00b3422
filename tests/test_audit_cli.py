"""CLI tests for ``repro lint`` on package trees, plus the JSON schema golden.

These drive the project-level surface of the command: project rules,
the closure digest and its drift check, ``--show-closure``,
``--explain``, baseline handling and target validation.  The schema
golden freezes the *shape* (keys and value types, not values) of the
``repro lint --json`` document, so accidental contract changes fail
loudly.  Regenerate it after an intentional schema change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_audit_cli.py

and commit the refreshed files together with the change.
"""

import difflib
import json
import os
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.engine import (
    CLOSURE_DIGEST_ENV,
    ResultCache,
    workload_job,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

PROJECT_RULE_CODES = ("MUT001", "RED001", "IRR001")

#: One MUT001 violation reachable from the job executors — enough to
#: exercise every CLI surface.
AUDIT_FIXTURE = {
    "experiments/__init__.py": "",
    "experiments/runner.py": "import repro.util\n",
    "util.py": "REGISTRY = {}\n",
}


def write_fixture(root, files=AUDIT_FIXTURE):
    package = root / "repro"
    for relative, source in files.items():
        path = package / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    (package / "__init__.py").write_text("", encoding="utf-8")
    return package


class TestAuditCommand:
    def test_exits_zero_on_the_committed_tree(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "closure:" in out
        assert "0 findings" in out

    def test_check_drift_passes_on_the_committed_tree(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", "--check-drift"]) == 0

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in PROJECT_RULE_CODES:
            assert code in out

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        package = write_fixture(tmp_path)
        assert main(["lint", str(package), "--rule", "NOPE999"]) == 2
        assert "NOPE999" in capsys.readouterr().out

    def test_findings_fail_then_fix_baseline_round_trip(self, tmp_path, capsys):
        package = write_fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        argv = ["lint", str(package), "--baseline", str(baseline)]
        assert main(argv) == 1
        assert "MUT001" in capsys.readouterr().out
        assert main(argv + ["--fix-baseline"]) == 0
        assert "rewritten" in capsys.readouterr().out
        # With the finding recorded, the same tree now lints clean.
        assert main(argv) == 0
        assert main(argv + ["--verbose"]) == 0
        assert "baselined" in capsys.readouterr().out

    def test_check_drift_fails_after_behavior_edit(self, tmp_path, capsys):
        package = write_fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        argv = ["lint", str(package), "--baseline", str(baseline)]
        assert main(argv + ["--fix-baseline"]) == 0
        capsys.readouterr()
        # An immutable rewrite: the MUT001 finding disappears, but the
        # closure digest moves — only --check-drift turns that into a
        # failure.
        (package / "util.py").write_text("REGISTRY = ()\n", encoding="utf-8")
        assert main(argv) == 0
        assert main(argv + ["--check-drift"]) == 1
        assert "drifted" in capsys.readouterr().out

    def test_show_closure_prints_the_fingerprint_table(self, tmp_path, capsys):
        package = write_fixture(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "lint",
                    str(package),
                    "--baseline",
                    str(baseline),
                    "--show-closure",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "repro.util" in out
        assert "digest:" in out


#: A tree whose only defect is a reasonless behavior-irrelevant marker.
MARKER_FIXTURE = {
    "m.py": """
    # repro: behavior-irrelevant
    def label():
        return "v1"
    """,
}


class TestRuleSelection:
    def argv(self, tmp_path, rule):
        package = write_fixture(tmp_path, MARKER_FIXTURE)
        baseline = tmp_path / "absent.json"
        return ["lint", str(package), "--baseline", str(baseline), "--rule", rule]

    def test_irr001_is_selectable(self, tmp_path, capsys):
        assert main(self.argv(tmp_path, "IRR001")) == 1
        out = capsys.readouterr().out
        assert "IRR001" in out
        assert ": 1 finding " in out

    def test_other_rule_filters_irr001_out(self, tmp_path, capsys):
        assert main(self.argv(tmp_path, "MUT001")) == 0
        assert "IRR001" not in capsys.readouterr().out


class TestTargetValidation:
    @pytest.mark.parametrize(
        "kind, extra",
        [("missing", []), ("missing", ["--check-drift"]), ("file", [])],
        ids=["missing", "missing-check-drift", "file"],
    )
    def test_target_must_be_an_existing_directory(
        self, tmp_path, capsys, kind, extra
    ):
        target = tmp_path / "nope"
        if kind == "file":
            target.write_text("X = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(target)] + extra)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "not an existing directory" in err

    def test_audit_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["audit"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestMalformedBaseline:
    @pytest.mark.parametrize(
        "content, needle",
        [
            ("{bad", "not valid JSON"),
            ('{"findings": {}, "schema": 1}', "schema 1"),
            (
                '{"closure_digest": "", "findings": {}, "pairs": {}, '
                '"python": "3.11", "schema": 2}',
                "schema 2 (expected 3; re-record it with "
                "`repro lint --fix-baseline`)",
            ),
        ],
        ids=["invalid-json", "schema-1", "schema-2"],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, content, needle):
        package = write_fixture(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(content, encoding="utf-8")
        assert main(["lint", str(package), "--baseline", str(bad)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: ")
        assert needle in lines[0]
        assert captured.out == ""


class TestExplain:
    @pytest.fixture
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv(CLOSURE_DIGEST_ENV, "a" * 64)
        return ResultCache()

    @pytest.fixture
    def spec(self):
        return workload_job("mpeg_dec", policy="proposed")

    def test_fresh_entry(self, cache, spec, capsys):
        cache.put(spec, {"ok": True})
        key = cache.key_for(spec)
        assert main(["lint", "--explain", key[:12]]) == 0
        out = capsys.readouterr().out
        assert "FRESH" in out
        assert key in out

    def test_stale_after_closure_change(self, cache, spec, capsys, monkeypatch):
        cache.put(spec, {"ok": True})
        key = cache.key_for(spec)
        monkeypatch.setenv(CLOSURE_DIGEST_ENV, "b" * 64)
        assert main(["lint", "--explain", key[:12]]) == 0
        out = capsys.readouterr().out
        assert "STALE" in out
        assert "behavior closure changed" in out

    def test_stale_after_version_change(self, tmp_path, spec, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv(CLOSURE_DIGEST_ENV, "a" * 64)
        old = ResultCache(version="0.0.0-ancient")
        old.put(spec, {"ok": True})
        assert main(["lint", "--explain", old.key_for(spec)[:12]]) == 0
        out = capsys.readouterr().out
        assert "STALE" in out
        assert "version changed" in out

    def test_short_prefix_and_no_match(self, cache, spec, capsys):
        assert main(["lint", "--explain", "abc"]) == 0
        assert "too short" in capsys.readouterr().out
        assert main(["lint", "--explain", "0" * 16]) == 0
        assert "no cache entry" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# JSON report schema goldens
# ---------------------------------------------------------------------------


def schema_skeleton(value):
    """Reduce a JSON document to its shape: keys kept, values -> type names.

    Lists keep one skeleton per distinct element shape, so a list of
    uniform finding objects collapses to a single entry.
    """
    if isinstance(value, dict):
        return {key: schema_skeleton(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        shapes = []
        for element in value:
            shape = schema_skeleton(element)
            if shape not in shapes:
                shapes.append(shape)
        return shapes
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    return "str"


def check_schema_golden(name, document):
    text = json.dumps(schema_skeleton(document), indent=2, sort_keys=True) + "\n"
    golden_path = GOLDEN_DIR / name

    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(text)
        pytest.skip(f"regenerated {golden_path}")

    assert golden_path.exists(), (
        f"missing golden file {golden_path}; generate it with "
        "REPRO_REGEN_GOLDEN=1 pytest tests/test_audit_cli.py"
    )
    golden = golden_path.read_text()
    if text != golden:
        diff = "".join(
            difflib.unified_diff(
                golden.splitlines(keepends=True),
                text.splitlines(keepends=True),
                fromfile=f"golden/{name}",
                tofile=f"current {name}",
            )
        )
        pytest.fail(
            f"JSON report schema drifted from golden/{name}:\n{diff}\n"
            "If the change is intentional, regenerate the goldens with "
            "REPRO_REGEN_GOLDEN=1 and bump the report schema version."
        )


class TestJsonSchemas:
    def test_lint_json_schema(self, tmp_path, capsys):
        # A tree with a real finding, so the per-finding shape is frozen
        # too (an empty section would freeze nothing).
        package = write_fixture(tmp_path)
        assert (
            main(
                [
                    "lint",
                    str(package),
                    "--baseline",
                    str(tmp_path / "absent.json"),
                    "--json",
                ]
            )
            == 1
        )
        document = json.loads(capsys.readouterr().out)
        assert document["findings"]
        assert document["closure"]["modules"] > 0
        check_schema_golden("lint_json_schema.json", document)
