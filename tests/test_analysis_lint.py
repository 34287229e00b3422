"""Tests for the `repro lint` engine and its module rules.

Covers the engine (registry, suppression parsing, baseline round-trip,
JSON reporter schema) and, for every module rule, one fixture that must
fire and one that must stay silent.  The project rules are covered by
``test_audit_rules.py``.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import (
    BaselineError,
    MALFORMED_SUPPRESSION_CODE,
    ModuleRule,
    Severity,
    all_rule_classes,
    build_rules,
    lint_package,
    lint_source,
    load_baseline,
    module_for_path,
    parse_suppressions,
    render_human,
    render_json,
    save_baseline,
)
from repro.cli import main

MODULE_RULE_CODES = ("API001", "CFG001", "DET001", "DET002", "FP001", "OBS001")
PROJECT_RULE_CODES = ("EQV001", "IRR001", "MUT001", "RED001")
RULE_CODES = tuple(sorted(MODULE_RULE_CODES + PROJECT_RULE_CODES))


def codes(report):
    return [finding.rule for finding in report.active]


def lint_fixture(source, module, rules=None):
    return lint_source(textwrap.dedent(source), module=module, rules=rules)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_opening_ruleset_registered(self):
        assert tuple(all_rule_classes()) == RULE_CODES
        module_rules = [
            code
            for code, cls in all_rule_classes().items()
            if issubclass(cls, ModuleRule)
        ]
        assert tuple(module_rules) == MODULE_RULE_CODES

    def test_build_rules_filters(self):
        rules = build_rules(["DET001", "FP001"])
        assert [rule.meta.code for rule in rules] == ["DET001", "FP001"]

    def test_build_rules_rejects_unknown_code(self):
        with pytest.raises(KeyError, match="NOPE999"):
            build_rules(["NOPE999"])

    def test_every_rule_documents_its_invariant(self):
        for cls in all_rule_classes().values():
            assert cls.meta.rationale
            assert cls.meta.severity in (Severity.ERROR, Severity.WARNING)


# ---------------------------------------------------------------------------
# Suppression parsing
# ---------------------------------------------------------------------------


class TestSuppression:
    def test_parse_reasoned_noqa(self):
        lines = ["x = 1  # repro: noqa[DET001] reason=fixture clock"]
        parsed = parse_suppressions(lines)
        assert parsed[1].codes == ("DET001",)
        assert parsed[1].reason == "fixture clock"
        assert parsed[1].valid

    def test_parse_multiple_codes(self):
        lines = ["y = 2  # repro: noqa[DET001, FP001] reason=both apply"]
        assert parsed_codes(lines) == ("DET001", "FP001")

    def test_reasonless_noqa_is_invalid(self):
        lines = ["z = 3  # repro: noqa[DET001]"]
        assert not parse_suppressions(lines)[1].valid

    def test_reasoned_noqa_suppresses_finding(self):
        report = lint_fixture(
            """
            import time

            def tick():  # repro: noqa[DET001] reason=unit-test fixture
                return time.time()  # repro: noqa[DET001] reason=unit-test fixture
            """,
            module="repro.soc.fixture",
        )
        assert report.clean
        assert [f.rule for f in report.suppressed] == ["DET001"]

    def test_reasonless_noqa_reports_noqa001_and_keeps_finding(self):
        report = lint_fixture(
            """
            import time

            def tick():
                return time.time()  # repro: noqa[DET001]
            """,
            module="repro.soc.fixture",
        )
        assert MALFORMED_SUPPRESSION_CODE in codes(report)
        assert "DET001" in codes(report)


def parsed_codes(lines):
    return parse_suppressions(lines)[1].codes


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


class TestBaseline:
    FIXTURE = """
    import time

    def tick():
        return time.time()
    """

    def findings(self):
        return lint_fixture(self.FIXTURE, module="repro.soc.fixture").active

    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        count = save_baseline(path, self.findings())
        assert count == len(self.findings()) > 0
        baseline = load_baseline(path)
        assert set(baseline.findings) == {f.fingerprint() for f in self.findings()}

    def test_baselined_findings_do_not_fail(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(path, self.findings())
        report = lint_source(
            textwrap.dedent(self.FIXTURE),
            module="repro.soc.fixture",
            baseline=load_baseline(path),
        )
        assert report.clean
        assert len(report.baselined) == len(self.findings())

    def test_fingerprint_survives_line_shift(self):
        shifted = "# a new leading comment\n" + textwrap.dedent(self.FIXTURE)
        original = {f.fingerprint() for f in self.findings()}
        moved = {
            f.fingerprint()
            for f in lint_source(shifted, module="repro.soc.fixture").active
        }
        assert original == moved

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("[]")
        with pytest.raises(BaselineError):
            load_baseline(path)
        path.write_text('{"schema": 99, "findings": {}}')
        with pytest.raises(BaselineError, match="schema"):
            load_baseline(path)


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


class TestReporters:
    def report(self):
        return lint_fixture(
            """
            import time

            def tick():
                return time.time()
            """,
            module="repro.soc.fixture",
        )

    def test_json_schema(self):
        document = json.loads(render_json(self.report()))
        assert document["schema"] == 2
        assert document["tool"] == "repro-lint"
        # A snippet has no project model: only the module rules run.
        assert {r["code"] for r in document["rules"]} == set(MODULE_RULE_CODES)
        for finding in document["findings"]:
            assert set(finding) == {
                "rule",
                "severity",
                "path",
                "module",
                "line",
                "col",
                "message",
                "fingerprint",
            }
        summary = document["summary"]
        assert set(summary) == {
            "files",
            "findings",
            "errors",
            "warnings",
            "suppressed",
            "baselined",
        }
        assert summary["findings"] == len(document["findings"])

    def test_human_report_lists_location_and_code(self):
        text = render_human(self.report())
        assert "DET001" in text
        assert "checked 1 file" in text


# ---------------------------------------------------------------------------
# DET001 — no nondeterminism sources in the decision loop
# ---------------------------------------------------------------------------


class TestDET001:
    def test_fires_on_wall_clock_and_entropy(self):
        report = lint_fixture(
            """
            import time
            import os
            import numpy as np

            def decide():
                start = time.perf_counter()
                rng = np.random.default_rng()
                mode = os.environ["REPRO_MODE"]
                return start, rng, mode, os.urandom(4)
            """,
            module="repro.core.fixture",
            rules=["DET001"],
        )
        assert codes(report).count("DET001") == 4

    def test_fires_on_stdlib_random_import(self):
        report = lint_fixture(
            "import random\n",
            module="repro.reliability.fixture",
            rules=["DET001"],
        )
        assert codes(report) == ["DET001"]

    def test_silent_on_seeded_generator(self):
        report = lint_fixture(
            """
            import numpy as np

            def make_rng(seed):
                return np.random.default_rng(seed)
            """,
            module="repro.sched.fixture",
            rules=["DET001"],
        )
        assert report.clean

    def test_out_of_scope_module_is_ignored(self):
        report = lint_fixture(
            "import time\nNOW = time.time()\n",
            module="repro.perf.fixture",
            rules=["DET001"],
        )
        assert report.clean

    def test_planner_and_audit_are_in_scope(self):
        from repro.analysis.lint.rules.determinism import DETERMINISTIC_PACKAGES

        assert "repro.experiments.engine.planner" in DETERMINISTIC_PACKAGES
        assert "repro.analysis.lint" in DETERMINISTIC_PACKAGES
        for module in (
            "repro.experiments.engine.planner",
            "repro.analysis.lint.fixture",
        ):
            report = lint_fixture(
                "import time\nNOW = time.time()\n",
                module=module,
                rules=["DET001"],
            )
            assert codes(report) == ["DET001"], module

    def test_closure_module_is_in_scope(self):
        # The closure digest keys the result cache: a wall clock there
        # would make every job key irreproducible.
        report = lint_fixture(
            "import time\nNOW = time.time()\n",
            module="repro.analysis.lint.closure",
            rules=["DET001"],
        )
        assert codes(report) == ["DET001"]


# ---------------------------------------------------------------------------
# DET002 — no unordered iteration on hashing/caching paths
# ---------------------------------------------------------------------------


class TestDET002:
    def test_fires_on_unsorted_dict_views_and_sets(self):
        report = lint_fixture(
            """
            def fold(entries):
                for key in entries.keys():
                    yield key
                return [v for v in entries.values()] + [x for x in set(entries)]
            """,
            module="repro.experiments.engine.fixture",
            rules=["DET002"],
        )
        assert codes(report).count("DET002") == 3

    def test_fires_in_obs_manifest(self):
        report = lint_fixture(
            """
            def digest_all(artefacts):
                for name, entry in artefacts.items():
                    yield name, entry
            """,
            module="repro.obs.manifest",
            rules=["DET002"],
        )
        assert codes(report) == ["DET002"]

    def test_silent_when_sorted(self):
        report = lint_fixture(
            """
            def fold(entries):
                for key, value in sorted(entries.items()):
                    yield key, value
            """,
            module="repro.experiments.engine.fixture",
            rules=["DET002"],
        )
        assert report.clean

    def test_out_of_scope_module_is_ignored(self):
        report = lint_fixture(
            """
            def fold(entries):
                return list(entries.keys())[0] if entries.keys() else None

            def loop(entries):
                for key in entries.keys():
                    yield key
            """,
            module="repro.workloads.fixture",
            rules=["DET002"],
        )
        assert report.clean

    def test_audit_package_is_in_scope(self):
        from repro.analysis.lint.rules.determinism import ORDER_SENSITIVE_MODULES

        assert "repro.analysis.lint" in ORDER_SENSITIVE_MODULES
        report = lint_fixture(
            """
            def fold(entries):
                for key in entries.keys():
                    yield key
            """,
            module="repro.analysis.lint.fixture",
            rules=["DET002"],
        )
        assert codes(report) == ["DET002"]

    def test_fingerprint_module_is_in_scope(self):
        # Fingerprints are content addresses: a set fold there would
        # make the closure digest depend on hash order.
        report = lint_fixture(
            """
            def fold(names):
                for name in set(names):
                    yield name
            """,
            module="repro.analysis.lint.fingerprint",
            rules=["DET002"],
        )
        assert codes(report) == ["DET002"]


# ---------------------------------------------------------------------------
# OBS001 — observation-only obs layer
# ---------------------------------------------------------------------------


class TestOBS001:
    def test_fires_on_attribute_assignment_to_observed_object(self):
        report = lint_fixture(
            """
            def watch(simulation):
                simulation.paused = True
            """,
            module="repro.obs.fixture",
            rules=["OBS001"],
        )
        assert codes(report) == ["OBS001"]

    def test_fires_on_mutating_api_call(self):
        report = lint_fixture(
            """
            def watch(simulation):
                simulation.chip.set_governor(0, "powersave")
                simulation.agent.reset()
            """,
            module="repro.obs.fixture",
            rules=["OBS001"],
        )
        assert codes(report).count("OBS001") == 2

    def test_silent_on_reads_and_self_mutation(self):
        report = lint_fixture(
            """
            class Collector:
                def __init__(self):
                    self.samples = []

                def watch(self, simulation):
                    self.samples.append(simulation.time_s)
                    return simulation.chip.temperatures()
            """,
            module="repro.obs.fixture",
            rules=["OBS001"],
        )
        assert report.clean

    def test_out_of_scope_module_is_ignored(self):
        report = lint_fixture(
            """
            def drive(simulation):
                simulation.chip.set_governor(0, "performance")
            """,
            module="repro.sched.fixture",
            rules=["OBS001"],
        )
        assert report.clean


# ---------------------------------------------------------------------------
# FP001 — exact FP op order on the fast path
# ---------------------------------------------------------------------------


class TestFP001:
    def test_fires_on_generator_sum_and_fsum(self):
        report = lint_fixture(
            """
            import math

            def fold(powers):
                a = sum(p * 2.0 for p in powers)
                b = math.fsum(powers)
                return a + b
            """,
            module="repro.soc.chip",
            rules=["FP001"],
        )
        assert codes(report).count("FP001") == 2
        assert all(f.severity is Severity.WARNING for f in report.active)

    def test_silent_on_materialised_sum(self):
        report = lint_fixture(
            """
            def fold(powers):
                return sum(powers)
            """,
            module="repro.soc.chip",
            rules=["FP001"],
        )
        assert report.clean

    def test_out_of_scope_module_is_ignored(self):
        report = lint_fixture(
            """
            import math

            def fold(values):
                return math.fsum(v * 2.0 for v in values)
            """,
            module="repro.reliability.fixture",
            rules=["FP001"],
        )
        assert report.clean


# ---------------------------------------------------------------------------
# CFG001 — every config dataclass field has a validation branch
# ---------------------------------------------------------------------------


class TestCFG001:
    def test_fires_on_uncovered_field(self):
        report = lint_fixture(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class DemoConfig:
                covered: float = 1.0
                uncovered: float = 2.0

                def __post_init__(self):
                    if self.covered <= 0:
                        raise ValueError("covered must be positive")
            """,
            module="repro.config",
            rules=["CFG001"],
        )
        assert codes(report) == ["CFG001"]
        assert "uncovered" in report.active[0].message

    def test_fires_on_missing_post_init(self):
        report = lint_fixture(
            """
            from dataclasses import dataclass

            @dataclass
            class DemoConfig:
                alpha: float = 0.5
                beta: float = 0.25
            """,
            module="repro.config",
            rules=["CFG001"],
        )
        assert codes(report) == ["CFG001", "CFG001"]

    def test_getattr_loop_counts_as_coverage(self):
        report = lint_fixture(
            """
            from dataclasses import dataclass

            def _check(name, value):
                if value < 0:
                    raise ValueError(name)

            @dataclass
            class DemoConfig:
                alpha: float = 0.5
                beta: float = 0.25

                def __post_init__(self):
                    for name in ("alpha", "beta"):
                        _check(name, getattr(self, name))
            """,
            module="repro.config",
            rules=["CFG001"],
        )
        assert report.clean

    def test_out_of_scope_module_is_ignored(self):
        report = lint_fixture(
            """
            from dataclasses import dataclass

            @dataclass
            class Row:
                value: float = 0.0
            """,
            module="repro.experiments.fixture",
            rules=["CFG001"],
        )
        assert report.clean

    def test_repo_config_is_fully_covered(self):
        # The default package, which includes repro.config.
        assert main(["lint", "--rule", "CFG001"]) == 0


# ---------------------------------------------------------------------------
# API001 — no mutable defaults, no bare excepts
# ---------------------------------------------------------------------------


class TestAPI001:
    def test_fires_on_mutable_default(self):
        report = lint_fixture(
            """
            def collect(values=[]):
                return values
            """,
            module="repro.workloads.fixture",
            rules=["API001"],
        )
        assert codes(report) == ["API001"]

    def test_fires_on_bare_except(self):
        report = lint_fixture(
            """
            def load(path):
                try:
                    return open(path).read()
                except:
                    return None
            """,
            module="repro.experiments.fixture",
            rules=["API001"],
        )
        assert codes(report) == ["API001"]

    def test_silent_on_none_default_and_typed_except(self):
        report = lint_fixture(
            """
            def collect(values=None):
                if values is None:
                    values = []
                try:
                    return list(values)
                except TypeError:
                    return []
            """,
            module="repro.workloads.fixture",
            rules=["API001"],
        )
        assert report.clean


# ---------------------------------------------------------------------------
# Engine / CLI
# ---------------------------------------------------------------------------


class TestEngine:
    def test_module_name_derivation(self):
        assert (
            module_for_path(Path("/x/src/repro/soc/chip.py")) == "repro.soc.chip"
        )
        assert module_for_path(Path("/x/src/repro/obs/__init__.py")) == "repro.obs"
        assert module_for_path(Path("/tmp/scratch.py")) == "scratch"

    def test_unparseable_file_reports_parse_error(self, tmp_path):
        bad = tmp_path / "repro" / "soc" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n")
        (bad.parent / "fine.py").write_text("def fine():\n    return 1\n")
        # The broken file is an active finding, not a crash, and the
        # rest of the directory is still linted.
        report = lint_package(tmp_path / "repro")
        assert codes(report) == ["PARSE"]
        assert report.active[0].module == "repro.soc.broken"
        assert report.files == 2

    def test_whole_package_is_clean(self):
        # The acceptance criterion: the shipped tree has zero active
        # findings against an empty baseline.
        report = lint_package()
        assert report.clean, render_human(report)
        # The one reasoned exemption in the tree is visible as suppressed.
        assert any(f.rule == "FP001" for f in report.suppressed)


class TestCli:
    def violation_tree(self, tmp_path):
        root = tmp_path / "repro" / "soc"
        root.mkdir(parents=True)
        (root / "bad.py").write_text("import time\nNOW = time.time()\n")
        return tmp_path / "repro"

    def test_lint_subcommand_flags_and_exit_codes(self, tmp_path, capsys):
        target = self.violation_tree(tmp_path)
        assert main(["lint", str(target)]) == 1
        assert "DET001" in capsys.readouterr().out
        assert main(["lint", str(target), "--rule", "OBS001"]) == 0
        assert main(["lint", str(target), "--rule", "NOPE999"]) == 2

    def test_lint_json_output(self, tmp_path, capsys):
        target = self.violation_tree(tmp_path)
        assert main(["lint", str(target), "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["errors"] >= 1

    def test_fix_baseline_round_trip(self, tmp_path, capsys):
        target = self.violation_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                ["lint", str(target), "--baseline", str(baseline), "--fix-baseline"]
            )
            == 0
        )
        capsys.readouterr()
        # With the violations recorded, the same tree now lints clean.
        assert main(["lint", str(target), "--baseline", str(baseline)]) == 0
        assert "baselined" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULE_CODES:
            assert code in out
