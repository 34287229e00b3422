"""Tests for the project rules: EQV001, MUT001, RED001, IRR001.

Each rule gets a fixture tree that must fire and one that must stay
silent, plus the engine-level binning (noqa suppression, baselined
findings) and the shipped tree's own cleanliness.
"""

import textwrap
from pathlib import Path

from repro.analysis.lint import (
    Baseline,
    lint_package,
    load_baseline,
    pair_id,
    render_human,
    save_baseline,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_tree(root, files):
    package = root / "repro"
    for relative, source in files.items():
        path = package / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    init = package / "__init__.py"
    if not init.exists():
        init.write_text("", encoding="utf-8")
    return package


def codes(report):
    return [finding.rule for finding in report.active]


#: A minimal tree containing one registered scalar/ensemble pair.
TWIN_TREE = {
    "sched/__init__.py": "",
    "sched/scheduler.py": """
    def pick(queue):
        return queue[0]
    """,
    "ensemble/__init__.py": "",
    "ensemble/sched.py": """
    def pick_batch(queues):
        return [q[0] for q in queues]
    """,
}


class TestEQV001:
    def baseline_for(self, package, path):
        report = lint_package(package)
        save_baseline(
            path,
            [],
            closure_digest=report.closure.digest,
            pairs=report.pairs,
        )
        return load_baseline(path)

    def test_pairing_table_built_from_present_twins(self, tmp_path):
        package = write_tree(tmp_path, TWIN_TREE)
        report = lint_package(package)
        key = pair_id("repro.sched.scheduler", "repro.ensemble.sched")
        assert key in report.pairs
        assert report.pairs[key].scalar
        assert report.pairs[key].ensemble

    def test_scalar_only_edit_fires(self, tmp_path):
        package = write_tree(tmp_path, TWIN_TREE)
        baseline = self.baseline_for(package, tmp_path / "baseline.json")
        (package / "sched" / "scheduler.py").write_text(
            "def pick(queue):\n    return queue[-1]\n", encoding="utf-8"
        )
        report = lint_package(package, baseline=baseline)
        assert codes(report) == ["EQV001"]
        finding = report.active[0]
        assert finding.module == "repro.sched.scheduler"
        assert "repro.ensemble.sched" in finding.message
        assert "--fix-baseline" in finding.message

    def test_mirrored_edit_is_silent(self, tmp_path):
        package = write_tree(tmp_path, TWIN_TREE)
        baseline = self.baseline_for(package, tmp_path / "baseline.json")
        (package / "sched" / "scheduler.py").write_text(
            "def pick(queue):\n    return queue[-1]\n", encoding="utf-8"
        )
        (package / "ensemble" / "sched.py").write_text(
            "def pick_batch(queues):\n    return [q[-1] for q in queues]\n",
            encoding="utf-8",
        )
        report = lint_package(package, baseline=baseline)
        assert report.clean

    def test_doc_only_scalar_edit_is_silent(self, tmp_path):
        package = write_tree(tmp_path, TWIN_TREE)
        baseline = self.baseline_for(package, tmp_path / "baseline.json")
        scheduler = package / "sched" / "scheduler.py"
        scheduler.write_text(
            '"""Scheduler doc."""\n# comment\n' + scheduler.read_text(),
            encoding="utf-8",
        )
        report = lint_package(package, baseline=baseline)
        assert report.clean

    def test_skipped_without_comparable_baseline(self, tmp_path):
        package = write_tree(tmp_path, TWIN_TREE)
        baseline = self.baseline_for(package, tmp_path / "baseline.json")
        (package / "sched" / "scheduler.py").write_text(
            "def pick(queue):\n    return queue[-1]\n", encoding="utf-8"
        )
        # Same fingerprints, recorded under a fictional interpreter:
        # EQV001 must not diff apples against oranges.
        foreign = Baseline(
            python="0.0",
            closure_digest=baseline.closure_digest,
            pairs=baseline.pairs,
            findings={},
        )
        report = lint_package(package, baseline=foreign)
        assert report.clean
        assert not report.baseline_comparable


#: Worker-reachable tree for MUT001: runner -> util.
MUTABLE_TREE = {
    "experiments/__init__.py": "",
    "experiments/runner.py": "import repro.util\n",
    "util.py": "REGISTRY = {}\n",
}


class TestMUT001:
    def test_fires_on_reachable_module_level_dict(self, tmp_path):
        package = write_tree(tmp_path, MUTABLE_TREE)
        report = lint_package(package, rules=["MUT001"])
        assert codes(report) == ["MUT001"]
        assert "REGISTRY" in report.active[0].message

    def test_fires_on_constructor_calls_and_comprehensions(self, tmp_path):
        files = dict(MUTABLE_TREE)
        files["util.py"] = """
        import collections

        ROWS = list(range(3))
        COUNTS = collections.Counter()
        INDEX = {name: 0 for name in ("a", "b")}
        """
        package = write_tree(tmp_path, files)
        report = lint_package(package, rules=["MUT001"])
        assert codes(report) == ["MUT001", "MUT001", "MUT001"]

    def test_silent_on_immutable_forms(self, tmp_path):
        files = dict(MUTABLE_TREE)
        files["util.py"] = """
        from types import MappingProxyType

        NAMES = ("a", "b")
        LEVELS = frozenset({1, 2})
        TABLE = MappingProxyType({"a": 1})
        """
        package = write_tree(tmp_path, files)
        report = lint_package(package, rules=["MUT001"])
        assert report.clean

    def test_unreachable_module_is_ignored(self, tmp_path):
        files = dict(MUTABLE_TREE)
        files["experiments/runner.py"] = "X = 1\n"
        package = write_tree(tmp_path, files)
        report = lint_package(package, rules=["MUT001"])
        assert report.clean

    def test_dunder_assignments_are_exempt(self, tmp_path):
        files = dict(MUTABLE_TREE)
        files["util.py"] = "__all__ = [\"helper\"]\n\n\ndef helper():\n    return 1\n"
        package = write_tree(tmp_path, files)
        report = lint_package(package, rules=["MUT001"])
        assert report.clean

    def test_noqa_with_reason_suppresses(self, tmp_path):
        files = dict(MUTABLE_TREE)
        files["util.py"] = (
            "REGISTRY = {}  "
            "# repro: noqa[MUT001] reason=populated once at import, then frozen\n"
        )
        package = write_tree(tmp_path, files)
        report = lint_package(package, rules=["MUT001"])
        assert report.clean
        assert [f.rule for f in report.suppressed] == ["MUT001"]


#: repro.sched.scheduler is one of the FP-exact fast-path modules.
REDUCTION_TREE = {
    "sched/__init__.py": "",
    "sched/scheduler.py": """
    def load(per_core):
        return sum(per_core.values())
    """,
}


class TestRED001:
    def test_fires_on_dict_view_and_set_reductions(self, tmp_path):
        files = dict(REDUCTION_TREE)
        files["sched/scheduler.py"] = """
        import math

        def load(per_core):
            a = sum(per_core.values())
            b = max({c for c in per_core})
            c = math.fsum(set(per_core))
            return a + b + c
        """
        package = write_tree(tmp_path, files)
        report = lint_package(package, rules=["RED001"])
        assert codes(report) == ["RED001", "RED001", "RED001"]

    def test_silent_when_sorted_first(self, tmp_path):
        files = dict(REDUCTION_TREE)
        files["sched/scheduler.py"] = """
        def load(per_core):
            return sum(sorted(per_core.values()))
        """
        package = write_tree(tmp_path, files)
        report = lint_package(package, rules=["RED001"])
        assert report.clean

    def test_non_fast_path_module_is_ignored(self, tmp_path):
        package = write_tree(
            tmp_path,
            {"helpers.py": "def load(d):\n    return sum(d.values())\n"},
        )
        report = lint_package(package, rules=["RED001"])
        assert report.clean


class TestIRR001:
    def test_reasonless_marker_is_an_active_finding(self, tmp_path):
        package = write_tree(
            tmp_path,
            {
                "m.py": """
                # repro: behavior-irrelevant
                def label():
                    return "v1"
                """,
            },
        )
        report = lint_package(package)
        assert "IRR001" in codes(report)
        assert "reason=" in report.active[0].message

    def test_reasoned_marker_is_clean(self, tmp_path):
        package = write_tree(
            tmp_path,
            {
                "m.py": """
                # repro: behavior-irrelevant reason=display label only
                def label():
                    return "v1"
                """,
            },
        )
        report = lint_package(package)
        assert report.clean


class TestEngineBinning:
    def test_baselined_findings_do_not_fail(self, tmp_path):
        package = write_tree(tmp_path, MUTABLE_TREE)
        report = lint_package(package, rules=["MUT001"])
        baseline_path = tmp_path / "baseline.json"
        save_baseline(
            baseline_path,
            report.active,
            closure_digest=report.closure.digest,
            pairs=report.pairs,
        )
        rerun = lint_package(
            package,
            rules=["MUT001"],
            baseline=load_baseline(baseline_path),
        )
        assert rerun.clean
        assert [f.rule for f in rerun.baselined] == ["MUT001"]

    def test_drift_detection_against_recorded_digest(self, tmp_path):
        package = write_tree(tmp_path, MUTABLE_TREE)
        report = lint_package(package)
        baseline_path = tmp_path / "baseline.json"
        save_baseline(
            baseline_path,
            report.active,
            closure_digest=report.closure.digest,
            pairs=report.pairs,
        )
        baseline = load_baseline(baseline_path)
        assert not lint_package(package, baseline=baseline).drift
        (package / "util.py").write_text("REGISTRY = ()\n", encoding="utf-8")
        drifted = lint_package(package, baseline=baseline)
        assert drifted.drift
        assert drifted.exit_code(check_drift=True) == 1
        assert drifted.exit_code() == 0


class TestShippedTree:
    def test_committed_tree_audits_clean_against_its_baseline(self):
        # The acceptance criterion: `repro lint` exits 0 on the
        # committed tree.  On the interpreter the baseline was recorded
        # under there must be no drift either.
        baseline = load_baseline(REPO_ROOT / ".repro-lint-baseline.json")
        report = lint_package(baseline=baseline)
        assert report.clean, render_human(report)
        if baseline.comparable:
            assert not report.drift, (
                "closure digest drifted from the committed baseline; "
                "refresh with `repro lint --fix-baseline`"
            )
