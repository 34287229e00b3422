"""Tests for the lint project model: fingerprints, graph, closure.

Fixture trees are written under ``<tmp>/repro/...`` so that the model,
which names each file from its path relative to the tree root, derives
the same dotted module names as it does for the installed package.
"""

import ast
import json
import textwrap
import weakref
from pathlib import Path

import pytest

import repro
from repro.analysis.lint import (
    MEMO_FILENAME,
    FingerprintMemo,
    Marker,
    ProjectModel,
    clear_closure_cache,
    closure_digest,
    closure_report,
    compute_closure,
    fingerprint_module,
    lint_package,
    load_baseline,
    parse_markers,
    python_tag,
)


REPO_ROOT = Path(__file__).resolve().parent.parent


def write_tree(root, files):
    """Write ``{relative_path: source}`` under ``root / 'repro'``."""
    package = root / "repro"
    for relative, source in files.items():
        path = package / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    init = package / "__init__.py"
    if not init.exists():
        init.write_text("", encoding="utf-8")
    return package


def build(root, files):
    return ProjectModel.build(write_tree(root, files))


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A fresh ``$REPRO_CACHE_DIR``: the closure digest starts from a cold
    fingerprint memo and no memoised report, whatever earlier runs left
    in ``./.repro-cache``."""
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    clear_closure_cache()
    yield root
    clear_closure_cache()


# ---------------------------------------------------------------------------
# Import / call graph
# ---------------------------------------------------------------------------


class TestGraph:
    def test_plain_and_from_imports_resolve(self, tmp_path):
        model = build(
            tmp_path,
            {
                "a.py": "import repro.b\n",
                "b.py": "from repro.c import helper\n",
                "c.py": "def helper():\n    return 1\n",
            },
        )
        assert "repro.b" in model.modules["repro.a"].imports
        assert "repro.c" in model.modules["repro.b"].imports

    def test_lazy_in_function_import_is_an_edge(self, tmp_path):
        model = build(
            tmp_path,
            {
                "a.py": """
                def run():
                    from repro.b import helper

                    return helper()
                """,
                "b.py": "def helper():\n    return 2\n",
            },
        )
        assert "repro.b" in model.modules["repro.a"].imports

    def test_relative_import_resolves(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "from . import b\nfrom .b import helper\n",
                "pkg/b.py": "def helper():\n    return 3\n",
            },
        )
        assert "repro.pkg.b" in model.modules["repro.pkg.a"].imports

    def test_importing_a_submodule_pulls_ancestor_inits(self, tmp_path):
        model = build(
            tmp_path,
            {
                "pkg/__init__.py": "SIDE_EFFECT = 1\n",
                "pkg/deep.py": "def f():\n    return 4\n",
                "a.py": "import repro.pkg.deep\n",
            },
        )
        imports = model.modules["repro.a"].imports
        assert "repro.pkg" in imports
        assert "repro.pkg.deep" in imports

    def test_attribute_call_edge_via_longest_module_prefix(self, tmp_path):
        model = build(
            tmp_path,
            {
                "a.py": """
                import repro

                def run():
                    return repro.pkg.deep.f()
                """,
                "pkg/__init__.py": "",
                "pkg/deep.py": "def f():\n    return 5\n",
            },
        )
        assert "repro.pkg.deep" in model.modules["repro.a"].imports

    def test_reachable_follows_transitive_edges(self, tmp_path):
        model = build(
            tmp_path,
            {
                "runner.py": "import repro.mid\n",
                "mid.py": "import repro.leaf\n",
                "leaf.py": "X = 1\n",
                "island.py": "Y = 2\n",
            },
        )
        members = model.reachable(("repro.runner",))
        assert "repro.leaf" in members
        assert "repro.island" not in members

    def test_reachable_prunes_excluded_prefixes(self, tmp_path):
        model = build(
            tmp_path,
            {
                "runner.py": "import repro.tools.probe\n",
                "tools/__init__.py": "",
                "tools/probe.py": "import repro.leaf\n",
                "leaf.py": "X = 1\n",
            },
        )
        members = model.reachable(
            ("repro.runner",), exclude_prefixes=("repro.tools",)
        )
        assert "repro.tools.probe" not in members
        # Traversal is pruned too: the leaf is only reachable through
        # the excluded module, so it must not appear.
        assert "repro.leaf" not in members

    def test_missing_roots_are_ignored(self, tmp_path):
        model = build(tmp_path, {"a.py": "X = 1\n"})
        assert model.reachable(("repro.nope", "repro.a")) == ["repro.a"]


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


BEHAVIOR = """
def scale(value):
    return value * 2.0
"""

DOCUMENTED = '''
# an explanatory comment


def scale(value):
    """Twice the value."""
    # inline commentary
    return value * 2.0
'''


class TestFingerprints:
    def fingerprint(self, tmp_path, name, source):
        root = tmp_path / name
        model = build(root, {"m.py": source})
        return model.modules["repro.m"].fingerprint

    def test_docstrings_comments_and_line_shifts_are_invisible(self, tmp_path):
        assert self.fingerprint(tmp_path, "bare", BEHAVIOR) == self.fingerprint(
            tmp_path, "documented", DOCUMENTED
        )

    def test_constant_change_is_visible(self, tmp_path):
        edited = BEHAVIOR.replace("2.0", "3.0")
        assert self.fingerprint(tmp_path, "bare", BEHAVIOR) != self.fingerprint(
            tmp_path, "edited", edited
        )

    def test_normalized_dump_strips_docstrings_without_mutating(self, tmp_path):
        """The model hashes its trees with docstrings stripped; the
        file's own lines keep them."""
        bare = build(tmp_path / "bare", {"m.py": "def f():\n    return 1\n"})
        documented = build(
            tmp_path / "doc", {"m.py": 'def f():\n    """doc"""\n    return 1\n'}
        )
        info = documented.modules["repro.m"]
        assert info.fingerprint == bare.modules["repro.m"].fingerprint
        assert ast.get_docstring(info.ctx.tree.body[0]) is None
        assert '    """doc"""' in info.ctx.lines

    def test_fingerprint_node_is_stable_and_short(self):
        tree = ast.parse("def f():\n    return 1\n")
        assert fingerprint_module(tree, {}) == fingerprint_module(tree, {})
        assert len(fingerprint_module(tree, {})) == 16


# ---------------------------------------------------------------------------
# Behavior-irrelevant markers
# ---------------------------------------------------------------------------


class TestMarkers:
    def test_parse_reasoned_marker(self):
        markers = parse_markers(
            ["def label():  # repro: behavior-irrelevant reason=display only"]
        )
        assert markers[1] == Marker(line=1, reason="display only")
        assert markers[1].valid

    def test_reasonless_marker_is_invalid(self):
        markers = parse_markers(["# repro: behavior-irrelevant"])
        assert not markers[1].valid

    def test_marked_definition_is_excluded_from_module_fingerprint(
        self, tmp_path
    ):
        base = """
        def compute(x):
            return x + 1


        # repro: behavior-irrelevant reason=log formatting only
        def label():
            return "v1"
        """
        edited = base.replace('"v1"', '"v2 (renamed)"')
        a = build(tmp_path / "a", {"m.py": base}).modules["repro.m"]
        b = build(tmp_path / "b", {"m.py": edited}).modules["repro.m"]
        assert a.fingerprint == b.fingerprint

    def test_marked_edit_to_compute_still_changes_fingerprint(self, tmp_path):
        base = """
        # repro: behavior-irrelevant reason=log formatting only
        def label():
            return "v1"


        def compute(x):
            return x + 1
        """
        edited = base.replace("x + 1", "x + 2")
        a = build(tmp_path / "a", {"m.py": base}).modules["repro.m"]
        b = build(tmp_path / "b", {"m.py": edited}).modules["repro.m"]
        assert a.fingerprint != b.fingerprint

    def test_reasonless_marker_keeps_definition_and_is_recorded(self, tmp_path):
        source = """
        # repro: behavior-irrelevant
        def label():
            return "v1"
        """
        edited = source.replace('"v1"', '"v2"')
        a = build(tmp_path / "a", {"m.py": source}).modules["repro.m"]
        b = build(tmp_path / "b", {"m.py": edited}).modules["repro.m"]
        assert a.malformed_markers == (2,)
        # No opt-out happened: the edit is visible.
        assert a.fingerprint != b.fingerprint


# ---------------------------------------------------------------------------
# Closure digest
# ---------------------------------------------------------------------------


CLOSURE_TREE = {
    "experiments/__init__.py": "",
    "experiments/runner.py": "import repro.soc.chip\n",
    "soc/__init__.py": "",
    "soc/chip.py": "AMBIENT_C = 45.0\n\n\ndef temp():\n    return AMBIENT_C\n",
    "analysis/__init__.py": "",
    "analysis/lint/__init__.py": "TOOLING = True\n",
}


class TestClosure:
    def test_digest_reproducible_and_tagged(self, tmp_path):
        package = write_tree(tmp_path, CLOSURE_TREE)
        first = compute_closure(ProjectModel.build(package))
        second = compute_closure(ProjectModel.build(package))
        assert first.digest == second.digest
        assert first.python == python_tag()
        assert "repro.soc.chip" in first.modules

    def test_tooling_is_excluded_from_the_closure(self, tmp_path):
        package = write_tree(tmp_path, CLOSURE_TREE)
        report = compute_closure(ProjectModel.build(package))
        assert "repro.analysis.lint" not in report.modules

    def test_behavior_edit_moves_digest_doc_edit_does_not(self, tmp_path):
        package = write_tree(tmp_path, CLOSURE_TREE)
        original = compute_closure(ProjectModel.build(package)).digest

        chip = package / "soc" / "chip.py"
        chip.write_text(
            '"""Chip doc."""\n# comment\n' + chip.read_text(), encoding="utf-8"
        )
        documented = compute_closure(ProjectModel.build(package)).digest
        assert documented == original

        chip.write_text(
            chip.read_text().replace("45.0", "46.0"), encoding="utf-8"
        )
        edited = compute_closure(ProjectModel.build(package)).digest
        assert edited != original

    def test_closure_digest_memoised_per_root(self, tmp_path, cache_dir):
        package = write_tree(tmp_path, CLOSURE_TREE)
        clear_closure_cache()
        try:
            first = closure_digest(package)
            # Edit without clearing: the memo must still serve the old
            # digest (this is the documented contract tests rely on).
            chip = package / "soc" / "chip.py"
            chip.write_text(
                chip.read_text().replace("45.0", "46.0"), encoding="utf-8"
            )
            assert closure_digest(package) == first
            clear_closure_cache()
            assert closure_digest(package) != first
            # The default root and an explicit path to the installed
            # package share one memo entry.
            assert closure_report(Path(repro.__file__).parent) is closure_report()
        finally:
            clear_closure_cache()

    def test_closure_report_and_lint_model_agree_on_the_real_tree(self, cache_dir):
        report = closure_report()
        linted = compute_closure(ProjectModel.build())
        assert linted.digest == report.digest
        assert sorted(linted.modules) == sorted(report.modules)

    def test_digest_holds_one_tree_at_a_time(self, monkeypatch, cache_dir):
        # Trees left alive until the digest ends keep their pymalloc
        # arenas mapped for the life of the process (and of every worker
        # it forks), so each member's tree must die before the next parse.
        # The memo is cold (``cache_dir``): a warm one parses nothing,
        # which would pass this test vacuously.
        trees = []
        most_alive = 0
        real_parse = ast.parse

        def tracking_parse(*args, **kwargs):
            nonlocal most_alive
            tree = real_parse(*args, **kwargs)
            trees.append(weakref.ref(tree))
            most_alive = max(most_alive, sum(ref() is not None for ref in trees))
            return tree

        monkeypatch.setattr(ast, "parse", tracking_parse)
        clear_closure_cache()
        try:
            streamed = closure_report()
            cold_parses = len(trees)
            clear_closure_cache()
            # The converse: the memo the cold run wrote serves every member.
            warm = closure_report()
        finally:
            clear_closure_cache()
        monkeypatch.undo()
        assert cold_parses == len(streamed.modules) > 1
        assert most_alive == 1
        assert all(ref() is None for ref in trees)
        assert len(trees) == cold_parses, "a warm memo must parse nothing"
        assert warm.modules == streamed.modules

        # The same digest as the lint model, which keeps every tree, and
        # as the committed baseline.
        held = ProjectModel.build()
        assert len(held.modules) > len(streamed.modules)
        linted = compute_closure(held)
        assert linted.modules == streamed.modules
        assert linted.digest == streamed.digest
        baseline = load_baseline(REPO_ROOT / ".repro-lint-baseline.json")
        if baseline.comparable:
            assert streamed.digest == baseline.closure_digest

    def test_digest_parses_only_closure_members(
        self, tmp_path, monkeypatch, cache_dir
    ):
        package = write_tree(
            tmp_path, {**CLOSURE_TREE, "tools/broken.py": "def broken(:\n"}
        )
        walked = []
        real_walk = ast.walk

        def counting_walk(node):
            walked.append(node)
            return real_walk(node)

        monkeypatch.setattr(ast, "walk", counting_walk)
        clear_closure_cache()
        try:
            report = closure_report(package)
        finally:
            clear_closure_cache()
        assert "repro.soc.chip" in report.modules
        # One walk per parsed module, and only members are parsed.
        assert len(walked) == len(report.modules)
        monkeypatch.undo()
        linted = lint_package(package)
        assert [(f.rule, f.module) for f in linted.active] == [
            ("PARSE", "repro.tools.broken")
        ]
        assert linted.closure is not None
        assert linted.closure.digest == report.digest

    def test_closure_member_that_does_not_parse_raises(self, tmp_path, cache_dir):
        package = write_tree(
            tmp_path, {**CLOSURE_TREE, "soc/chip.py": "def temp(:\n"}
        )
        clear_closure_cache()
        try:
            with pytest.raises(SyntaxError):
                closure_report(package)
        finally:
            clear_closure_cache()
        linted = lint_package(package)
        assert [f.rule for f in linted.active] == ["PARSE"]
        assert linted.closure is None

    def test_same_named_files_in_different_packages_stay_apart(self, tmp_path):
        package = tmp_path / "pkg"
        for sub, source in (("a", "def f(x=[]):\n"), ("b", "def g(y={}):\n")):
            (package / sub).mkdir(parents=True)
            (package / sub / "util.py").write_text(
                source + "    return 0\n", encoding="utf-8"
            )
        model = ProjectModel.build(package)
        assert sorted(model.modules) == ["pkg.a.util", "pkg.b.util"]
        report = lint_package(package)
        assert [(f.rule, f.module) for f in report.active] == [
            ("API001", "pkg.a.util"),
            ("API001", "pkg.b.util"),
        ]


# ---------------------------------------------------------------------------
# Fingerprint memo
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def held_closure():
    """The real tree's closure from a model that holds every tree."""
    return compute_closure(ProjectModel.build())


def count_parses(monkeypatch):
    """Patch ``ast.parse`` to count its calls; returns the running list."""
    calls = []
    real_parse = ast.parse

    def counting_parse(*args, **kwargs):
        calls.append(kwargs.get("filename"))
        return real_parse(*args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    return calls


def warm_up(root=None):
    """Compute the closure once (writing the memo), then forget it."""
    clear_closure_cache()
    report = closure_report(root)
    clear_closure_cache()
    return report


def read_memo(cache_dir):
    return json.loads((cache_dir / MEMO_FILENAME).read_text(encoding="utf-8"))


def write_memo(cache_dir, document):
    (cache_dir / MEMO_FILENAME).write_text(json.dumps(document), encoding="utf-8")


def _cold(cache_dir, monkeypatch):
    return None


def _warm(cache_dir, monkeypatch):
    warm_up()
    return 0


def _corrupt(cache_dir, monkeypatch):
    cache_dir.mkdir(parents=True)
    (cache_dir / MEMO_FILENAME).write_text("{not json", encoding="utf-8")
    return None


def _truncated(cache_dir, monkeypatch):
    warm_up()
    data = (cache_dir / MEMO_FILENAME).read_bytes()
    (cache_dir / MEMO_FILENAME).write_bytes(data[: len(data) // 2])
    return None


def _wrong_shape_entries(cache_dir, monkeypatch):
    warm_up()
    document = read_memo(cache_dir)
    keys = sorted(document["entries"])
    document["entries"][keys[0]] = ["not", "an", "entry"]
    document["entries"][keys[1]]["fingerprint"] = 7
    document["entries"][keys[2]]["imports"] = "repro.soc"
    document["entries"][keys[3]]["references"] = [None]
    write_memo(cache_dir, document)
    return 4


def _read_only(cache_dir, monkeypatch):
    # Root ignores permission bits, so the refusal is simulated too.
    warm_up()
    document = read_memo(cache_dir)
    del document["entries"][sorted(document["entries"])[0]]
    write_memo(cache_dir, document)
    cache_dir.chmod(0o555)

    def refuse(*args, **kwargs):
        raise PermissionError("read-only cache root")

    monkeypatch.setattr("repro.analysis.lint.memo.atomic_write_text", refuse)
    return 1


def _not_a_directory(cache_dir, monkeypatch):
    cache_dir.parent.mkdir(parents=True, exist_ok=True)
    cache_dir.write_text("a file where the cache root should be", encoding="utf-8")
    return None


#: Memo state before the digest -> its parses (None: every member).
MEMO_STATES = {
    "cold": _cold,
    "warm": _warm,
    "corrupt": _corrupt,
    "truncated": _truncated,
    "wrong-shape-entries": _wrong_shape_entries,
    "read-only": _read_only,
    "not-a-directory": _not_a_directory,
}

LISTING_TREE = {
    "experiments/__init__.py": "",
    "experiments/runner.py": (
        "import repro.soc\n\n\ndef run():\n    return repro.soc.extra.VALUE\n"
    ),
    "soc/__init__.py": "",
}


class TestFingerprintMemo:
    @pytest.mark.parametrize("state", sorted(MEMO_STATES))
    def test_digest_is_the_baseline_whatever_the_memo_holds(
        self, state, cache_dir, monkeypatch, held_closure
    ):
        expected_parses = MEMO_STATES[state](cache_dir, monkeypatch)
        parses = count_parses(monkeypatch)
        try:
            report = closure_report()
        finally:
            clear_closure_cache()
        monkeypatch.undo()
        if cache_dir.is_dir():
            cache_dir.chmod(0o755)
        assert report.modules == held_closure.modules
        assert report.digest == held_closure.digest
        baseline = load_baseline(REPO_ROOT / ".repro-lint-baseline.json")
        if baseline.comparable:
            assert report.digest == baseline.closure_digest
        assert len(parses) == (
            len(report.modules) if expected_parses is None else expected_parses
        )
        if state not in ("read-only", "not-a-directory"):
            # Whatever was missing or unreadable has been rewritten.
            entries = read_memo(cache_dir)["entries"]
            assert len(entries) == len(report.modules)

    def test_warm_memo_sees_a_new_module_the_listing_adds(
        self, tmp_path, cache_dir
    ):
        # ``runner.py`` never changes, so its memo entry stays a hit; the
        # module its reference resolves to is decided by the listing.
        package = write_tree(tmp_path, LISTING_TREE)
        cold = warm_up(package)
        assert "repro.soc" in cold.modules

        extra = package / "soc" / "extra.py"
        extra.write_text("VALUE = 1\n", encoding="utf-8")
        warm = warm_up(package)
        assert "repro.soc.extra" in warm.modules
        fresh = compute_closure(ProjectModel.build(package))
        assert warm.modules == fresh.modules
        assert warm.digest == fresh.digest

        extra.unlink()
        assert warm_up(package) == cold

    def test_same_bytes_under_two_names_get_their_own_edges(self, tmp_path):
        relative = "from .helper import VALUE\n"
        package = write_tree(
            tmp_path,
            {
                "a/__init__.py": "",
                "a/helper.py": "VALUE = 1\n",
                "a/mod.py": relative,
                "b/__init__.py": "",
                "b/helper.py": "VALUE = 2\n",
                "b/mod.py": relative,
            },
        )
        path = tmp_path / "memo.json"
        roots = ("repro.a.mod", "repro.b.mod")
        held = ProjectModel.build(package).modules
        for _ in range(2):
            # A cold memo, then the warm one the first round saved.
            model = ProjectModel.build(package)
            memo = FingerprintMemo(path)
            assert sorted(model.fingerprints(roots[:1], memo=memo)) == [
                "repro",
                "repro.a",
                "repro.a.helper",
                "repro.a.mod",
            ]
            assert sorted(model.fingerprints(roots[1:], memo=memo)) == [
                "repro",
                "repro.b",
                "repro.b.helper",
                "repro.b.mod",
            ]
            assert path.exists()
        assert held["repro.a.mod"].imports != held["repro.b.mod"].imports

    def test_syntax_error_after_a_warm_memo_still_raises(
        self, tmp_path, cache_dir
    ):
        package = write_tree(tmp_path, CLOSURE_TREE)
        warm_up(package)
        (package / "soc" / "chip.py").write_text("def temp(:\n", encoding="utf-8")
        try:
            with pytest.raises(SyntaxError):
                closure_report(package)
        finally:
            clear_closure_cache()

    def test_memo_holds_only_the_current_closure(
        self, tmp_path, cache_dir, monkeypatch
    ):
        package = write_tree(tmp_path, CLOSURE_TREE)
        before = warm_up(package)
        assert len(read_memo(cache_dir)["entries"]) == len(before.modules)

        # A warm digest misses nothing, so the file is not rewritten.
        writes = []
        monkeypatch.setattr(
            "repro.analysis.lint.memo.atomic_write_text",
            lambda *args, **kwargs: writes.append(args),
        )
        assert warm_up(package) == before
        assert writes == []
        monkeypatch.undo()

        # The runner stops importing the chip: the closure shrinks, and
        # the rewritten memo drops the chip's entry with it.
        runner = package / "experiments" / "runner.py"
        runner.write_text("import repro.experiments\n", encoding="utf-8")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        after = warm_up(package)
        assert "repro.soc.chip" in before.modules
        assert "repro.soc.chip" not in after.modules
        entries = read_memo(cache_dir)["entries"]
        assert len(entries) == len(after.modules)
        chip = package / "soc" / "chip.py"
        assert FingerprintMemo.key("repro.soc.chip", chip.read_bytes()) not in entries
