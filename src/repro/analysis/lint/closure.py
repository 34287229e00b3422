"""The behavior-closure digest: what the result cache is keyed on.

The *behavior closure* is everything transitively reachable — through
the project model's import/call graph — from the job executors: the
scalar runner entry points (:func:`repro.experiments.runner.run_workload`
/ ``run_scenario``), the vectorized ensemble engine, and checkpoint
capture.  The closure digest combines the normalized fingerprint of
every module in that set, so it changes exactly when a behavior-relevant
edit lands anywhere a cached :class:`~repro.experiments.runner.RunSummary`
could depend on, and stays put for docstring/comment/formatting edits.

:func:`repro.experiments.engine.spec.canonical_json` mixes the digest
into every job key, which is what makes the content-addressed result
cache *statically* sound: stale results are unreachable by construction
instead of by a remembered ``repro.__version__`` bump.

The analysis tooling itself (``repro.analysis.lint``) is excluded from
the closure — it measures behavior, it does not produce it — and the
digest document carries the fingerprint schema version and the
interpreter's ``major.minor`` tag, so algorithm revisions and
interpreter upgrades (whose ASTs and pickles differ) re-key the cache
too.

:func:`closure_report` keeps each member's fingerprint and unresolved
edges in a content-keyed memo file (:mod:`repro.analysis.lint.memo`)
under the result cache's root, so a fresh process hashes the members'
bytes instead of parsing them.  The memo cannot go stale, since its
keys cover everything an entry depends on, and ``--no-cache`` (no
*result* cache) still uses it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.analysis.lint.fingerprint import FINGERPRINT_SCHEMA_VERSION, python_tag
from repro.analysis.lint.memo import MEMO_FILENAME, FingerprintMemo
from repro.analysis.lint.project import ProjectModel, package_root

#: The job executors whose transitive imports define the closure.
CLOSURE_ROOTS: Tuple[str, ...] = (
    "repro.experiments.runner",
    "repro.ensemble.engine",
    "repro.ensemble.runner",
    "repro.checkpoint.state",
)

#: Tooling packages never included in the closure.
CLOSURE_EXCLUDES: Tuple[str, ...] = ("repro.analysis.lint",)


@dataclass(frozen=True)
class ClosureReport:
    """The closure digest plus everything that went into it."""

    digest: str
    python: str
    roots: Tuple[str, ...]
    #: Module name -> normalized module fingerprint, every closure member.
    modules: Dict[str, str]

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready document (sorted, reproducible)."""
        return {
            "digest": self.digest,
            "python": self.python,
            "roots": list(self.roots),
            "modules": {name: self.modules[name] for name in sorted(self.modules)},
        }


def compute_closure(
    model: ProjectModel,
    roots: Tuple[str, ...] = CLOSURE_ROOTS,
    excludes: Tuple[str, ...] = CLOSURE_EXCLUDES,
    memo: Optional[FingerprintMemo] = None,
) -> ClosureReport:
    """Closure membership and digest of a project model.

    Parses only the closure's members that ``memo`` does not hold, one
    at a time, and keeps none of the trees it parses (see
    :meth:`ProjectModel.fingerprints`); a model that already holds them,
    as ``repro lint``'s does, is not parsed again.

    Raises
    ------
    SyntaxError
        If a closure member does not parse.
    """
    streamed = model.fingerprints(roots, exclude_prefixes=excludes, memo=memo)
    modules = dict(sorted(streamed.items()))
    payload = {
        "schema": FINGERPRINT_SCHEMA_VERSION,
        "python": python_tag(),
        "roots": sorted(roots),
        "modules": {name: modules[name] for name in sorted(modules)},
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()
    return ClosureReport(
        digest=digest,
        python=python_tag(),
        roots=tuple(sorted(roots)),
        modules=modules,
    )


_CLOSURE_CACHE: Dict[Path, ClosureReport] = {}


def closure_report(root: Optional[Path] = None) -> ClosureReport:
    """The closure report for a package tree, memoised per resolved root.

    Job-key derivation calls this for every spec, so the report is
    computed once per (process, package root): ``root=None`` and an
    explicit path to the installed package share one entry.  Computing
    it reads the fingerprint memo at ``<cache root>/fingerprint-memo.json``
    (``$REPRO_CACHE_DIR`` or ``./.repro-cache``) and parses only the
    closure's members the memo misses, never the rest of the tree,
    holding one parsed member at a time, so the process (and every
    worker forked from it) keeps no trees' worth of memory mapped
    afterwards.  A miss rewrites the memo with the closure's entries.
    Tests that edit a tree in place must call :func:`clear_closure_cache`
    between edits.

    Raises
    ------
    SyntaxError
        If a closure member fails to parse: a digest that silently
        skipped a module could serve results of code that cannot run.
        Files outside the closure are never parsed (``repro lint``
        reports every file that does not parse).
    """
    key = Path(root).resolve() if root is not None else package_root()
    cached = _CLOSURE_CACHE.get(key)
    if cached is None:
        # Imported lazily: the result cache pulls in the engine's spec
        # layer, which ``repro lint`` never needs.
        from repro.experiments.engine.cache import default_cache_root

        memo = FingerprintMemo(default_cache_root() / MEMO_FILENAME)
        cached = compute_closure(ProjectModel.build(key), memo=memo)
        _CLOSURE_CACHE[key] = cached
    return cached


def closure_digest(root: Optional[Path] = None) -> str:
    """The behavior-closure digest of a package tree (memoised)."""
    return closure_report(root).digest


def clear_closure_cache() -> None:
    """Drop every memoised closure report (tests editing trees in place)."""
    _CLOSURE_CACHE.clear()
