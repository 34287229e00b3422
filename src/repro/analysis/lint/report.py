"""Lint output: console report, JSON document, closure table, key lookups.

The JSON document is the machine interface CI consumes (``repro lint
--json``): ``schema``/``tool``/``rules``/``findings``/``summary`` plus a
``closure`` section (digest, drift status).  Its shape is frozen by a
golden under ``tests/golden/`` so downstream automation can rely on it.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional

import repro
from repro.analysis.lint.engine import LintReport
from repro.analysis.lint.findings import Severity
from repro.analysis.lint.registry import rule_descriptions

#: Version of the JSON report layout.
REPORT_SCHEMA_VERSION = 3


def _plural(count: int, noun: str) -> str:
    return f"{count} {noun}{'s' if count != 1 else ''}"


def render_json(report: LintReport) -> str:
    """The machine-readable report (one JSON document, sorted keys)."""
    closure: Dict[str, Any] = {}
    if report.closure is not None:
        closure = {
            "digest": report.closure.digest,
            "python": report.closure.python,
            "roots": list(report.closure.roots),
            "modules": len(report.closure.modules),
            "baseline_digest": report.baseline_digest,
            "baseline_comparable": report.baseline_comparable,
            "drift": report.drift,
        }
    document: Dict[str, Any] = {
        "schema": REPORT_SCHEMA_VERSION,
        "tool": "repro-lint",
        "rules": rule_descriptions(report.rules),
        "findings": [finding.as_dict() for finding in report.active],
        "summary": {
            "files": report.files,
            "findings": len(report.active),
            "errors": sum(
                1 for f in report.active if f.severity is Severity.ERROR
            ),
            "warnings": sum(
                1 for f in report.active if f.severity is Severity.WARNING
            ),
            "suppressed": len(report.suppressed),
            "baselined": len(report.baselined),
        },
        "closure": closure,
    }
    return json.dumps(document, indent=2, sort_keys=True)


def render_human(report: LintReport, verbose: bool = False) -> str:
    """The console report: findings, closure and drift status, summary."""
    lines: List[str] = []
    for finding in report.active:
        lines.append(
            f"{finding.location()}: {finding.rule} "
            f"[{finding.severity}] {finding.message}"
        )
    if verbose:
        for finding in report.suppressed:
            lines.append(f"{finding.location()}: {finding.rule} (suppressed)")
        for finding in report.baselined:
            lines.append(f"{finding.location()}: {finding.rule} (baselined)")
    if report.closure is not None:
        lines.append(
            f"closure: {len(report.closure.modules)} modules, "
            f"digest {report.closure.digest[:16]} (py{report.closure.python})"
        )
        if report.baseline_digest:
            if not report.baseline_comparable:
                lines.append(
                    "baseline: recorded under a different interpreter; "
                    "drift check skipped"
                )
            elif report.drift:
                lines.append(
                    f"baseline: closure drifted from {report.baseline_digest[:16]} "
                    "(behavior changed; refresh with `repro lint --fix-baseline`)"
                )
            else:
                lines.append("baseline: closure digest matches")
    lines.append(
        f"checked {_plural(report.files, 'file')}: "
        f"{_plural(len(report.active), 'finding')} "
        f"({len(report.suppressed)} suppressed, "
        f"{len(report.baselined)} baselined)"
    )
    return "\n".join(lines)


def render_closure_table(report: LintReport) -> str:
    """Per-module fingerprint table (``repro lint --show-closure``).

    Diffing this table between two trees names the exact module whose
    behavior change caused a closure-digest drift.
    """
    if report.closure is None:
        return "no closure computed"
    lines = [
        f"{name}  {report.closure.modules[name]}"
        for name in sorted(report.closure.modules)
    ]
    lines.append(f"digest: {report.closure.digest}")
    return "\n".join(lines)


def explain_job_key(
    key_prefix: str,
    cache_root: Path,
    current_digest: str,
    version: Optional[str] = None,
) -> str:
    """Explain a cached result's identity (``repro lint --explain KEY``).

    Looks the key (or an unambiguous prefix, >= 8 hex chars) up in the
    result cache and reports whether the entry would still be served:
    its stored package version and behavior-closure digest are compared
    against the current tree's.
    """
    if len(key_prefix) < 8:
        return f"key prefix {key_prefix!r} is too short (need >= 8 hex chars)"
    store = cache_root / "results"
    matches = sorted(
        path
        for path in store.rglob("*.pkl")
        if path.stem.startswith(key_prefix)
    )
    if not matches:
        return f"no cache entry under {store} matches {key_prefix!r}"
    if len(matches) > 1:
        listed = ", ".join(path.stem[:16] for path in matches)
        return f"ambiguous prefix {key_prefix!r}: matches {listed}"
    path = matches[0]
    try:
        with path.open("rb") as handle:
            payload = pickle.load(handle)
    except Exception as exc:  # pragma: no cover - corrupt file shapes vary
        return f"{path.stem[:16]}: entry is corrupt ({type(exc).__name__})"
    expected_version = version if version is not None else repro.__version__
    stored_version = payload.get("version")
    stored_closure = payload.get("closure")
    lines = [
        f"key      : {path.stem}",
        f"entry    : {path}",
        f"version  : stored {stored_version!r}, current {expected_version!r}",
        f"closure  : stored {str(stored_closure)[:16]}, "
        f"current {current_digest[:16]}",
    ]
    if stored_closure is None:
        lines.append(
            "verdict  : STALE — entry predates closure-digest keying"
        )
    elif stored_version != expected_version:
        lines.append("verdict  : STALE — package version changed")
    elif stored_closure != current_digest:
        lines.append(
            "verdict  : STALE — behavior closure changed since this entry "
            "was stored (a fresh run will re-execute and re-key)"
        )
    else:
        lines.append("verdict  : FRESH — entry matches the current tree")
    return "\n".join(lines)
