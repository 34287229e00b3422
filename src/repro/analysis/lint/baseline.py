"""The committed baseline: known findings plus the recorded closure digest.

One JSON document (``.repro-lint-baseline.json``) records:

* **findings** — fingerprints (see
  :meth:`~repro.analysis.lint.findings.Finding.fingerprint`) of known
  findings that do not fail the build, each with a human description.
  The repo ships it empty: every violation is either fixed or carries
  an explicit reasoned ``noqa``;
* the **closure digest** at the time the baseline was written —
  ``repro lint --check-drift`` fails on drift without a matching
  baseline update, so every behavior-relevant edit is acknowledged;
* the interpreter's ``major.minor`` tag — ``ast.dump`` output differs
  across Python minors, so a digest recorded under one interpreter is
  only compared under the same one (the drift check is skipped
  otherwise).

``repro lint --fix-baseline`` rewrites the file from the current tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Union

from repro.analysis.lint.closure import python_tag
from repro.analysis.lint.findings import Finding

#: Default filename, looked up in the working directory.
BASELINE_FILENAME = ".repro-lint-baseline.json"

#: Version of the baseline document layout.
BASELINE_SCHEMA_VERSION = 3

#: Required top-level fields of a baseline document and their JSON types.
_FIELDS = (
    ("python", str),
    ("closure_digest", str),
    ("findings", dict),
)


class BaselineError(ValueError):
    """A baseline file is malformed."""


@dataclass
class Baseline:
    """Parsed baseline (an empty one when no file exists)."""

    python: str = ""
    closure_digest: str = ""
    findings: Dict[str, str] = field(default_factory=dict)

    @property
    def comparable(self) -> bool:
        """Whether the recorded digest compares against this interpreter."""
        return self.python == python_tag()


def load_baseline(path: Union[str, Path]) -> Baseline:
    """Parse one baseline file.

    Raises
    ------
    BaselineError
        If the file is not a valid schema-3 baseline document.
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BaselineError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise BaselineError(f"{path}: baseline must be a JSON object")
    schema = document.get("schema")
    if schema != BASELINE_SCHEMA_VERSION:
        raise BaselineError(
            f"{path}: unsupported baseline schema {schema!r} (expected "
            f"{BASELINE_SCHEMA_VERSION}; re-record it with "
            "`repro lint --fix-baseline`)"
        )
    for name, kind in _FIELDS:
        if not isinstance(document.get(name), kind):
            raise BaselineError(
                f"{path}: baseline field {name!r} missing or malformed"
            )
    findings: Dict[str, str] = {}
    for fingerprint, description in sorted(document["findings"].items()):
        if not isinstance(description, str):
            raise BaselineError(f"{path}: malformed entry {fingerprint!r}")
        findings[fingerprint] = description
    return Baseline(
        python=document["python"],
        closure_digest=document["closure_digest"],
        findings=findings,
    )


def save_baseline(
    path: Union[str, Path],
    findings: Iterable[Finding],
    *,
    closure_digest: str = "",
) -> int:
    """Write the baseline for the current tree; returns the finding count."""
    entries = {
        finding.fingerprint(): f"{finding.rule} {finding.location()}: "
        f"{finding.message}"
        for finding in findings
    }
    document = {
        "schema": BASELINE_SCHEMA_VERSION,
        "python": python_tag(),
        "closure_digest": closure_digest,
        "findings": dict(sorted(entries.items())),
    }
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return len(entries)
