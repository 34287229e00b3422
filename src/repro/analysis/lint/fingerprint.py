"""Normalized behavior fingerprints of modules.

A fingerprint is a SHA-256 over ``ast.dump`` of a *normalized* AST:
docstrings are stripped, comments and blank lines never reach the AST in
the first place, and ``include_attributes=False`` drops line/column
numbers — so reformatting, re-commenting or re-documenting code keeps
its fingerprint stable while any executable change (a constant, an
operator, a default, an annotation) changes it.

A definition can opt out of fingerprinting with a marker comment on its
``def``/``class`` line (or the line directly above)::

    def label(self) -> str:  # repro: behavior-irrelevant reason=display only

The ``reason=`` clause is mandatory, exactly like ``noqa`` suppressions:
a reasonless marker opts nothing out and is reported by the IRR001 rule.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass
from typing import Dict, List, Union

#: Version of the normalization algorithm; bump on any change to how
#: fingerprints are derived so closure digests can never silently
#: collide across algorithm revisions.
FINGERPRINT_SCHEMA_VERSION = 1

_MARKER_RE = re.compile(
    r"#\s*repro:\s*behavior-irrelevant(?:\s+reason=(?P<reason>.*))?"
)


@dataclass(frozen=True)
class Marker:
    """One parsed ``behavior-irrelevant`` marker comment."""

    line: int
    reason: str

    @property
    def valid(self) -> bool:
        """A marker only opts out with a non-empty reason."""
        return bool(self.reason.strip())


def parse_markers(lines: List[str]) -> Dict[int, Marker]:
    """All behavior-irrelevant markers of a file, keyed by 1-based line."""
    markers: Dict[int, Marker] = {}
    for index, text in enumerate(lines, start=1):
        match = _MARKER_RE.search(text)
        if match is None:
            continue
        reason = (match.group("reason") or "").strip()
        markers[index] = Marker(line=index, reason=reason)
    return markers


def marker_for(node: ast.stmt, markers: Dict[int, Marker]) -> Union[Marker, None]:
    """The marker opting ``node`` out, if any.

    A marker attaches to a definition when it sits on the ``def``/
    ``class`` line itself or on the line directly above it.
    """
    for line in (node.lineno, node.lineno - 1):
        marker = markers.get(line)
        if marker is not None and marker.valid:
            return marker
    return None


#: Node types whose body may open with a docstring.
DOCSTRING_OWNERS = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

DocstringOwner = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]


def strip_docstring(owner: DocstringOwner) -> None:
    """Remove the docstring opening one owner's body, in place."""
    body = owner.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        del body[0]


def fingerprint_module(
    tree: ast.Module, markers: Dict[int, Marker]
) -> str:
    """Normalized fingerprint of an already-normalized module tree.

    Top-level definitions carrying a valid ``behavior-irrelevant``
    marker are dropped before hashing, so edits inside them keep the
    module fingerprint (and therefore the closure digest) stable.  The
    filtered view shares the original statement nodes — nothing is
    copied or mutated.
    """
    view = ast.Module(
        body=[
            stmt
            for stmt in tree.body
            if not (
                isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
                and marker_for(stmt, markers) is not None
            )
        ],
        type_ignores=[],
    )
    return hashlib.sha256(
        ast.dump(view, include_attributes=False).encode("utf-8")
    ).hexdigest()[:16]
