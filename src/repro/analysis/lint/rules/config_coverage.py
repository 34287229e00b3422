"""CFG001: every config dataclass field has a validation branch.

``repro.config`` is the single place every tunable of the platform, the
reliability models and the agent lives; an invalid value that slips
through surfaces hundreds of ticks later as NaN temperatures or a
silently wrong sweep (PR 1 hardened exactly such a path).  The rule
requires each dataclass field in ``repro.config`` to be *covered* by
``__post_init__``: the field name must appear there either as a
``self.<field>`` access or as a string literal (the ``getattr`` loop
idiom ``for name in ("a", "b"): _check(getattr(self, name))``).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.lint.context import ModuleContext
from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.registry import ModuleRule, RuleMeta, register

#: The module whose dataclasses the rule audits.
CONFIG_MODULE = "repro.config"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name == "dataclass":
            return True
    return False


def _field_definitions(node: ast.ClassDef) -> List[Tuple[str, ast.AnnAssign]]:
    """(name, node) of every dataclass field declared on the class body."""
    fields: List[Tuple[str, ast.AnnAssign]] = []
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        if not isinstance(statement.target, ast.Name):
            continue
        annotation = ast.dump(statement.annotation)
        if "ClassVar" in annotation or "InitVar" in annotation:
            continue
        fields.append((statement.target.id, statement))
    return fields


def _post_init(node: ast.ClassDef) -> Optional[ast.FunctionDef]:
    for statement in node.body:
        if (
            isinstance(statement, ast.FunctionDef)
            and statement.name == "__post_init__"
        ):
            return statement
    return None


def _covered_names(post_init: ast.FunctionDef) -> Set[str]:
    """Field names referenced by the validation code."""
    covered: Set[str] = set()
    for node in ast.walk(post_init):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            covered.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            covered.add(node.value)
    return covered


@register
class ConfigValidationCoverage(ModuleRule):
    """CFG001: config dataclass fields are all validated."""

    meta = RuleMeta(
        code="CFG001",
        name="config fields all have validation branches",
        severity=Severity.ERROR,
        rationale=(
            "an unvalidated tunable in repro.config fails hundreds of "
            "ticks downstream (NaN temperatures, silently wrong sweeps); "
            "__post_init__ must reference every field"
        ),
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module != CONFIG_MODULE:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef) or not _is_dataclass(node):
                continue
            fields = _field_definitions(node)
            if not fields:
                continue
            post_init = _post_init(node)
            covered = _covered_names(post_init) if post_init else set()
            for name, definition in fields:
                if name in covered:
                    continue
                if post_init is None:
                    message = (
                        f"dataclass {node.name} has no __post_init__; "
                        f"field {name!r} is never validated"
                    )
                else:
                    message = (
                        f"field {name!r} of {node.name} has no validation "
                        "branch in __post_init__"
                    )
                yield self.finding(ctx, definition, message)
