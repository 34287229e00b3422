"""OBS001: the observation-only contract of the obs layer.

``repro.obs`` exists to *watch* the simulation — an instrumented run
must be tick-for-tick identical to an uninstrumented one
(``tests/test_obs_identity.py`` checks this at runtime).  Statically,
that means obs code may never assign to attributes of the objects it is
handed, and may never call their state-mutating APIs.  The rule flags
both on any object that reached the obs function as a parameter, the
only route simulation/agent/scheduler objects enter the layer.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.analysis.lint.context import ModuleContext
from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.registry import ModuleRule, RuleMeta, register

#: Method names that mutate simulation/agent/scheduler state.
MUTATING_APIS = frozenset(
    {
        "set_governor",
        "set_mapping",
        "set_frequency",
        "set_affinity",
        "start_application",
        "advance",
        "step",
        "tick",
        "reset",
        "apply_action",
        "run_epoch",
        "record_epoch",
        "inject",
        "restore",
        "clear",
    }
)


def _root_name(node: ast.AST) -> Optional[str]:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


def _parameters(func: ast.AST) -> Set[str]:
    """Every parameter name of a function, except self/cls."""
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            names.append(extra.arg)
    return {name for name in names if name not in ("self", "cls")}


@register
class ObservationOnly(ModuleRule):
    """OBS001: obs modules never mutate what they observe."""

    meta = RuleMeta(
        code="OBS001",
        name="obs layer is observation-only",
        severity=Severity.ERROR,
        rationale=(
            "instrumented runs must be tick-for-tick identical to "
            "uninstrumented ones; obs code must not assign to, or call "
            "mutating APIs of, objects handed to it"
        ),
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not (
            ctx.module == "repro.obs" or ctx.module.startswith("repro.obs.")
        ):
            return
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = _parameters(func)
            if not params:
                continue
            yield from self._check_function(ctx, func, params)

    def _check_function(
        self,
        ctx: ModuleContext,
        func: ast.AST,
        params: Set[str],
    ) -> Iterator[Finding]:
        assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = _root_name(target)
                    if root in params:
                        yield self.finding(
                            ctx,
                            target,
                            f"assignment into observed object {root!r}; "
                            "the obs layer is observation-only",
                        )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_APIS
            ):
                root = _root_name(node.func)
                if root in params:
                    yield self.finding(
                        ctx,
                        node,
                        f"call to mutating API {node.func.attr!r} on "
                        f"observed object {root!r}; the obs layer is "
                        "observation-only",
                    )
