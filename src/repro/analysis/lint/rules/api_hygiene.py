"""API001: public-API hygiene — no mutable defaults, no bare excepts.

Two classic Python footguns with outsized blast radius in a determinism
contract: a mutable default argument is shared *across calls* (state
leaks between runs that must be independent), and a bare ``except:``
swallows ``KeyboardInterrupt``/``SystemExit`` and hides the very
failures the fault-injection layer exists to surface.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.lint.context import ModuleContext
from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.registry import ModuleRule, RuleMeta, register

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
    )


@register
class ApiHygiene(ModuleRule):
    """API001: no mutable defaults on public functions, no bare excepts."""

    meta = RuleMeta(
        code="API001",
        name="no mutable default arguments or bare excepts",
        severity=Severity.ERROR,
        rationale=(
            "a mutable default is shared across calls (state leaking "
            "between runs that must be independent); a bare except "
            "swallows KeyboardInterrupt/SystemExit and masks injected "
            "faults"
        ),
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                defaults: List[ast.expr] = list(node.args.defaults)
                defaults.extend(
                    d for d in node.args.kw_defaults if d is not None
                )
                for default in defaults:
                    if _is_mutable_default(default):
                        yield self.finding(
                            ctx,
                            default,
                            f"public function {node.name!r} has a mutable "
                            "default argument; default to None and build "
                            "the container in the body",
                        )
            elif isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx,
                    node,
                    "bare except: catches KeyboardInterrupt/SystemExit; "
                    "name the exception types this handler expects",
                )
