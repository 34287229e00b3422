"""The project rules: MUT001, RED001, IRR001.

Each checks a property of the whole project model, which no per-module
rule can see:

* **MUT001** — module-level mutable containers in the worker-reachable
  behavior closure are cross-process shared-state hazards for the
  sharded path (each worker forks its own copy; an in-place mutation
  silently diverges between processes).
* **RED001** — reductions over unordered iterables in the FP-exact
  fast-path modules produce order-dependent floating-point results,
  breaking the scalar/ensemble bit-identity the differential harness
  checks.
* **IRR001** — every behavior-irrelevant marker comment carries a
  ``reason=``; a reasonless one opts nothing out of the fingerprints.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.closure import CLOSURE_EXCLUDES, CLOSURE_ROOTS
from repro.analysis.lint.context import ModuleContext
from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.project import ProjectModel
from repro.analysis.lint.registry import ProjectRule, RuleMeta, register
from repro.analysis.lint.rules.floating_point import FAST_PATH_MODULES


#: Constructor names whose module-level result is mutable shared state.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "deque", "Counter",
     "OrderedDict"}
)

_MUTABLE_QUALIFIED = frozenset(
    {
        "collections.defaultdict",
        "collections.deque",
        "collections.Counter",
        "collections.OrderedDict",
    }
)


def _mutable_value_kind(ctx: ModuleContext, node: ast.expr) -> str:
    """Why ``node`` builds a mutable container, or '' when it does not."""
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in _MUTABLE_CONSTRUCTORS:
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            qualified = ctx.qualified_name(node.func)
            if qualified in _MUTABLE_QUALIFIED:
                return qualified.split(".")[-1]
    return ""


@register
class NoWorkerSharedMutableState(ProjectRule):
    """MUT001: no module-level mutable state in the worker closure."""

    meta = RuleMeta(
        code="MUT001",
        name="module-level mutable state reachable from workers",
        severity=Severity.ERROR,
        rationale=(
            "engine worker processes each import their own copy of the "
            "behavior closure; a module-level dict/list/set mutated at "
            "runtime diverges silently between processes and between the "
            "scalar and sharded execution paths — use tuple/frozenset/"
            "MappingProxyType, or suppress with the reason the value is "
            "never mutated"
        ),
    )

    def check(self, model: ProjectModel) -> Iterator[Finding]:
        try:
            members = model.reachable(
                CLOSURE_ROOTS, exclude_prefixes=CLOSURE_EXCLUDES
            )
        except SyntaxError:
            # A closure member does not parse; its PARSE finding fails
            # the run and the membership is unknown.
            return
        for name in members:
            info = model.module(name)
            for stmt in info.ctx.tree.body:
                if isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                    value = stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    targets = [stmt.target]
                    value = stmt.value
                else:
                    continue
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if not names or all(
                    n.startswith("__") and n.endswith("__") for n in names
                ):
                    continue
                kind = _mutable_value_kind(info.ctx, value)
                if kind:
                    yield self.finding(
                        info.ctx,
                        stmt,
                        f"module-level mutable {kind} {', '.join(names)} "
                        "is reachable from engine worker processes; make "
                        "it immutable (tuple/frozenset/MappingProxyType) "
                        "or suppress with a reason",
                    )


_REDUCTIONS = frozenset({"sum", "min", "max"})

_DICT_VIEWS = frozenset({"keys", "values", "items"})


def _unordered_arg(node: ast.expr) -> str:
    """Why ``node`` iterates in unspecified order, or '' when ordered."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return f"{node.func.id}(...)"
        if isinstance(node.func, ast.Attribute) and node.func.attr in _DICT_VIEWS:
            return f"an unsorted .{node.func.attr}() view"
    return ""


@register
class OrderedReductionsOnly(ProjectRule):
    """RED001: FP-exact modules never reduce over unordered iterables."""

    meta = RuleMeta(
        code="RED001",
        name="order-sensitive reduction over an unordered iterable",
        severity=Severity.ERROR,
        rationale=(
            "floating-point reductions in the FP-exact fast-path modules "
            "are bit-compared against the scalar reference; folding a "
            "set or an unsorted dict view reduces in hash order, which "
            "is not a reproducible operand order — sort first"
        ),
    )

    def check(self, model: ProjectModel) -> Iterator[Finding]:
        for name in sorted(model.modules):
            if name not in FAST_PATH_MODULES:
                continue
            info = model.modules[name]
            for node in ast.walk(info.ctx.tree):
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                reducer = ""
                if isinstance(node.func, ast.Name) and node.func.id in _REDUCTIONS:
                    reducer = node.func.id
                else:
                    qualified = info.ctx.qualified_name(node.func)
                    if qualified in ("math.fsum", "numpy.sum"):
                        reducer = qualified
                if not reducer:
                    continue
                why = _unordered_arg(node.args[0])
                if why:
                    yield self.finding(
                        info.ctx,
                        node,
                        f"{reducer}() over {why} folds in hash order in an "
                        "FP-exact module; wrap the operand in sorted(...) "
                        "to pin the reduction order",
                    )


@register
class ReasonedMarkers(ProjectRule):
    """IRR001: every behavior-irrelevant marker states its reason."""

    meta = RuleMeta(
        code="IRR001",
        name="behavior-irrelevant marker without a reason",
        severity=Severity.ERROR,
        rationale=(
            "every fingerprint opt-out must say why it cannot change "
            "behavior; a reasonless marker opts nothing out, so the "
            "definition stays in the closure digest"
        ),
    )

    def check(self, model: ProjectModel) -> Iterator[Finding]:
        for name in sorted(model.modules):
            info = model.modules[name]
            for line in info.malformed_markers:
                yield Finding(
                    rule=self.meta.code,
                    severity=self.meta.severity,
                    path=info.path,
                    module=info.name,
                    line=line,
                    col=0,
                    message=(
                        "behavior-irrelevant marker is missing its mandatory "
                        "reason= clause; the definition stays fingerprinted"
                    ),
                    source_line=info.ctx.source_line(line),
                )
