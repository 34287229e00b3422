"""The project rules: EQV001, MUT001, RED001, IRR001.

Each checks a property of the whole project model, which no per-module
rule can see:

* **EQV001** — every scalar fast-path module is registered against its
  vectorized ensemble twin; a scalar edit whose twin is untouched
  relative to the committed pairing baseline is exactly the hazard the
  bit-identity suites exist to catch, surfaced statically.
* **MUT001** — module-level mutable containers in the worker-reachable
  behavior closure are cross-process shared-state hazards for the PR-8
  shard path (each worker forks its own copy; an in-place mutation
  silently diverges between processes).
* **RED001** — reductions over unordered iterables in the FP-exact
  fast-path modules produce order-dependent floating-point results,
  breaking the bit-identity guarantee the fingerprints protect.
* **IRR001** — every behavior-irrelevant marker comment carries a
  ``reason=``; a reasonless one opts nothing out of the fingerprints.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Tuple

from repro.analysis.lint.baseline import Baseline, PairRecord
from repro.analysis.lint.closure import CLOSURE_EXCLUDES, CLOSURE_ROOTS
from repro.analysis.lint.context import ModuleContext
from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.project import ProjectModel
from repro.analysis.lint.registry import ProjectRule, RuleMeta, register
from repro.analysis.lint.rules.floating_point import FAST_PATH_MODULES

#: Scalar fast-path module <-> vectorized ensemble twin pairings.
TWIN_MODULES: Tuple[Tuple[str, str], ...] = (
    ("repro.sched.scheduler", "repro.ensemble.sched"),
    ("repro.power.table", "repro.ensemble.power_thermal"),
    ("repro.core.agent", "repro.ensemble.agents"),
    ("repro.core.manager", "repro.ensemble.managers"),
)


def pair_id(scalar: str, ensemble: str) -> str:
    """Stable baseline key of one scalar/ensemble pairing."""
    return f"{scalar}|{ensemble}"


def current_pairs(model: ProjectModel) -> Dict[str, PairRecord]:
    """Fingerprints of every registered pair present in the tree."""
    pairs: Dict[str, PairRecord] = {}
    for scalar, ensemble in TWIN_MODULES:
        scalar_info = model.modules.get(scalar)
        twin_info = model.modules.get(ensemble)
        if scalar_info is None or twin_info is None:
            continue
        pairs[pair_id(scalar, ensemble)] = PairRecord(
            scalar=scalar_info.fingerprint, ensemble=twin_info.fingerprint
        )
    return pairs


@register
class ScalarEnsembleTwins(ProjectRule):
    """EQV001: scalar fast-path edits must touch their ensemble twin."""

    meta = RuleMeta(
        code="EQV001",
        name="scalar edit without its ensemble twin",
        severity=Severity.ERROR,
        rationale=(
            "the vectorized ensemble engine is bit-faithful to the "
            "scalar fast path only while every behavior edit lands in "
            "both; a scalar-only change relative to the committed "
            "pairing baseline bypasses that guarantee until the runtime "
            "equivalence suites catch it"
        ),
    )

    def check(self, model: ProjectModel, baseline: Baseline) -> Iterator[Finding]:
        if not baseline.comparable:
            # Fingerprints recorded under a different interpreter (or no
            # baseline at all) are not diffable against this tree.
            return
        for scalar, ensemble in TWIN_MODULES:
            recorded = baseline.pairs.get(pair_id(scalar, ensemble))
            if recorded is None:
                continue
            scalar_info = model.modules.get(scalar)
            twin_info = model.modules.get(ensemble)
            if scalar_info is None or twin_info is None:
                continue
            if (
                scalar_info.fingerprint != recorded.scalar
                and twin_info.fingerprint == recorded.ensemble
            ):
                yield self.finding(
                    scalar_info.ctx,
                    scalar_info.ctx.tree,
                    f"behavior fingerprint of {scalar} changed but its "
                    f"ensemble twin {ensemble} is untouched; mirror the "
                    "edit (or verify equivalence) and refresh the pairing "
                    "baseline with `repro lint --fix-baseline`",
                )


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

    def check(self, model: ProjectModel, baseline: Baseline) -> Iterator[Finding]:
        members = model.reachable(CLOSURE_ROOTS, exclude_prefixes=CLOSURE_EXCLUDES)
        for name in members:
            info = model.modules[name]
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

    def check(self, model: ProjectModel, baseline: Baseline) -> Iterator[Finding]:
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

    def check(self, model: ProjectModel, baseline: Baseline) -> Iterator[Finding]:
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
