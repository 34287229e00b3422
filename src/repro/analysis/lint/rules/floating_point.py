"""FP001: exact FP operation order on the tick-loop fast path.

The PR-3 fast path is bit-identical to the seed implementation *because*
every float reduction preserves the reference's exact left-to-right
operation order (the scheduler even starts its accumulator as int 0 to
mirror ``sum()`` bit for bit).  The two easiest ways to silently break
that are swapping a reduction for ``math.fsum`` (compensated — a
different rounding) or "vectorising" a ``sum()`` over a generator into
``np.sum`` (pairwise — a different association).  The rule flags every
reassociation-prone reduction in the fast-path modules so each one is
either rewritten with explicit order or carries a reasoned noqa.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.analysis.lint.context import ModuleContext
from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.registry import ModuleRule, RuleMeta, register

#: The PR-3 fast-path modules where exact FP op order is load-bearing.
FAST_PATH_MODULES: Tuple[str, ...] = (
    "repro.sched.scheduler",
    "repro.sched.governors",
    "repro.soc.chip",
    "repro.soc.simulator",
    "repro.thermal.rc_model",
    "repro.thermal.profile",
    "repro.power.table",
    "repro.power.energy",
    "repro.workloads.application",
    "repro.ensemble.sched",
    "repro.ensemble.governors",
    "repro.ensemble.workloads",
    "repro.ensemble.power_thermal",
    "repro.ensemble.engine",
    "repro.ensemble.managers",
    "repro.ensemble.shard",
)


@register
class ExactFloatReductions(ModuleRule):
    """FP001: no reassociation-prone reductions on the fast path."""

    meta = RuleMeta(
        code="FP001",
        name="exact FP op order on the fast path",
        severity=Severity.WARNING,
        rationale=(
            "fast-path results are bit-compared against the seed "
            "implementation; sum() over a generator invites a later swap "
            "to a reassociating reduction, and math.fsum rounds "
            "differently from a left-to-right sum"
        ),
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module not in FAST_PATH_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "sum"
                and node.args
                and isinstance(node.args[0], ast.GeneratorExp)
            ):
                yield self.finding(
                    ctx,
                    node,
                    "sum() over a generator on the fast path: materialise "
                    "the operand order explicitly (or noqa with the reason "
                    "the reduction is order-insensitive)",
                )
                continue
            qualified = ctx.qualified_name(node.func)
            if qualified == "math.fsum":
                yield self.finding(
                    ctx,
                    node,
                    "math.fsum is a compensated sum and does not reproduce "
                    "the seed's left-to-right rounding; use a plain ordered "
                    "reduction on the fast path",
                )
