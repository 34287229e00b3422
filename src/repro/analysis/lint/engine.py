"""The lint engine: one project model, both rule kinds, one binning pass.

:func:`lint_package` parses a package tree into a
:class:`~repro.analysis.lint.project.ProjectModel` once, runs every
selected module rule over each module's context and every selected
project rule over the model, then sorts the raw findings into three
bins:

* **active** — unsuppressed, non-baselined; these fail the build;
* **suppressed** — carried a valid reasoned noqa comment;
* **baselined** — fingerprint present in the committed baseline.

Two engine codes sit outside the registry: a ``repro: noqa`` comment
without the mandatory ``reason=`` clause suppresses nothing and is
itself an active ``NOQA001`` finding, and a file that does not parse is
an active ``PARSE`` finding.  The report also carries the
behavior-closure digest and its drift against the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from repro.analysis.lint.baseline import Baseline
from repro.analysis.lint.closure import ClosureReport, compute_closure
from repro.analysis.lint.context import ModuleContext
from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.project import ProjectModel
from repro.analysis.lint.registry import ModuleRule, ProjectRule, Rule, build_rules
from repro.analysis.lint.suppress import (
    MALFORMED_SUPPRESSION_CODE,
    Suppression,
    parse_suppressions,
    suppresses,
)

#: Engine-level code for a source file that does not parse.
PARSE_ERROR_CODE = "PARSE"


@dataclass
class LintReport:
    """The outcome of one lint run."""

    rules: List[Rule] = field(default_factory=list)
    files: int = 0
    active: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    #: The behavior closure (None for single-snippet fixture runs and
    #: when a closure member does not parse).
    closure: Optional[ClosureReport] = None
    #: Digest recorded in the baseline ('' without one).
    baseline_digest: str = ""
    #: Whether the baseline's digest compares on this interpreter.
    baseline_comparable: bool = False

    @property
    def drift(self) -> bool:
        """Closure digest drifted from a comparable recorded baseline."""
        return (
            self.baseline_comparable
            and self.closure is not None
            and bool(self.baseline_digest)
            and self.closure.digest != self.baseline_digest
        )

    @property
    def clean(self) -> bool:
        """True when no finding fails the build."""
        return not self.active

    def exit_code(self, check_drift: bool = False) -> int:
        """Process exit code: 0 clean (and drift-free when checked), else 1."""
        if not self.clean or (check_drift and self.drift):
            return 1
        return 0

    def sort(self) -> None:
        """Deterministic ordering: path, line, column, rule."""
        for bucket in (self.active, self.suppressed, self.baselined):
            bucket.sort(key=lambda f: (f.path, f.line, f.col, f.rule))


def _malformed_suppressions(
    ctx: ModuleContext, suppressions: Dict[int, Suppression]
) -> Iterator[Finding]:
    """NOQA001 findings for one module's reasonless noqa comments."""
    for line, suppression in sorted(suppressions.items()):
        if not suppression.valid:
            yield Finding(
                rule=MALFORMED_SUPPRESSION_CODE,
                severity=Severity.ERROR,
                path=ctx.path,
                module=ctx.module,
                line=line,
                col=0,
                message=(
                    "suppression is missing its mandatory reason= clause "
                    f"(codes: {', '.join(suppression.codes)})"
                ),
                source_line=ctx.source_line(line),
            )


def _parse_error(module: str, path: Path, exc: SyntaxError) -> Finding:
    return Finding(
        rule=PARSE_ERROR_CODE,
        severity=Severity.ERROR,
        path=str(path),
        module=module,
        line=exc.lineno or 1,
        col=exc.offset or 0,
        message=f"file does not parse: {exc.msg}",
        source_line="",
    )


def _check(
    report: LintReport,
    contexts: Sequence[ModuleContext],
    model: Optional[ProjectModel],
    baseline: Baseline,
) -> None:
    """Run the report's rules and bin every raw finding exactly once."""
    suppressions = {ctx.module: parse_suppressions(ctx.lines) for ctx in contexts}
    raw: List[Finding] = []
    for ctx in contexts:
        for rule in report.rules:
            if isinstance(rule, ModuleRule):
                raw.extend(rule.check(ctx))
        raw.extend(_malformed_suppressions(ctx, suppressions[ctx.module]))
    if model is not None:
        for rule in report.rules:
            if isinstance(rule, ProjectRule):
                raw.extend(rule.check(model))
    for finding in raw:
        suppression = suppressions.get(finding.module, {}).get(finding.line)
        if suppression is not None and suppresses(suppression, finding.rule):
            report.suppressed.append(finding)
        elif finding.fingerprint() in baseline.findings:
            report.baselined.append(finding)
        else:
            report.active.append(finding)
    report.sort()


def lint_source(
    source: str,
    *,
    module: str,
    path: str = "<fixture>",
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
) -> LintReport:
    """Run the module rules over an in-memory snippet as module ``module``.

    The fixture entry point the module-rule unit tests drive: the
    snippet is attributed to an arbitrary dotted module name, so
    scope-sensitive rules (DET001's package list, CFG001's
    ``repro.config`` pin) can be exercised without touching the real
    tree.  Project rules need a whole tree and are skipped.
    """
    selected: List[Rule] = [
        rule for rule in build_rules(rules) if isinstance(rule, ModuleRule)
    ]
    report = LintReport(rules=selected, files=1)
    ctx = ModuleContext.from_source(source, path=path, module=module)
    _check(report, [ctx], None, baseline if baseline is not None else Baseline())
    return report


def lint_package(
    root: Optional[Path] = None,
    *,
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
) -> LintReport:
    """Lint a package tree (default: the installed ``repro`` package).

    Builds the project model once, parses every file of the tree and
    shares the model between the module rules, the project rules and the
    closure digest.  The report carries no closure
    when a closure member does not parse.

    Raises
    ------
    KeyError
        If ``rules`` names an unregistered code.
    """
    resolved = baseline if baseline is not None else Baseline()
    report = LintReport(rules=build_rules(rules))
    model = ProjectModel.build(root)
    report.files = len(model.sources)
    try:
        report.closure = compute_closure(model)
    except SyntaxError:
        # A closure member does not parse: its PARSE finding below fails
        # the run, and no digest is claimed for a partial closure.
        report.closure = None
    report.baseline_digest = resolved.closure_digest
    report.baseline_comparable = resolved.comparable
    unparsed = model.unparsed
    report.active.extend(
        _parse_error(name, model.sources[name], unparsed[name])
        for name in sorted(unparsed)
    )
    modules = model.modules
    contexts = [modules[name].ctx for name in sorted(modules)]
    _check(report, contexts, model, resolved)
    return report
