"""The rule registry: every ``repro lint`` rule declares itself here.

A rule is a class with a :class:`RuleMeta` and a ``check`` method.  It
comes in one of two kinds:

* a :class:`ModuleRule` checks one
  :class:`~repro.analysis.lint.context.ModuleContext` at a time
  (DET/OBS/FP/CFG/API — anything visible in a single file);
* a :class:`ProjectRule` checks the whole
  :class:`~repro.analysis.lint.project.ProjectModel` against the
  committed :class:`~repro.analysis.lint.baseline.Baseline`
  (EQV/MUT/RED/IRR — pairing drift, worker reachability, markers).

Registration is a decorator, so adding a rule is: write the class,
decorate it, import the module from :mod:`repro.analysis.lint.rules`.
"""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Type

from repro.analysis.lint.baseline import Baseline
from repro.analysis.lint.context import ModuleContext
from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.project import ProjectModel


@dataclass(frozen=True)
class RuleMeta:
    """Identity and documentation of one rule."""

    #: Short code used in findings, ``--rule`` filters and noqa tags.
    code: str
    #: One-line human name.
    name: str
    severity: Severity
    #: The invariant the rule guards (shown by ``repro lint --list-rules``).
    rationale: str


class Rule(abc.ABC):
    """What both rule kinds share: metadata and finding construction."""

    meta: RuleMeta

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        """Shorthand: a finding of this rule at ``node``.

        Passing ``ctx.tree`` anchors the finding at the module's first
        line.
        """
        return ctx.finding(self.meta.code, self.meta.severity, node, message)


class ModuleRule(Rule):
    """A rule over one module at a time."""

    @abc.abstractmethod
    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield every violation found in one module."""


class ProjectRule(Rule):
    """A rule over the whole project model and the committed baseline."""

    @abc.abstractmethod
    def check(self, model: ProjectModel, baseline: Baseline) -> Iterator[Finding]:
        """Yield every violation found in the project."""


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    code = cls.meta.code
    if code in _REGISTRY and _REGISTRY[code] is not cls:
        raise ValueError(f"duplicate rule code {code!r}")
    _REGISTRY[code] = cls
    return cls


def all_rule_classes() -> Dict[str, Type[Rule]]:
    """Every registered rule class, keyed by code (import-populated)."""
    # Importing the rules package is what populates the registry; done
    # lazily so the registry module itself has no import cycle.
    import repro.analysis.lint.rules  # noqa: F401  (side-effect import)

    return dict(sorted(_REGISTRY.items()))


def build_rules(codes: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the selected rules (all of them when ``codes`` is None).

    Raises
    ------
    KeyError
        If a requested code is not registered.
    """
    available = all_rule_classes()
    if codes is None:
        return [available[code]() for code in sorted(available)]
    selected: List[Rule] = []
    for code in codes:
        if code not in available:
            known = ", ".join(available)
            raise KeyError(f"unknown rule {code!r} (known: {known})")
        selected.append(available[code]())
    return selected


def rule_descriptions(rules: Iterable[Rule]) -> List[Dict[str, str]]:
    """JSON-ready ``{code, name, severity, rationale}`` rows."""
    return [
        {
            "code": rule.meta.code,
            "name": rule.meta.name,
            "severity": rule.meta.severity.value,
            "rationale": rule.meta.rationale,
        }
        for rule in rules
    ]
