"""The ruleset: six module rules and four project rules.

Importing this package registers every rule with
:mod:`repro.analysis.lint.registry`.  To add a rule: write a
:class:`~repro.analysis.lint.registry.ModuleRule` or
:class:`~repro.analysis.lint.registry.ProjectRule` subclass in one of
these modules (or a new one), decorate it with ``@register``, and
import the module here.
"""

from repro.analysis.lint.rules import (  # noqa: F401  (registration imports)
    api_hygiene,
    config_coverage,
    determinism,
    floating_point,
    graph,
    observation,
)
