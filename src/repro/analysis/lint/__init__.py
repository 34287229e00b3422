"""``repro lint``: the repo's static analysis and its behavior-closure digest.

One engine runs two kinds of rule over one parsed project model (see
:mod:`repro.analysis.lint.registry`):

* **module rules**, one file at a time —
  DET001 (no nondeterminism sources in the decision-loop packages),
  DET002 (no unordered iteration on hashing/caching paths),
  OBS001 (the obs layer is observation-only),
  FP001 (exact FP op order on the tick-loop fast path),
  CFG001 (every config dataclass field has a validation branch),
  API001 (no mutable default arguments or bare excepts);
* **project rules**, over the import/call graph —
  EQV001 (a scalar fast-path edit must touch its ensemble twin),
  MUT001 (no module-level mutable state reachable from workers),
  RED001 (no reductions over unordered iterables in FP-exact modules),
  IRR001 (every behavior-irrelevant marker states its reason).

The same project model yields the **behavior-closure digest** (see
:mod:`repro.analysis.lint.closure`) that every result-cache job key
embeds, so a behavior-relevant edit cold-misses the cache while a
doc-only edit keeps it warm.

Suppress a finding inline with ``# repro: noqa[RULE] reason=...`` (the
reason is mandatory) or record it in the committed baseline with
``repro lint --fix-baseline``, which also records the closure digest
and the scalar/ensemble pairing fingerprints.  See DESIGN §12 and §17.
"""

from repro.analysis.lint.baseline import (
    BASELINE_FILENAME,
    Baseline,
    BaselineError,
    PairRecord,
    load_baseline,
    save_baseline,
)
from repro.analysis.lint.closure import (
    CLOSURE_EXCLUDES,
    CLOSURE_ROOTS,
    ClosureReport,
    clear_closure_cache,
    closure_digest,
    closure_report,
    compute_closure,
    python_tag,
)
from repro.analysis.lint.context import ModuleContext, module_for_path
from repro.analysis.lint.engine import LintReport, lint_package, lint_source
from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.fingerprint import (
    FINGERPRINT_SCHEMA_VERSION,
    Marker,
    fingerprint_module,
    fingerprint_node,
    normalized_dump,
    parse_markers,
    strip_docstrings,
)
from repro.analysis.lint.project import ModuleInfo, ProjectModel, SymbolInfo
from repro.analysis.lint.registry import (
    ModuleRule,
    ProjectRule,
    Rule,
    RuleMeta,
    all_rule_classes,
    build_rules,
    register,
    rule_descriptions,
)
from repro.analysis.lint.report import (
    REPORT_SCHEMA_VERSION,
    explain_job_key,
    render_closure_table,
    render_human,
    render_json,
)
from repro.analysis.lint.rules.graph import TWIN_MODULES, current_pairs, pair_id
from repro.analysis.lint.suppress import (
    MALFORMED_SUPPRESSION_CODE,
    Suppression,
    parse_suppressions,
)

__all__ = [
    "BASELINE_FILENAME",
    "Baseline",
    "BaselineError",
    "CLOSURE_EXCLUDES",
    "CLOSURE_ROOTS",
    "ClosureReport",
    "FINGERPRINT_SCHEMA_VERSION",
    "Finding",
    "LintReport",
    "MALFORMED_SUPPRESSION_CODE",
    "Marker",
    "ModuleContext",
    "ModuleInfo",
    "ModuleRule",
    "PairRecord",
    "ProjectModel",
    "ProjectRule",
    "REPORT_SCHEMA_VERSION",
    "Rule",
    "RuleMeta",
    "Severity",
    "Suppression",
    "SymbolInfo",
    "TWIN_MODULES",
    "all_rule_classes",
    "build_rules",
    "clear_closure_cache",
    "closure_digest",
    "closure_report",
    "compute_closure",
    "current_pairs",
    "explain_job_key",
    "fingerprint_module",
    "fingerprint_node",
    "lint_package",
    "lint_source",
    "load_baseline",
    "module_for_path",
    "normalized_dump",
    "pair_id",
    "parse_markers",
    "parse_suppressions",
    "python_tag",
    "register",
    "render_closure_table",
    "render_human",
    "render_json",
    "rule_descriptions",
    "save_baseline",
    "strip_docstrings",
]
