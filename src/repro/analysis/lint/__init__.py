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
  MUT001 (no module-level mutable state reachable from workers),
  RED001 (no reductions over unordered iterables in FP-exact modules),
  IRR001 (every behavior-irrelevant marker states its reason).

The same project model yields the **behavior-closure digest** (see
:mod:`repro.analysis.lint.closure`) that every result-cache job key
embeds, so a behavior-relevant edit cold-misses the cache while a
doc-only edit keeps it warm.

Suppress a finding inline with ``# repro: noqa[RULE] reason=...`` (the
reason is mandatory) or record it in the committed baseline with
``repro lint --fix-baseline``, which also records the closure digest.
Scalar/ensemble equivalence is checked at run time, by the differential
harness in ``tests/test_differential.py``.  See DESIGN §12 and §17.
"""

from repro.analysis.lint.baseline import (
    BASELINE_FILENAME,
    Baseline,
    BaselineError,
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
)
from repro.analysis.lint.context import ModuleContext, module_for_path
from repro.analysis.lint.engine import LintReport, lint_package, lint_source
from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.fingerprint import (
    FINGERPRINT_SCHEMA_VERSION,
    Marker,
    fingerprint_module,
    parse_markers,
    python_tag,
)
from repro.analysis.lint.memo import MEMO_FILENAME, FingerprintMemo
from repro.analysis.lint.project import ModuleInfo, ProjectModel
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
    "FingerprintMemo",
    "LintReport",
    "MALFORMED_SUPPRESSION_CODE",
    "MEMO_FILENAME",
    "Marker",
    "ModuleContext",
    "ModuleInfo",
    "ModuleRule",
    "ProjectModel",
    "ProjectRule",
    "REPORT_SCHEMA_VERSION",
    "Rule",
    "RuleMeta",
    "Severity",
    "Suppression",
    "all_rule_classes",
    "build_rules",
    "clear_closure_cache",
    "closure_digest",
    "closure_report",
    "compute_closure",
    "explain_job_key",
    "fingerprint_module",
    "lint_package",
    "lint_source",
    "load_baseline",
    "module_for_path",
    "parse_markers",
    "parse_suppressions",
    "python_tag",
    "register",
    "render_closure_table",
    "render_human",
    "render_json",
    "rule_descriptions",
    "save_baseline",
]
