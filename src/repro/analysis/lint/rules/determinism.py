"""DET001/DET002: the bit-identical-run invariants.

The reproduction's headline guarantee is that a fault-free run is
bit-identical across processes, machines and sweep parallelism.  Two
statically checkable preconditions back it:

* **DET001** — the decision-loop packages (``core``, ``soc``, ``sched``,
  ``reliability``, ``checkpoint``) draw no entropy from outside the
  seeded RNG streams: no wall clocks, no stdlib ``random``, no unseeded
  numpy generators, no ``os.urandom``, no environment reads.
* **DET002** — the content-addressed experiment engine and the run
  manifest never iterate sets or unordered dict views on paths that
  feed hashing, caching or result folding; every such loop goes through
  ``sorted(...)``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from repro.analysis.lint.context import ModuleContext
from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.registry import ModuleRule, RuleMeta, register

#: Packages whose modules must be entropy-free (dotted-prefix match).
DETERMINISTIC_PACKAGES: Tuple[str, ...] = (
    "repro.core",
    "repro.soc",
    "repro.sched",
    "repro.reliability",
    "repro.checkpoint",
    "repro.ensemble",
    # The planner derives job orderings that feed content addressing,
    # and the lint package derives the closure digest those addresses
    # embed — both must be as entropy-free as the decision loop itself.
    "repro.experiments.engine.planner",
    "repro.analysis.lint",
)

#: Exact canonical names that are nondeterminism sources.
_BANNED_NAMES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "os.urandom",
        "os.getenv",
        "os.getenvb",
        "uuid.uuid1",
        "uuid.uuid4",
        "numpy.random.random",
        "numpy.random.random_sample",
        "numpy.random.rand",
        "numpy.random.randn",
        "numpy.random.randint",
        "numpy.random.seed",
        "numpy.random.choice",
        "numpy.random.shuffle",
        "numpy.random.permutation",
        "numpy.random.normal",
        "numpy.random.uniform",
        "numpy.random.standard_normal",
    }
)

#: Canonical prefixes that are nondeterminism sources in their entirety.
_BANNED_PREFIXES: Tuple[str, ...] = ("random.", "secrets.", "os.environ")

#: Module imports that are banned outright in deterministic packages.
_BANNED_IMPORTS = frozenset({"random", "secrets"})


def _in_packages(module: str, packages: Tuple[str, ...]) -> bool:
    return any(
        module == package or module.startswith(package + ".")
        for package in packages
    )


def _is_banned(qualified: str) -> bool:
    if qualified in _BANNED_NAMES:
        return True
    return any(qualified.startswith(prefix) for prefix in _BANNED_PREFIXES)


@register
class NoEntropySources(ModuleRule):
    """DET001: decision-loop code draws randomness only from seeded RNGs."""

    meta = RuleMeta(
        code="DET001",
        name="no nondeterminism sources in the decision loop",
        severity=Severity.ERROR,
        rationale=(
            "core/, soc/, sched/ and reliability/ must be bit-identical "
            "given a seed: no wall clocks, stdlib random, unseeded numpy "
            "generators, os.urandom or environment reads"
        ),
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not _in_packages(ctx.module, DETERMINISTIC_PACKAGES):
            return
        # Attribute chains already reported as part of a call, so the
        # walk does not double-flag `time.time()` at both the Call and
        # the Attribute node (ast.walk visits parents before children).
        handled: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name.split(".")[0] in _BANNED_IMPORTS:
                        yield self.finding(
                            ctx,
                            node,
                            f"import of entropy module {item.name!r} in a "
                            "deterministic package",
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                root = (node.module or "").split(".")[0]
                if root in _BANNED_IMPORTS:
                    yield self.finding(
                        ctx,
                        node,
                        f"import from entropy module {node.module!r} in a "
                        "deterministic package",
                    )
            elif isinstance(node, ast.Call):
                qualified = ctx.qualified_name(node.func)
                flagged = False
                if qualified == "numpy.random.default_rng" and not (
                    node.args or node.keywords
                ):
                    flagged = True
                    yield self.finding(
                        ctx,
                        node,
                        "numpy.random.default_rng() without a seed is "
                        "entropy-seeded; pass an explicit seed",
                    )
                elif qualified is not None and _is_banned(qualified):
                    flagged = True
                    yield self.finding(
                        ctx,
                        node,
                        f"call to nondeterminism source {qualified!r}",
                    )
                if flagged:
                    chain = node.func
                    while isinstance(chain, ast.Attribute):
                        handled.add(id(chain))
                        chain = chain.value
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                if id(node) in handled:
                    chain = node.value
                    while isinstance(chain, ast.Attribute):
                        handled.add(id(chain))
                        chain = chain.value
                    continue
                qualified = ctx.qualified_name(node)
                if qualified is not None and _is_banned(qualified):
                    yield self.finding(
                        ctx,
                        node,
                        f"use of nondeterminism source {qualified!r}",
                    )
                    chain = node.value
                    while isinstance(chain, ast.Attribute):
                        handled.add(id(chain))
                        chain = chain.value


#: Modules whose loops feed hashing/caching/result folding.
ORDER_SENSITIVE_MODULES: Tuple[str, ...] = (
    "repro.experiments.engine",
    "repro.obs.manifest",
    # Fingerprints and the closure digest are content addresses: any
    # unordered fold here would make the digest itself flaky.
    "repro.analysis.lint",
)

_DICT_VIEWS = frozenset({"keys", "values", "items"})


def _unordered_iterable(node: ast.expr) -> str:
    """Why ``node`` is an unordered iterable, or '' when it is fine."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "iteration over a set"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in (
            "set",
            "frozenset",
        ):
            return f"iteration over {node.func.id}(...)"
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _DICT_VIEWS
        ):
            return f"iteration over unsorted .{node.func.attr}()"
    return ""


@register
class OrderedFoldsOnly(ModuleRule):
    """DET002: hashing/caching/result-folding paths iterate sorted."""

    meta = RuleMeta(
        code="DET002",
        name="no unordered iteration on hashing/caching paths",
        severity=Severity.ERROR,
        rationale=(
            "the experiment engine's content addresses and the run "
            "manifest's digests must not depend on set order or dict "
            "insertion history; iterate sorted(...) instead"
        ),
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not _in_packages(ctx.module, ORDER_SENSITIVE_MODULES):
            return
        for node in ast.walk(ctx.tree):
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for candidate in iters:
                why = _unordered_iterable(candidate)
                if why:
                    yield self.finding(
                        ctx,
                        candidate,
                        f"{why} on an order-sensitive path; wrap the "
                        "iterable in sorted(...)",
                    )
