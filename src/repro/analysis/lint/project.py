"""The AST-driven project model: modules, symbols, import/call graph.

A :class:`ProjectModel` parses every source file of a package tree into
a :class:`~repro.analysis.lint.context.ModuleContext`, computes
normalized behavior fingerprints (see
:mod:`repro.analysis.lint.fingerprint`) per module and per top-level
definition, and resolves a module-level dependency graph:

* every ``import``/``from ... import`` — including lazy imports inside
  function bodies — adds an edge to the imported module *and* to each
  ancestor package (importing ``repro.x.y`` executes ``repro/__init__``
  and ``repro/x/__init__`` too);
* every dotted call or attribute access that resolves (through the
  context's import aliases) to a name under the package adds an edge to
  the longest matching module prefix.

The graph is what :mod:`repro.analysis.lint.closure` walks to derive
the behavior-closure digest, and what the project rules use to decide
which modules are reachable from the experiment engine's worker
processes.  ``repro lint`` builds the model once per run and hands each
module's context to the per-module rules as well.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.lint.context import ModuleContext
from repro.analysis.lint.fingerprint import (
    fingerprint_module,
    fingerprint_node,
    marker_for,
    parse_markers,
    strip_docstrings,
)


@dataclass(frozen=True)
class SymbolInfo:
    """One fingerprinted top-level definition."""

    name: str
    kind: str
    line: int
    fingerprint: str


@dataclass
class ModuleInfo:
    """One parsed, fingerprinted module of the project."""

    name: str
    path: str
    ctx: ModuleContext
    #: Resolved in-package dependency edges (sorted module names).
    imports: Tuple[str, ...] = ()
    #: Normalized whole-module fingerprint (opt-outs excluded).
    fingerprint: str = ""
    #: Fingerprints of every top-level ``def``/``class``, by name.
    symbols: Dict[str, SymbolInfo] = field(default_factory=dict)
    #: Symbol name -> reason for every valid behavior-irrelevant marker.
    irrelevant: Dict[str, str] = field(default_factory=dict)
    #: Line numbers of reasonless behavior-irrelevant markers.
    malformed_markers: Tuple[int, ...] = ()


def _package_root() -> Path:
    """Source directory of the installed ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent


def _iter_sources(root: Path) -> List[Path]:
    """Every ``*.py`` under ``root``, sorted for determinism."""
    return sorted(
        path for path in root.rglob("*.py") if "__pycache__" not in path.parts
    )


def _ancestors(module: str, package: str) -> List[str]:
    """``module`` plus every ancestor package down to ``package``."""
    parts = module.split(".")
    names: List[str] = []
    for depth in range(1, len(parts) + 1):
        candidate = ".".join(parts[:depth])
        if candidate == package or candidate.startswith(package + "."):
            names.append(candidate)
    return names


class ProjectModel:
    """Parsed project: fingerprinted modules plus their dependency graph."""

    def __init__(
        self,
        root: Path,
        package: str,
        modules: Dict[str, ModuleInfo],
        unparsed: Tuple[Tuple[Path, SyntaxError], ...] = (),
    ):
        self.root = root
        self.package = package
        self.modules = modules
        #: Source files that failed to parse, with their errors.
        self.unparsed = unparsed

    @classmethod
    def build(cls, root: Optional[Path] = None) -> "ProjectModel":
        """Parse the package tree at ``root`` (default: installed repro).

        A file that does not parse is left out of the model and recorded
        in :attr:`unparsed`, so one broken file never hides the others.
        """
        resolved = Path(root).resolve() if root is not None else _package_root()
        package = resolved.name
        modules: Dict[str, ModuleInfo] = {}
        unparsed: List[Tuple[Path, SyntaxError]] = []
        for path in _iter_sources(resolved):
            try:
                ctx = ModuleContext.from_file(path)
            except SyntaxError as exc:
                unparsed.append((path, exc))
                continue
            modules[ctx.module] = _build_module(ctx)
        model = cls(resolved, package, modules, tuple(unparsed))
        for name in sorted(modules):
            info = modules[name]
            info.imports = tuple(sorted(model._resolve_edges(info)))
        return model

    # ------------------------------------------------------------------
    # Graph resolution
    # ------------------------------------------------------------------

    def _known(self, module: str) -> bool:
        return module in self.modules

    def _edge_targets(self, module: str) -> List[str]:
        """Known modules an import of ``module`` executes (with ancestors)."""
        return [
            name
            for name in _ancestors(module, self.package)
            if self._known(name)
        ]

    def _resolve_edges(self, info: ModuleInfo) -> Set[str]:
        edges: Set[str] = set()
        package_parts = info.name.split(".")
        for node in ast.walk(info.ctx.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    edges.update(self._edge_targets(item.name))
            elif isinstance(node, ast.ImportFrom):
                base = self._import_from_base(node, package_parts)
                if base is None:
                    continue
                edges.update(self._edge_targets(base))
                for item in node.names:
                    if item.name != "*":
                        edges.update(self._edge_targets(f"{base}.{item.name}"))
            elif isinstance(node, (ast.Call, ast.Attribute)):
                target = node.func if isinstance(node, ast.Call) else node
                qualified = info.ctx.qualified_name(target)
                if qualified is not None:
                    edges.add(self._longest_module_prefix(qualified))
        edges.discard(info.name)
        edges.discard("")
        return edges

    def _import_from_base(
        self, node: ast.ImportFrom, package_parts: List[str]
    ) -> Optional[str]:
        """The absolute module a ``from ... import`` resolves against."""
        if node.level == 0:
            return node.module
        # Relative import: strip ``level`` components off the importing
        # module's package path (one level = the current package).
        base_parts = package_parts[: len(package_parts) - node.level]
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts) if base_parts else None

    def _longest_module_prefix(self, qualified: str) -> str:
        """The longest known module that prefixes ``qualified`` ('' if none)."""
        parts = qualified.split(".")
        for depth in range(len(parts), 0, -1):
            candidate = ".".join(parts[:depth])
            if self._known(candidate):
                return candidate
        return ""

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------

    def reachable(
        self,
        roots: Iterable[str],
        exclude_prefixes: Tuple[str, ...] = (),
    ) -> List[str]:
        """Modules transitively reachable from ``roots``, sorted.

        Roots that are not present in the tree are ignored (a fixture
        tree need not mirror the full package).  ``exclude_prefixes``
        prunes both membership and traversal — an excluded module's own
        imports are never followed.
        """

        def excluded(name: str) -> bool:
            return any(
                name == prefix or name.startswith(prefix + ".")
                for prefix in exclude_prefixes
            )

        seen: Set[str] = set()
        frontier: List[str] = sorted(
            name for name in roots if self._known(name) and not excluded(name)
        )
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            for edge in self.modules[name].imports:
                if edge not in seen and not excluded(edge):
                    frontier.append(edge)
        return sorted(seen)


def _build_module(ctx: ModuleContext) -> ModuleInfo:
    # The model's trees are normalized in place: docstrings are removed
    # once here so every fingerprint below can hash without deep-copying.
    # Rules only inspect executable statements, so they are unaffected;
    # anything needing original source has ``ctx.lines``.
    strip_docstrings(ctx.tree)
    markers = parse_markers(ctx.lines)
    symbols: Dict[str, SymbolInfo] = {}
    irrelevant: Dict[str, str] = {}
    for stmt in ctx.tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        kind = "class" if isinstance(stmt, ast.ClassDef) else "function"
        symbols[stmt.name] = SymbolInfo(
            name=stmt.name,
            kind=kind,
            line=stmt.lineno,
            fingerprint=fingerprint_node(stmt),
        )
        marker = marker_for(stmt, markers)
        if marker is not None:
            irrelevant[stmt.name] = marker.reason
    malformed = tuple(
        line for line in sorted(markers) if not markers[line].valid
    )
    return ModuleInfo(
        name=ctx.module,
        path=ctx.path,
        ctx=ctx,
        fingerprint=fingerprint_module(ctx.tree, markers),
        symbols=symbols,
        irrelevant=irrelevant,
        malformed_markers=malformed,
    )

