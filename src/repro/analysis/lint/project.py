"""The AST-driven project model: modules, fingerprints, import/call graph.

:meth:`ProjectModel.build` only *lists* a package tree: every source
file is named from its path relative to the tree root
(``<root>/soc/chip.py`` becomes ``<root.name>.soc.chip``), and that
listing alone answers whether a module exists.  A module is parsed the
first time something asks for it (:meth:`ProjectModel.module`): one
``ast.walk`` indexes its imports, dotted references and docstring owners
(:class:`~repro.analysis.lint.context.TreeIndex`), the docstrings are
stripped in place and the dependency edges are resolved from that index.
Following edges from a set of roots (:meth:`ProjectModel.reachable`)
therefore parses only the modules it reaches; the closure digest never
touches the rest of the tree, while ``repro lint``, which visits every
module (:attr:`ProjectModel.modules`), parses them all.

Fingerprints (see :mod:`repro.analysis.lint.fingerprint`) are computed
on first read and cached: the whole-module fingerprint the digest
hashes, and the marker data IRR001 reads.

The dependency graph:

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
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.lint.context import ModuleContext
from repro.analysis.lint.fingerprint import (
    Marker,
    fingerprint_module,
    parse_markers,
    strip_docstring,
)


@dataclass
class ModuleInfo:
    """One parsed module of the project.

    The tree in :attr:`ctx` is normalized in place (docstrings removed)
    so the fingerprint below can hash without deep-copying.  Rules only
    inspect executable statements, so they are unaffected; anything
    needing original source has ``ctx.lines``.  The fingerprint and the
    markers are computed on first read and cached.
    """

    name: str
    path: str
    ctx: ModuleContext
    #: Resolved in-package dependency edges (sorted module names).
    imports: Tuple[str, ...] = ()

    @cached_property
    def markers(self) -> Dict[int, Marker]:
        """Behavior-irrelevant markers of the file, keyed by line."""
        return parse_markers(self.ctx.lines)

    @cached_property
    def fingerprint(self) -> str:
        """Normalized whole-module fingerprint (opt-outs excluded)."""
        return fingerprint_module(self.ctx.tree, self.markers)

    @cached_property
    def malformed_markers(self) -> Tuple[int, ...]:
        """Line numbers of reasonless behavior-irrelevant markers."""
        return tuple(
            line for line in sorted(self.markers) if not self.markers[line].valid
        )


def package_root() -> Path:
    """Source directory of the installed ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent


def _list_sources(root: Path) -> Dict[str, Path]:
    """Module name -> file for every ``*.py`` under ``root``, sorted.

    Names come from the path relative to ``root``, prefixed with the
    root directory's own name, so two same-named files in different
    subpackages never collide.
    """
    sources: Dict[str, Path] = {}
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        parts = [root.name, *path.relative_to(root).with_suffix("").parts]
        if parts[-1] == "__init__":
            parts.pop()
        sources[".".join(parts)] = path
    return sources


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
    """A listed package tree whose modules are parsed on first request."""

    def __init__(self, root: Path, package: str, sources: Dict[str, Path]):
        self.root = root
        self.package = package
        #: Every listed module, parsed or not: dotted name -> source file.
        self.sources = sources
        self._parsed: Dict[str, ModuleInfo] = {}
        self._errors: Dict[str, SyntaxError] = {}

    @classmethod
    def build(cls, root: Optional[Path] = None) -> "ProjectModel":
        """List the package tree at ``root`` (default: installed repro).

        Nothing is parsed yet; see :meth:`module`.
        """
        resolved = Path(root).resolve() if root is not None else package_root()
        return cls(resolved, resolved.name, _list_sources(resolved))

    def module(self, name: str) -> ModuleInfo:
        """The listed module ``name``, parsed and resolved on first request.

        Raises
        ------
        KeyError
            If no file of the tree is named ``name``.
        SyntaxError
            If the module's file does not parse (raised again on every
            later request).
        """
        info = self._parsed.get(name)
        if info is not None:
            return info
        error = self._errors.get(name)
        if error is not None:
            raise error
        try:
            ctx = ModuleContext.from_file(self.sources[name], module=name)
        except SyntaxError as exc:
            self._errors[name] = exc
            raise
        for owner in ctx.index.docstring_owners:
            strip_docstring(owner)
        info = ModuleInfo(
            name=name,
            path=ctx.path,
            ctx=ctx,
            imports=tuple(sorted(self._resolve_edges(ctx))),
        )
        self._parsed[name] = info
        return info

    def _parse_all(self) -> None:
        for name in self.sources:
            with suppress(SyntaxError):
                self.module(name)

    @cached_property
    def modules(self) -> Dict[str, ModuleInfo]:
        """Every module that parses, by name (parses the whole tree).

        A file that does not parse is left out and listed in
        :attr:`unparsed`, so one broken file never hides the others.
        """
        self._parse_all()
        return dict(self._parsed)

    @cached_property
    def unparsed(self) -> Dict[str, SyntaxError]:
        """Every module whose file does not parse, with its error."""
        self._parse_all()
        return dict(self._errors)

    # ------------------------------------------------------------------
    # Graph resolution
    # ------------------------------------------------------------------

    def _edge_targets(self, module: str) -> List[str]:
        """Known modules an import of ``module`` executes (with ancestors)."""
        return [
            name
            for name in _ancestors(module, self.package)
            if name in self.sources
        ]

    def _resolve_edges(self, ctx: ModuleContext) -> Set[str]:
        edges: Set[str] = set()
        package_parts = ctx.module.split(".")
        for node in ctx.index.imports:
            if isinstance(node, ast.Import):
                for item in node.names:
                    edges.update(self._edge_targets(item.name))
                continue
            base = self._import_from_base(node, package_parts)
            if base is None:
                continue
            edges.update(self._edge_targets(base))
            for item in node.names:
                if item.name != "*":
                    edges.update(self._edge_targets(f"{base}.{item.name}"))
        for ref in ctx.index.references:
            target = ref.func if isinstance(ref, ast.Call) else ref
            qualified = ctx.qualified_name(target)
            if qualified is not None:
                edges.add(self._longest_module_prefix(qualified))
        edges.discard(ctx.module)
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
            if candidate in self.sources:
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
        imports are never followed.  Only the modules reached are parsed.

        Raises
        ------
        SyntaxError
            If a reached module does not parse: its edges are unknown.
        """

        def excluded(name: str) -> bool:
            return any(
                name == prefix or name.startswith(prefix + ".")
                for prefix in exclude_prefixes
            )

        seen: Set[str] = set()
        frontier: List[str] = sorted(
            name for name in roots if name in self.sources and not excluded(name)
        )
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            for edge in self.module(name).imports:
                if edge not in seen and not excluded(edge):
                    frontier.append(edge)
        return sorted(seen)
