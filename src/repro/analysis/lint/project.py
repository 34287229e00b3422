"""The AST-driven project model: modules, fingerprints, import/call graph.

:meth:`ProjectModel.build` only *lists* a package tree: every source
file is named from its path relative to the tree root
(``<root>/soc/chip.py`` becomes ``<root.name>.soc.chip``), and that
listing alone answers whether a module exists.  A module is parsed the
first time something asks for it (:meth:`ProjectModel.module`): one
``ast.walk`` indexes its imports, dotted references and docstring owners
(:class:`~repro.analysis.lint.context.TreeIndex`), the docstrings are
stripped in place and the dependency edges are derived from that index.
Following edges from a set of roots (:meth:`ProjectModel.fingerprints`,
:meth:`ProjectModel.reachable`) therefore parses only the modules it
reaches; the closure digest never touches the rest of the tree, while
``repro lint``, which visits every module (:attr:`ProjectModel.modules`),
parses them all.

:meth:`ProjectModel.module` keeps what it parses, for the rules that
walk the trees later.  Following edges keeps nothing new: each reached
module the model does not already hold is looked up in a
:class:`~repro.analysis.lint.memo.FingerprintMemo` by its name and
bytes, and only on a miss parsed, fingerprinted and dropped before the
next one, keeping only its fingerprint and edges.  Holding every closure
tree until the digest is done would cost for the life of the process,
since pymalloc keeps the arenas of freed trees mapped, and every pool
worker forked from it inherits them.

Fingerprints (see :mod:`repro.analysis.lint.fingerprint`) are computed
on first read and cached: the whole-module fingerprint the digest
hashes, and the marker data IRR001 reads.

The dependency graph is derived in two steps.  First a module's
:class:`~repro.analysis.lint.memo.EdgeCandidates`, which depend only on
its bytes and dotted name (:func:`edge_candidates`):

* every ``import``/``from ... import`` — including lazy imports inside
  function bodies — names a module, relative imports applied against
  the module's own name;
* every dotted call or attribute access that resolves (through the
  context's import aliases) to a name under the package names it.

Then the candidates are resolved against the tree listing, the same way
for a parsed module and a memo hit: an import adds an edge to the
imported module *and* to each listed ancestor package (importing
``repro.x.y`` executes ``repro/__init__`` and ``repro/x/__init__`` too);
a reference adds an edge to its longest listed module prefix.

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
from repro.analysis.lint.memo import EdgeCandidates, FingerprintMemo


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
    #: The edges' names before the tree listing resolves them.
    candidates: EdgeCandidates
    #: Resolved in-package dependency edges (sorted module names).
    imports: Tuple[str, ...]

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


def _under(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def _import_from_base(node: ast.ImportFrom, module: str) -> Optional[str]:
    """The absolute module a ``from ... import`` in ``module`` resolves against."""
    if node.level == 0:
        return node.module
    # Relative import: strip ``level`` components off the importing
    # module's package path (one level = the current package).
    package_parts = module.split(".")
    base_parts = package_parts[: len(package_parts) - node.level]
    if node.module:
        base_parts = base_parts + node.module.split(".")
    return ".".join(base_parts) if base_parts else None


def edge_candidates(ctx: ModuleContext, package: str) -> EdgeCandidates:
    """The names under ``package`` that ``ctx``'s imports and dotted
    references name: a function of the module's bytes and dotted name.

    Names outside ``package`` are dropped here, since no listed module
    can prefix them.
    """
    imports: Set[str] = set()
    for node in ctx.index.imports:
        if isinstance(node, ast.Import):
            imports.update(item.name for item in node.names)
            continue
        base = _import_from_base(node, ctx.module)
        if base is None:
            continue
        imports.add(base)
        imports.update(
            f"{base}.{item.name}" for item in node.names if item.name != "*"
        )
    references: Set[str] = set()
    for ref in ctx.index.references:
        target = ref.func if isinstance(ref, ast.Call) else ref
        qualified = ctx.qualified_name(target)
        if qualified is not None:
            references.add(qualified)
    return EdgeCandidates(
        imports=tuple(sorted(name for name in imports if _under(name, package))),
        references=tuple(
            sorted(name for name in references if _under(name, package))
        ),
    )


def _ancestors(module: str, package: str) -> List[str]:
    """``module`` plus every ancestor package down to ``package``."""
    parts = module.split(".")
    names: List[str] = []
    for depth in range(1, len(parts) + 1):
        candidate = ".".join(parts[:depth])
        if _under(candidate, package):
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
        """The listed module ``name``, derived on first request and kept.

        Raises
        ------
        KeyError
            If no file of the tree is named ``name``.
        SyntaxError
            If the module's file does not parse (raised again on every
            later request).
        """
        info = self._parsed.get(name)
        if info is None:
            info = self._parsed[name] = self._derive(name)
        return info

    def _derive(self, name: str, data: Optional[bytes] = None) -> ModuleInfo:
        """Parse, index, strip and resolve ``name`` (from ``data``, its
        file's bytes, when already read); the model keeps nothing but a
        parse error."""
        error = self._errors.get(name)
        if error is not None:
            raise error
        try:
            ctx = ModuleContext.from_file(self.sources[name], module=name, data=data)
        except SyntaxError as exc:
            self._errors[name] = exc
            raise
        for owner in ctx.index.docstring_owners:
            strip_docstring(owner)
        candidates = edge_candidates(ctx, self.package)
        return ModuleInfo(
            name=name,
            path=ctx.path,
            ctx=ctx,
            candidates=candidates,
            imports=self._resolve(name, candidates),
        )

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

    def _resolve(self, module: str, candidates: EdgeCandidates) -> Tuple[str, ...]:
        """``module``'s dependency edges: its candidates resolved against
        the tree listing (sorted module names)."""
        edges: Set[str] = set()
        for name in candidates.imports:
            edges.update(self._edge_targets(name))
        for qualified in candidates.references:
            edges.add(self._longest_module_prefix(qualified))
        edges.discard(module)
        edges.discard("")
        return tuple(sorted(edges))

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
        imports are never followed.  Only the modules reached are parsed
        (see :meth:`fingerprints`).

        Raises
        ------
        SyntaxError
            If a reached module does not parse: its edges are unknown.
        """
        return sorted(self.fingerprints(roots, exclude_prefixes))

    def fingerprints(
        self,
        roots: Iterable[str],
        exclude_prefixes: Tuple[str, ...] = (),
        memo: Optional[FingerprintMemo] = None,
    ) -> Dict[str, str]:
        """Fingerprint of every module :meth:`reachable` from ``roots``.

        A reached module the model does not hold is looked up in
        ``memo`` (default: an empty in-memory one) by its name and
        bytes.  A hit is neither parsed nor walked.  A miss is derived,
        and only its fingerprint and edges are kept: its tree is dropped
        before the next module is parsed, so a fresh model never holds
        more than one tree.  Either way the stored edge candidates are
        resolved against this model's listing.  Afterwards the memo is
        saved if anything was missing.  Raises as :meth:`reachable`
        does.
        """
        if memo is None:
            memo = FingerprintMemo()

        def excluded(name: str) -> bool:
            return any(
                name == prefix or name.startswith(prefix + ".")
                for prefix in exclude_prefixes
            )

        fingerprints: Dict[str, str] = {}
        frontier: List[str] = sorted(
            name for name in roots if name in self.sources and not excluded(name)
        )
        while frontier:
            name = frontier.pop()
            if name in fingerprints:
                continue
            fingerprints[name], edges = self._summary(name, memo)
            frontier.extend(
                edge
                for edge in edges
                if edge not in fingerprints and not excluded(edge)
            )
        memo.save()
        return fingerprints

    def _summary(
        self, name: str, memo: FingerprintMemo
    ) -> Tuple[str, Tuple[str, ...]]:
        """Fingerprint and resolved edges of ``name``, parsing it only if
        neither the model nor the memo holds it."""
        held = self._parsed.get(name)
        if held is not None:
            return held.fingerprint, held.imports
        data = self.sources[name].read_bytes()
        key = memo.key(name, data)
        entry = memo.get(key)
        if entry is None:
            # The tree dies with ``info`` when this returns, before the
            # next parse reuses its memory: trees held to the end leave
            # their arenas mapped.
            info = self._derive(name, data)
            entry = memo.put(key, info.fingerprint, info.candidates)
        return entry.fingerprint, self._resolve(name, entry.candidates)
