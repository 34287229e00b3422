"""Per-module lint context: parsed AST, source lines, import aliases.

Every rule receives one :class:`ModuleContext` per audited file.  The
context owns the AST, knows the module's dotted name (how rules decide
whether they are in scope) and resolves import aliases so a rule can ask
for the *canonical* dotted name of any ``Name``/``Attribute`` chain —
``rng.random()`` after ``import numpy.random as rng`` resolves to
``numpy.random.random``.  Parsing walks the tree once into a
:class:`TreeIndex`; the aliases here and the project model's edges and
docstring stripping are all read from that index.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.analysis.lint.findings import Finding, Severity
from repro.analysis.lint.fingerprint import DOCSTRING_OWNERS, DocstringOwner


def module_for_path(path: Path) -> str:
    """Dotted module name of a source file inside the ``repro`` package.

    Falls back to the bare stem for files outside any ``repro`` package
    directory (fixtures, scratch files).  The project model does not use
    this: it names each file from its path relative to the tree root.
    """
    parts = list(path.resolve().parts)
    if "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
        dotted = [p for p in parts[start:]]
        dotted[-1] = Path(dotted[-1]).stem
        if dotted[-1] == "__init__":
            dotted = dotted[:-1]
        return ".".join(dotted)
    return path.stem


ImportNode = Union[ast.Import, ast.ImportFrom]
ReferenceNode = Union[ast.Call, ast.Attribute]


@dataclass
class TreeIndex:
    """What one ``ast.walk`` over a module collects for the model.

    Aliases, dependency edges and docstring stripping are all derived
    from these lists, so the project model never walks a tree twice.
    """

    #: Every ``import``/``from ... import`` node, lazy ones included.
    imports: List[ImportNode] = field(default_factory=list)
    #: Every call and attribute access (candidate dotted references).
    references: List[ReferenceNode] = field(default_factory=list)
    #: Every node whose body may open with a docstring.
    docstring_owners: List[DocstringOwner] = field(default_factory=list)


def index_tree(tree: ast.Module) -> TreeIndex:
    """Index ``tree`` in a single walk."""
    index = TreeIndex()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            index.imports.append(node)
        elif isinstance(node, (ast.Call, ast.Attribute)):
            index.references.append(node)
        elif isinstance(node, DOCSTRING_OWNERS):
            index.docstring_owners.append(node)
    return index


def _collect_aliases(imports: List[ImportNode]) -> Dict[str, str]:
    """Local name -> canonical dotted module/object name."""
    aliases: Dict[str, str] = {}
    for node in imports:
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".")[0]] = (
                    item.name if item.asname else item.name.split(".")[0]
                )
        elif node.module and node.level == 0:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


@dataclass
class ModuleContext:
    """One audited source file, parsed and indexed for the rules."""

    path: str
    module: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    aliases: Dict[str, str] = field(default_factory=dict)
    index: TreeIndex = field(default_factory=TreeIndex)

    @classmethod
    def from_source(
        cls, source: str, *, path: str = "<string>", module: Optional[str] = None
    ) -> "ModuleContext":
        """Parse ``source``; ``module`` defaults from ``path``."""
        tree = ast.parse(source, filename=path)
        resolved = module or module_for_path(Path(path))
        index = index_tree(tree)
        return cls(
            path=path,
            module=resolved,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            aliases=_collect_aliases(index.imports),
            index=index,
        )

    @classmethod
    def from_file(cls, path: Path, module: Optional[str] = None) -> "ModuleContext":
        """Read and parse one file; ``module`` defaults from ``path``."""
        return cls.from_source(
            path.read_text(encoding="utf-8"), path=str(path), module=module
        )

    # ------------------------------------------------------------------
    # Helpers for rules
    # ------------------------------------------------------------------

    def source_line(self, lineno: int) -> str:
        """Stripped text of one 1-indexed source line ('' out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def qualified_name(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a ``Name``/``Attribute`` chain.

        Resolves the chain's root through the module's import aliases,
        so the result is comparable against names like
        ``numpy.random.default_rng`` regardless of local ``as`` naming.
        Returns ``None`` for expressions that are not plain dotted names.
        """
        chain: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.aliases.get(current.id, current.id)
        chain.append(root)
        return ".".join(reversed(chain))

    def finding(
        self,
        rule: str,
        severity: Severity,
        node: ast.AST,
        message: str,
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule,
            severity=severity,
            path=self.path,
            module=self.module,
            line=line,
            col=col,
            message=message,
            source_line=self.source_line(line),
        )
