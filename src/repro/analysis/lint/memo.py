"""The fingerprint memo: closure-module summaries kept on disk by content.

Computing the closure digest in a fresh process parses, walks and
``ast.dump``-s every closure member, which is most of a process's
set-up.  Yet what a module contributes is fixed by four things: the
fingerprint schema version, the interpreter's ``major.minor`` tag, the
module's dotted name and the file's bytes.  :meth:`FingerprintMemo.key`
hashes exactly those, so an entry can never go stale: an edit, a rename,
a schema bump or an interpreter upgrade changes the key instead.

An entry stores the module's fingerprint and its *unresolved* edges
(:class:`EdgeCandidates`): the absolute names it imports and the
in-package dotted names it references.  Which of those names are
modules depends on the tree listing, not on the module's bytes (adding
``soc/extra.py`` turns a reference to ``repro.soc.extra.X`` from an edge
into ``repro.soc`` into one into ``repro.soc.extra``), so the project
model resolves the candidates against its listing on every lookup, hit
or miss alike.  Relative imports are applied against the module's own
name before storing, which is why the name is part of the key.

The memo is one JSON file (:data:`MEMO_FILENAME`, under the result
cache's root for the closure digest).  It is rewritten atomically, only
when a lookup missed, and then holds only the entries the last
computation used, so it stays the size of one closure.  A file or entry
that cannot be read or has the wrong shape is a miss, and a file that
cannot be written is skipped: the memo only ever saves time.
"""

from __future__ import annotations

import hashlib
import json
import re
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.analysis.lint.fingerprint import FINGERPRINT_SCHEMA_VERSION, python_tag
from repro.ioutil import atomic_write_text

#: The memo file's name inside its directory.
MEMO_FILENAME = "fingerprint-memo.json"

#: Layout of the memo file; a file of any other format is ignored whole.
MEMO_FORMAT = 1

_FINGERPRINT_RE = re.compile(r"[0-9a-f]{16}")


@dataclass(frozen=True)
class EdgeCandidates:
    """A module's dependency edges before the tree listing resolves them."""

    #: Absolute in-package names the module imports, relative bases
    #: applied (``from x import y`` names both ``x`` and ``x.y``).
    imports: Tuple[str, ...]
    #: In-package dotted names the module calls or reads.
    references: Tuple[str, ...]


@dataclass(frozen=True)
class MemoEntry:
    """What one module's name and bytes determine."""

    fingerprint: str
    candidates: EdgeCandidates

    def as_json(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "imports": list(self.candidates.imports),
            "references": list(self.candidates.references),
        }

    @classmethod
    def from_json(cls, raw: object) -> Optional["MemoEntry"]:
        """The entry ``raw`` encodes, or ``None`` if it is malformed."""
        if not isinstance(raw, dict):
            return None
        fingerprint = raw.get("fingerprint")
        imports = raw.get("imports")
        references = raw.get("references")
        if not (
            isinstance(fingerprint, str)
            and _FINGERPRINT_RE.fullmatch(fingerprint)
            and isinstance(imports, list)
            and isinstance(references, list)
            and all(isinstance(name, str) for name in imports + references)
        ):
            return None
        return cls(fingerprint, EdgeCandidates(tuple(imports), tuple(references)))


class FingerprintMemo:
    """Module summaries by content key, optionally backed by a JSON file.

    With ``path=None`` the memo lives in memory only and :meth:`save`
    does nothing; the project model then takes the same path through it
    as it does with a file.
    """

    def __init__(self, path: Optional[Path] = None) -> None:
        self.path = path
        self._stored = _load(path) if path is not None else {}
        #: Entries looked up or added since loading: what :meth:`save` writes.
        self._used: Dict[str, MemoEntry] = {}
        self._missed = False

    @staticmethod
    def key(name: str, data: bytes) -> str:
        """Content key of module ``name`` whose file holds ``data``."""
        header = f"{FINGERPRINT_SCHEMA_VERSION}\0{python_tag()}\0{name}\0"
        return hashlib.sha256(header.encode("utf-8") + data).hexdigest()

    def get(self, key: str) -> Optional[MemoEntry]:
        """The entry under ``key``; ``None`` (a miss) if absent or malformed."""
        entry = self._used.get(key)
        if entry is None and key in self._stored:
            entry = MemoEntry.from_json(self._stored[key])
            if entry is not None:
                self._used[key] = entry
        return entry

    def put(
        self, key: str, fingerprint: str, candidates: EdgeCandidates
    ) -> MemoEntry:
        """Record a freshly computed entry (after a miss)."""
        entry = self._used[key] = MemoEntry(fingerprint, candidates)
        self._missed = True
        return entry

    def save(self) -> None:
        """Rewrite the file with the entries used, if any lookup missed.

        An unwritable location is skipped: the entries are recomputed
        next time.
        """
        if self.path is None or not self._missed:
            return
        document = {
            "format": MEMO_FORMAT,
            "entries": {key: self._used[key].as_json() for key in sorted(self._used)},
        }
        with suppress(OSError):
            atomic_write_text(
                self.path, json.dumps(document, sort_keys=True, separators=(",", ":"))
            )
        self._missed = False


def _load(path: Path) -> Dict[str, object]:
    """Raw entries of the memo file; empty if it is missing or unreadable."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(document, dict) or document.get("format") != MEMO_FORMAT:
        return {}
    entries = document.get("entries")
    return entries if isinstance(entries, dict) else {}
