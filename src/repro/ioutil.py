"""Durable file-writing helpers shared by every artefact writer.

A result that took minutes of simulation to produce must never be lost
to a half-written file: a crash (or SIGKILL) between ``open`` and
``close`` would otherwise leave a truncated JSON/pickle that poisons the
next run.  :func:`atomic_write` provides the standard recipe — write to
a temporary file in the *same directory*, flush, ``fsync``, then
``os.replace`` — so readers observe either the old content or the new
content, never a prefix of it.

The module also says where the process caches live
(:func:`default_cache_root`) and holds :class:`ContentMemo`, the one
on-disk memo behind both of them: the closure digest's module
fingerprints and the thermal model's propagator.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import suppress
from pathlib import Path
from typing import IO, Callable, Dict, Generic, Optional, TypeVar, Union

#: Environment variable relocating the cache tree (tests, CI).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory name, created relative to the working dir.
DEFAULT_CACHE_DIRNAME = ".repro-cache"

T = TypeVar("T")


def default_cache_root() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    override = os.environ.get(CACHE_DIR_ENV)
    return Path(override) if override else Path(DEFAULT_CACHE_DIRNAME)


def atomic_write(
    path: Union[str, Path],
    writer: Callable[[IO[bytes]], None],
) -> None:
    """Atomically create/replace ``path`` with content produced by ``writer``.

    Parameters
    ----------
    path:
        Destination file.  Parent directories are created if missing.
    writer:
        Callback receiving a binary file object opened for writing; it
        must write the complete content.  The temporary file lives in
        the destination's directory so the final ``os.replace`` stays on
        one filesystem (rename atomicity).

    The sequence is: write to temp file → flush → ``os.fsync`` →
    ``os.replace``.  On any failure the temp file is removed and the
    destination is left untouched.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=target.name + ".", suffix=".tmp", dir=str(target.parent)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            writer(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Atomically write raw bytes to ``path``."""
    atomic_write(path, lambda handle: handle.write(data))


def atomic_write_text(
    path: Union[str, Path], text: str, encoding: str = "utf-8"
) -> None:
    """Atomically write ``text`` to ``path`` (durable ``write_text``)."""
    atomic_write_bytes(path, text.encode(encoding))


class ContentMemo(Generic[T]):
    """Values by content key, optionally backed by one JSON file.

    A key must hash everything its value depends on, so an entry can
    never go stale: a change to any input changes the key instead.  The
    file is ``{"format": file_format, "entries": {key: encoded value}}``.
    It is read once, when the memo is made; a file that is missing,
    unreadable, not JSON or of another format is empty, and an entry
    that ``decode`` rejects (returns ``None`` for) is a miss.
    :meth:`save` rewrites the file atomically, and only after a miss,
    with the entries looked up or added since loading, so the file
    holds what its last writer used.  A file that cannot be written is
    skipped: the memo only ever saves time.  With ``path=None`` it
    lives in memory only.
    """

    def __init__(
        self,
        path: Optional[Path],
        file_format: int,
        decode: Callable[[object], Optional[T]],
        encode: Callable[[T], object],
    ) -> None:
        self.path = path
        self._file_format = file_format
        self._decode = decode
        self._encode = encode
        self._stored = _load_entries(path, file_format) if path is not None else {}
        #: Entries looked up or added since loading: what :meth:`save` writes.
        self._used: Dict[str, T] = {}
        self._missed = False

    def get(self, key: str) -> Optional[T]:
        """The value under ``key``; ``None`` (a miss) if absent or malformed."""
        value = self._used.get(key)
        if value is None and key in self._stored:
            value = self._decode(self._stored[key])
            if value is not None:
                self._used[key] = value
        return value

    def put(self, key: str, value: T) -> T:
        """Record a freshly computed value (after a miss)."""
        self._used[key] = value
        self._missed = True
        return value

    def save(self) -> None:
        """Rewrite the file with the entries used, if any lookup missed."""
        if self.path is None or not self._missed:
            return
        document = {
            "format": self._file_format,
            "entries": {key: self._encode(self._used[key]) for key in sorted(self._used)},
        }
        with suppress(OSError):
            atomic_write_text(
                self.path, json.dumps(document, sort_keys=True, separators=(",", ":"))
            )
        self._missed = False


def _load_entries(path: Path, file_format: int) -> Dict[str, object]:
    """Raw entries of a memo file; empty if it is missing or unreadable."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(document, dict) or document.get("format") != file_format:
        return {}
    entries = document.get("entries")
    return entries if isinstance(entries, dict) else {}
