"""Content-addressed, schema-versioned checkpoint store.

Checkpoints are serialized like JobSpecs: canonical JSON (sorted keys,
compact separators), hashed with SHA-256, and named by tick plus digest
prefix (``ckpt-<tick>-<digest12>.json``).  A ``chain.json`` manifest —
rewritten atomically after every save — links each checkpoint to its
predecessor's digest, so a resumed run can prove it continues the same
lineage and ``repro ckpt verify`` can audit the whole chain.

Corruption policy: a checkpoint is *valid* only if its bytes hash to the
recorded digest and its schema version matches.  :meth:`CheckpointStore.
latest_valid` walks the chain newest-to-oldest, re-verifying digests on
disk, and silently skips truncated/corrupted/mismatched entries — a
damaged newest checkpoint degrades to the previous valid one, never to a
crash.  If the chain manifest itself is damaged, the store falls back to
globbing checkpoint files and validating them individually.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.ioutil import atomic_write_bytes

#: Bump when the snapshot layout changes; older checkpoints are then
#: treated as invalid (skipped, not migrated).
CHECKPOINT_SCHEMA_VERSION = 3

#: Checkpoint filename prefix: ``ckpt-<tick:010d>-<digest12>.json``.
CHECKPOINT_PREFIX = "ckpt-"

#: Manifest chain filename inside a checkpoint directory.
CHAIN_FILENAME = "chain.json"

#: Digest prefix length embedded in checkpoint filenames.
DIGEST_PREFIX_LEN = 12


class CheckpointError(Exception):
    """A checkpoint could not be loaded, verified, or applied."""


class CheckpointStateError(CheckpointError):
    """A snapshot does not match the simulation it is applied to."""


def serialize_checkpoint(doc: Dict[str, Any]) -> bytes:
    """Canonical on-disk encoding of a checkpoint document.

    Sorted keys and compact separators make the encoding a pure function
    of the content — the same state always hashes to the same digest.
    Non-finite floats (stuck-at sentinels) use Python's non-strict JSON
    extension; both ends of the round-trip are this module.
    """
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def checkpoint_digest(data: bytes) -> str:
    """SHA-256 hex digest of a checkpoint's canonical bytes."""
    return hashlib.sha256(data).hexdigest()


def checkpoint_filename(tick: int, digest: str) -> str:
    """Canonical filename for a checkpoint (tick + digest prefix)."""
    return f"{CHECKPOINT_PREFIX}{tick:010d}-{digest[:DIGEST_PREFIX_LEN]}.json"


@dataclass(frozen=True)
class CheckpointRecord:
    """One entry of the manifest chain."""

    tick: int
    digest: str
    parent: Optional[str]
    file: str
    bytes: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "tick": self.tick,
            "digest": self.digest,
            "parent": self.parent,
            "file": self.file,
            "bytes": self.bytes,
        }

    @classmethod
    def from_dict(cls, entry: Dict[str, Any]) -> "CheckpointRecord":
        return cls(
            tick=int(entry["tick"]),
            digest=str(entry["digest"]),
            parent=entry["parent"],
            file=str(entry["file"]),
            bytes=int(entry["bytes"]),
        )


@dataclass(frozen=True)
class LoadedCheckpoint:
    """A verified checkpoint document plus its provenance."""

    doc: Dict[str, Any]
    digest: str
    path: Path

    @property
    def tick(self) -> int:
        """Tick the snapshot was taken at."""
        return int(self.doc["tick"])

    @property
    def state(self) -> Dict[str, Any]:
        """The captured simulation state."""
        return self.doc["state"]


def load_checkpoint_file(path: Union[str, Path]) -> LoadedCheckpoint:
    """Load and verify one checkpoint file.

    Raises :class:`CheckpointError` when the file is missing, truncated,
    fails its content digest (filename prefix), or carries a different
    schema version.
    """
    target = Path(path)
    try:
        data = target.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {target}: {exc}") from exc
    digest = checkpoint_digest(data)
    stem = target.name
    if stem.startswith(CHECKPOINT_PREFIX) and stem.endswith(".json"):
        fragment = stem[len(CHECKPOINT_PREFIX) : -len(".json")].rsplit("-", 1)[-1]
        if not digest.startswith(fragment):
            raise CheckpointError(
                f"checkpoint {target.name} failed its digest check "
                f"(content hashes to {digest[:DIGEST_PREFIX_LEN]}…, "
                f"filename claims {fragment}…)"
            )
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint {target} is not valid JSON: {exc}") from exc
    _check_doc(doc, target)
    return LoadedCheckpoint(doc=doc, digest=digest, path=target)


def _check_doc(doc: Any, origin: Path) -> None:
    if not isinstance(doc, dict) or "schema" not in doc:
        raise CheckpointError(f"checkpoint {origin} has no schema marker")
    if doc["schema"] != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {origin} has schema {doc['schema']!r}, "
            f"this build reads {CHECKPOINT_SCHEMA_VERSION}"
        )
    if "tick" not in doc or "state" not in doc:
        raise CheckpointError(f"checkpoint {origin} is missing tick/state")


class CheckpointStore:
    """Checkpoint files plus their manifest chain in one directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def save(
        self,
        state: Dict[str, Any],
        tick: int,
        now: float,
        parent: Optional[str] = None,
    ) -> CheckpointRecord:
        """Write one checkpoint and append it to the manifest chain."""
        doc = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "tick": int(tick),
            "now": float(now),
            "parent": parent,
            "state": state,
        }
        data = serialize_checkpoint(doc)
        digest = checkpoint_digest(data)
        record = CheckpointRecord(
            tick=int(tick),
            digest=digest,
            parent=parent,
            file=checkpoint_filename(tick, digest),
            bytes=len(data),
        )
        atomic_write_bytes(self.root / record.file, data)
        entries = self.entries()
        # Re-checkpointing a tick (resume after corruption fallback)
        # replaces the stale entry instead of duplicating it.
        entries = [entry for entry in entries if entry.tick != record.tick]
        entries.append(record)
        entries.sort(key=lambda entry: entry.tick)
        self._write_chain(entries)
        return record

    def _write_chain(self, entries: List[CheckpointRecord]) -> None:
        doc = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "entries": [entry.as_dict() for entry in entries],
        }
        atomic_write_bytes(self.root / CHAIN_FILENAME, serialize_checkpoint(doc))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def entries(self) -> List[CheckpointRecord]:
        """Manifest-chain entries, oldest first; ``[]`` if unreadable."""
        chain_path = self.root / CHAIN_FILENAME
        try:
            doc = json.loads(chain_path.read_text(encoding="utf-8"))
            records = [CheckpointRecord.from_dict(e) for e in doc["entries"]]
        except (OSError, ValueError, KeyError, TypeError):
            return []
        records.sort(key=lambda entry: entry.tick)
        return records

    def _checkpoint_files(self) -> List[Path]:
        """Checkpoint files on disk, oldest tick first."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"{CHECKPOINT_PREFIX}*.json"))

    def load_record(self, record: CheckpointRecord) -> LoadedCheckpoint:
        """Load one chain entry, verifying its full recorded digest."""
        path = self.root / record.file
        loaded = load_checkpoint_file(path)
        if loaded.digest != record.digest:
            raise CheckpointError(
                f"checkpoint {record.file} does not match its chain digest"
            )
        if loaded.tick != record.tick:
            raise CheckpointError(
                f"checkpoint {record.file} claims tick {loaded.tick}, "
                f"chain records {record.tick}"
            )
        return loaded

    def latest_valid(self) -> Optional[LoadedCheckpoint]:
        """Newest checkpoint that passes verification, else ``None``.

        Never raises: corruption of any individual checkpoint — or of
        the chain manifest itself — degrades to the next older valid
        checkpoint (falling back to a directory glob when the chain is
        unreadable), and finally to ``None`` (run from scratch).
        """
        seen: set = set()
        for record in reversed(self.entries()):
            seen.add(record.file)
            try:
                return self.load_record(record)
            except CheckpointError:
                continue
        # Chain missing/corrupt or every entry invalid: fall back to the
        # raw files, newest tick first (filenames sort by tick).
        for path in reversed(self._checkpoint_files()):
            if path.name in seen:
                continue
            try:
                return load_checkpoint_file(path)
            except CheckpointError:
                continue
        return None

    # ------------------------------------------------------------------
    # Auditing and retention
    # ------------------------------------------------------------------

    def verify(self) -> List[Dict[str, Any]]:
        """Audit every chain entry plus orphaned checkpoint files.

        Each report carries ``tick``, ``digest``, ``file``, ``bytes``
        (on-disk size, ``None`` when missing), a ``status`` of ``ok`` /
        ``missing`` / ``corrupt`` and a ``chain_ok`` flag (parent digest
        actually precedes the entry in the chain).
        """
        reports: List[Dict[str, Any]] = []
        known_digests: set = set()
        chained_files = set()
        for record in self.entries():
            chained_files.add(record.file)
            path = self.root / record.file
            status = "ok"
            size: Optional[int] = None
            try:
                size = path.stat().st_size
            except OSError:
                status = "missing"
            if status == "ok":
                try:
                    self.load_record(record)
                except CheckpointError:
                    status = "corrupt"
            chain_ok = record.parent is None or record.parent in known_digests
            known_digests.add(record.digest)
            reports.append(
                {
                    "tick": record.tick,
                    "digest": record.digest,
                    "file": record.file,
                    "bytes": size,
                    "status": status,
                    "chain_ok": chain_ok,
                }
            )
        for path in self._checkpoint_files():
            if path.name in chained_files:
                continue
            try:
                loaded = load_checkpoint_file(path)
                status = "orphan"
                tick: Optional[int] = loaded.tick
                digest = loaded.digest
            except CheckpointError:
                status = "corrupt"
                tick = None
                digest = ""
            reports.append(
                {
                    "tick": tick,
                    "digest": digest,
                    "file": path.name,
                    "bytes": path.stat().st_size,
                    "status": status,
                    "chain_ok": False,
                }
            )
        return reports

    def prune(self, keep: int) -> List[CheckpointRecord]:
        """Drop all but the newest ``keep`` valid checkpoints.

        Invalid/missing entries are always dropped.  Returns the removed
        records; the chain is rewritten to the kept suffix (the oldest
        kept entry's parent pointer is preserved as provenance even when
        its predecessor file is gone).
        """
        if keep < 1:
            raise ValueError("keep must be >= 1")
        valid: List[CheckpointRecord] = []
        removed: List[CheckpointRecord] = []
        for record in self.entries():
            try:
                self.load_record(record)
            except CheckpointError:
                removed.append(record)
                continue
            valid.append(record)
        kept = valid[-keep:]
        removed.extend(valid[: -keep] if len(valid) > keep else [])
        kept_files = {record.file for record in kept}
        for record in removed:
            path = self.root / record.file
            if record.file in kept_files:
                continue
            try:
                path.unlink()
            except OSError:
                pass
        self._write_chain(kept)
        return removed
