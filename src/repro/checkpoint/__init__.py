"""Content-addressed tick-level checkpoint/resume for simulations.

See :mod:`repro.checkpoint.store` for the on-disk format (canonical
JSON, SHA-256 digests, manifest chain), :mod:`repro.checkpoint.state`
for the codec that captures and restores every class's declared state,
and :mod:`repro.checkpoint.runtime` for the run-loop hook and resume
entry point.
"""

from repro.checkpoint.runtime import Checkpointer, resume_simulation
from repro.checkpoint.state import (
    capture_simulation,
    capture_state,
    restore_simulation,
    restore_state,
)
from repro.checkpoint.store import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointError,
    CheckpointRecord,
    CheckpointStateError,
    CheckpointStore,
    LoadedCheckpoint,
    checkpoint_digest,
    load_checkpoint_file,
    serialize_checkpoint,
)

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointError",
    "CheckpointRecord",
    "CheckpointStateError",
    "CheckpointStore",
    "Checkpointer",
    "LoadedCheckpoint",
    "capture_simulation",
    "capture_state",
    "checkpoint_digest",
    "load_checkpoint_file",
    "restore_simulation",
    "restore_state",
    "resume_simulation",
    "serialize_checkpoint",
]
