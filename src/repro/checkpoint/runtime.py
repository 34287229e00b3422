"""Tick-boundary checkpointing and resume orchestration.

:class:`Checkpointer` is the object either engine — a scalar
:class:`~repro.soc.simulator.Simulation` or an
:class:`~repro.ensemble.engine.EnsembleSimulation` — calls back into at
the bottom of every run-loop iteration (``attach_checkpointer``): every
``every_ticks`` completed ticks it captures the full closure and appends
a content-addressed snapshot to its
:class:`~repro.checkpoint.store.CheckpointStore`.

:func:`resume_simulation` is the other direction: given a *fresh*
simulation built with the same arguments as the interrupted run, it
loads the newest valid checkpoint (or an explicitly named one) and
rebuilds the captured state in the prepared engine, so ``run()``
continues mid-stream.  Both corruption and an empty store degrade to
``None`` — the caller simply runs from scratch.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.checkpoint.state import capture_simulation, restore_simulation
from repro.checkpoint.store import (
    CheckpointError,
    CheckpointStore,
    LoadedCheckpoint,
    load_checkpoint_file,
)


class Checkpointer:
    """Periodic tick-boundary snapshotting into a checkpoint store."""

    def __init__(self, store: CheckpointStore, every_ticks: int) -> None:
        if every_ticks < 1:
            raise ValueError("every_ticks must be >= 1")
        self.store = store
        self.every_ticks = every_ticks
        self._parent: Optional[str] = None
        self._last_tick = -1

    def note_resumed(self, loaded: LoadedCheckpoint) -> None:
        """Continue the manifest chain from a restored checkpoint."""
        self._parent = loaded.digest
        self._last_tick = loaded.tick

    def maybe_checkpoint(self, sim) -> bool:
        """Snapshot the simulation if a checkpoint boundary was crossed.

        Deterministic by construction: whether a tick is a boundary
        depends only on the tick index, and capturing draws no
        randomness — so checkpointed and checkpoint-free runs produce
        identical results.
        """
        tick = sim.tick_index
        if tick <= self._last_tick or tick % self.every_ticks != 0:
            return False
        record = self.store.save(
            capture_simulation(sim), tick=tick, now=sim.now, parent=self._parent
        )
        self._parent = record.digest
        self._last_tick = tick
        return True


def resume_simulation(
    sim,
    store: CheckpointStore,
    checkpoint: Optional[Union[str, Path]] = None,
) -> Optional[LoadedCheckpoint]:
    """Restore ``sim`` from a checkpoint, degrading gracefully.

    Parameters
    ----------
    sim:
        A freshly constructed simulation (same arguments as the
        interrupted run); it must not have been prepared or stepped.
    store:
        The checkpoint directory of the interrupted run.
    checkpoint:
        Optional explicit checkpoint file.  If it fails verification the
        store's newest valid checkpoint is used instead.

    Returns the checkpoint that was restored, or ``None`` when nothing
    valid exists (the caller then runs from scratch).  A snapshot that
    fails to *apply* (state mismatch — e.g. the simulation was built
    with different applications) raises
    :class:`~repro.checkpoint.store.CheckpointStateError`: that is a
    caller error, not corruption.
    """
    loaded: Optional[LoadedCheckpoint] = None
    if checkpoint is not None:
        try:
            loaded = load_checkpoint_file(checkpoint)
        except CheckpointError:
            loaded = None
    if loaded is None:
        loaded = store.latest_valid()
    if loaded is None:
        return None
    restore_simulation(sim, loaded.state)
    return loaded
