"""Lightweight per-section wall-clock accounting for the tick loop.

A :class:`SectionTimer` accumulates elapsed ``time.perf_counter``
seconds into named sections.  The engine brackets each phase of
``Simulation.step`` with :meth:`now`/:meth:`lap` calls; the chip does
the same for its power-evaluation and thermal-integration halves.  When
no timer is attached the hot loop pays exactly one ``is not None`` check
per phase, so instrumentation is free unless asked for.
"""

from __future__ import annotations

import math
import time
from typing import Dict


class SectionTimer:
    """Accumulates wall-clock seconds per named tick-loop section."""

    __slots__ = ("_totals", "ticks")

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}
        self.ticks = 0

    @staticmethod
    def now() -> float:
        """A monotonic timestamp to pass back into :meth:`lap`."""
        return time.perf_counter()

    def lap(self, section: str, since: float) -> float:
        """Charge the time since ``since`` to ``section``.

        Returns the current timestamp so consecutive phases chain:
        ``mark = timer.lap("schedule", mark)``.

        Raises
        ------
        ValueError
            On an empty section name, or a ``since`` mark that is not a
            finite past timestamp.  A mark from the future means the
            call sites are nested or out of order — charging the
            negative duration would silently corrupt the totals.
        """
        now = time.perf_counter()
        if not section:
            raise ValueError("section name must be non-empty")
        elapsed = now - since
        if not math.isfinite(elapsed) or elapsed < 0.0:
            raise ValueError(
                f"lap({section!r}) got a mark {since!r} that is not a finite "
                "past timestamp; laps must chain from now()/a previous lap()"
            )
        totals = self._totals
        totals[section] = totals.get(section, 0.0) + elapsed
        return now

    def add(self, section: str, seconds: float) -> None:
        """Charge an externally measured duration to ``section``.

        Raises
        ------
        ValueError
            On an empty section name or a duration that is negative,
            NaN or infinite.
        """
        if not section:
            raise ValueError("section name must be non-empty")
        if not math.isfinite(seconds) or seconds < 0.0:
            raise ValueError(
                f"add({section!r}) needs a finite non-negative duration, "
                f"got {seconds!r}"
            )
        totals = self._totals
        totals[section] = totals.get(section, 0.0) + seconds

    def count_tick(self) -> None:
        """Record that one full tick passed through the loop."""
        self.ticks += 1

    def totals(self) -> Dict[str, float]:
        """Accumulated seconds per section (sorted by cost, descending)."""
        return dict(
            sorted(self._totals.items(), key=lambda item: item[1], reverse=True)
        )

    def reset(self) -> None:
        """Zero all sections and the tick count."""
        self._totals.clear()
        self.ticks = 0
