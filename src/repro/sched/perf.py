"""Synthetic performance counters (the simulator's ``perf``).

Figure 6 of the paper uses cache-misses and page-faults to quantify the
*overhead of the management layer itself*: every sensor-sampling event
and every thread migration pollutes caches and touches kernel pages, so
both counters fall as the sampling interval grows.  The counters here are
driven by exactly those events, plus a small execution baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PerfCounters:
    """Accumulating event counters for one simulation run."""

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = (
        "cache_misses",
        "page_faults",
        "migrations",
        "sample_events",
        "decision_events",
        "executed_cycles",
    )
    #: The per-event costs (construction values).
    DERIVED_FIELDS = (
        "misses_per_sample",
        "faults_per_sample",
        "misses_per_migration",
        "faults_per_migration",
        "misses_per_decision",
        "misses_per_cycle",
    )

    #: Cache misses charged per sensor-sampling event.
    misses_per_sample: float = 5.0e4
    #: Page faults charged per sensor-sampling event.
    faults_per_sample: float = 1.0e3
    #: Cache misses charged per thread migration (cold-cache refill).
    misses_per_migration: float = 2.0e4
    #: Page faults charged per thread migration.
    faults_per_migration: float = 1.5e2
    #: Cache misses charged per learning-agent decision event.
    misses_per_decision: float = 1.0e4
    #: Baseline cache misses per executed cycle.
    misses_per_cycle: float = 1.0e-9

    cache_misses: float = field(default=0.0, init=False)
    page_faults: float = field(default=0.0, init=False)
    migrations: int = field(default=0, init=False)
    sample_events: int = field(default=0, init=False)
    decision_events: int = field(default=0, init=False)
    executed_cycles: float = field(default=0.0, init=False)

    def record_execution(self, cycles: float) -> None:
        """Charge the baseline cost of executing ``cycles`` CPU cycles."""
        if cycles < 0.0:
            raise ValueError("cycles cannot be negative")
        self.executed_cycles += cycles
        self.cache_misses += cycles * self.misses_per_cycle

    def record_migration(self) -> None:
        """Charge one thread migration."""
        self.migrations += 1
        self.cache_misses += self.misses_per_migration
        self.page_faults += self.faults_per_migration

    def record_sample_event(self) -> None:
        """Charge one sensor-sampling event (all sensors read at once)."""
        self.sample_events += 1
        self.cache_misses += self.misses_per_sample
        self.page_faults += self.faults_per_sample

    def record_decision_event(self) -> None:
        """Charge one learning-agent decision epoch."""
        self.decision_events += 1
        self.cache_misses += self.misses_per_decision
