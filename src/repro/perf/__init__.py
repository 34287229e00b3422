"""Performance instrumentation for the simulation's tick loop.

:mod:`repro.perf.timer` provides the
:class:`~repro.perf.timer.SectionTimer` the engine (and chip) feed
per-phase wall-clock accounting into, so a run can report where its
tick time goes (schedule/app/governor/power/thermal/sensors/manager).
Host-time benchmarking of whole runs and grids lives outside the
package, in ``perfbench/run.py`` (see ``perfbench/README.md``), which
builds on this timer.

This is wall-clock tooling about the *simulator*; the simulated
platform's own counters live in :mod:`repro.sched.perf`.
"""

from repro.perf.timer import SectionTimer

__all__ = ["SectionTimer"]
