"""Vectorized ensemble engine: many simulations per NumPy tick.

The scalar :class:`repro.soc.simulator.Simulation` steps one trajectory
per tick; this package steps an entire *ensemble* of member simulations
(seeds x configs x apps) per vectorized tick using structure-of-arrays
state, while remaining **bit-identical** to running each member through
the scalar engine on its own.

The scalar loop stays untouched as the reference (the same pattern as
``tests/_reference_scheduler.py``); the equivalence contract is enforced
by the ensemble axes of ``tests/test_differential.py``.
"""

from repro.ensemble.engine import EnsembleSimulation
from repro.ensemble.runner import run_ensemble_workloads

__all__ = [
    "EnsembleSimulation",
    "run_ensemble_workloads",
]
