"""Static (non-adaptive) policies: a fixed mapping and/or governor.

Covers the ``userspace 2.4 GHz`` / ``3.4 GHz`` columns of Table 3 and the
fixed-assignment arm of the motivational experiment (Figure 1).  A
static policy is applied once at attach time and never changes, so any
difference from the Linux baseline is attributable to the chosen
operating point / placement alone.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sched.affinity import AffinityMapping
from repro.soc.simulator import Simulation, ThermalManagerBase


class StaticPolicyManager(ThermalManagerBase):
    """Apply a fixed governor and/or affinity mapping at startup.

    Parameters
    ----------
    governor:
        cpufreq governor name, or None to keep the simulation's initial
        governor.
    userspace_frequency_hz:
        Frequency for the ``userspace`` governor.
    mapping:
        Affinity mapping to pin, or None for the OS default.
    """

    #: Checkpointed state (see :mod:`repro.checkpoint.state`).
    STATE_FIELDS = ("_applied",)
    #: Construction values, never checkpointed.
    DERIVED_FIELDS = ("governor", "userspace_frequency_hz", "mapping")

    def __init__(
        self,
        governor: Optional[str] = None,
        userspace_frequency_hz: Optional[float] = None,
        mapping: Optional[AffinityMapping] = None,
    ) -> None:
        self.governor = governor
        self.userspace_frequency_hz = userspace_frequency_hz
        self.mapping = mapping
        self._applied = False

    def attach(self, sim: Simulation) -> None:
        """Enforce the policy once at the start of the run."""
        if self.governor is not None:
            sim.set_governor(self.governor, self.userspace_frequency_hz)
        sim.set_mapping(self.mapping)
        self._applied = True

    def on_app_switch(self, sim: Simulation, app) -> None:
        """Re-pin the mapping for the new application's threads."""
        sim.set_mapping(self.mapping)

    def stats(self) -> Dict[str, float]:
        """Static policies expose only whether they were applied."""
        return {"applied": 1.0 if self._applied else 0.0}
