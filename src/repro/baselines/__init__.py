"""Baseline thermal-management policies the paper compares against.

Plain Linux (default scheduling plus a cpufreq governor, no thermal
manager) needs no module: it is a :class:`repro.soc.simulator.Simulation`
built with ``manager=None``.

* :mod:`repro.baselines.ge_qiu` — the DVFS-only Q-learning manager of
  Ge & Qiu (DAC 2011, the paper's ref. [7]), including the *modified*
  variant that re-learns on an explicit application-switch notification
  (Section 6.2);
* :mod:`repro.baselines.static_policy` — fixed userspace-frequency
  policies (the 2.4 GHz / 3.4 GHz columns of Table 3).
"""

from repro.baselines.ge_qiu import GeQiuThermalManager
from repro.baselines.static_policy import StaticPolicyManager

__all__ = ["GeQiuThermalManager", "StaticPolicyManager"]
