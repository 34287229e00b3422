"""Fault-tolerance study: controllers on a faulty substrate.

Runs the headline controllers — the proposed agent, the Ge & Qiu
baseline and plain Linux ``ondemand`` — across the fault modes of
:mod:`repro.faults.presets` ({no faults, sensor faults, actuation
faults}), each with the supervision layer off and on, and reports
lifetime (cycling/aging MTTF), thermal-cycle counts, execution-time
overhead and the supervisor/fault counters.

The grid answers three questions the paper's fault-free evaluation
cannot:

* how much lifetime does each controller lose when its observations
  and actuations degrade (supervisor off vs the no-fault row);
* how much of that loss the supervision layer recovers (supervisor on
  vs off, same fault mode);
* what the supervision layer itself costs on a healthy platform (the
  no-fault row, supervisor on vs off).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.analysis.tables import format_table
from repro.experiments.engine import JobSpec, workload_job
from repro.experiments.runner import RunSummary
from repro.faults.presets import default_supervisor_config, fault_config_for

#: Controllers compared, in row order.
FT_POLICIES: Tuple[str, ...] = ("linux", "ge", "proposed")

#: Fault modes compared (see :mod:`repro.faults.presets`).
FT_FAULT_MODES: Tuple[str, ...] = ("none", "sensor", "actuation")

#: The workload of the study (the paper's mid-length application).
FT_APP = "mpeg_dec"


@dataclass
class FaultToleranceRow:
    """One (policy, fault mode, supervisor) cell of the grid."""

    policy: str
    fault_mode: str
    supervised: bool
    summary: RunSummary

    @property
    def emergencies(self) -> float:
        """Thermal-emergency engagements during the measured run."""
        return self.summary.supervisor_stats.get("emergencies", 0.0)

    @property
    def sensor_fixups(self) -> float:
        """Readings the sensor supervisor repaired before delivery."""
        stats = self.summary.supervisor_stats
        return (
            stats.get("sensor_median_fallbacks", 0.0)
            + stats.get("sensor_hold_fallbacks", 0.0)
            + stats.get("sensor_failsafe_fallbacks", 0.0)
        )

    @property
    def actuation_recoveries(self) -> float:
        """Failed transitions the actuation supervisor retried."""
        return self.summary.supervisor_stats.get("actuation_retries", 0.0)


@dataclass
class FaultToleranceResult:
    """All rows of the fault-tolerance grid."""

    rows: List[FaultToleranceRow] = field(default_factory=list)

    def row(
        self, policy: str, fault_mode: str, supervised: bool
    ) -> FaultToleranceRow:
        """Look up one cell of the grid."""
        for row in self.rows:
            if (
                row.policy == policy
                and row.fault_mode == fault_mode
                and row.supervised == supervised
            ):
                return row
        raise KeyError(f"no row ({policy}, {fault_mode}, supervised={supervised})")

    def format_table(self) -> str:
        """Render the grid."""
        headers = [
            "policy",
            "faults",
            "supervisor",
            "tcMTTF_y",
            "ageMTTF_y",
            "cycles",
            "exec_s",
            "peakT",
            "emergencies",
            "fixups",
            "retries",
        ]
        cells = [
            [
                row.policy,
                row.fault_mode,
                "on" if row.supervised else "off",
                row.summary.cycling_mttf_years,
                row.summary.aging_mttf_years,
                row.summary.num_cycles,
                row.summary.execution_time_s,
                row.summary.peak_temp_c,
                row.emergencies,
                row.sensor_fixups,
                row.actuation_recoveries,
            ]
            for row in self.rows
        ]
        return format_table(
            headers,
            cells,
            title=(
                "Fault tolerance — lifetime and overhead under sensor/actuation "
                "faults, supervisor off vs on"
            ),
            float_format="{:.2f}",
        )


def cells(
    iteration_scale: float = 1.0,
    seed: int = 1,
    app: str = FT_APP,
    policies: Tuple[str, ...] = FT_POLICIES,
    fault_modes: Tuple[str, ...] = FT_FAULT_MODES,
) -> Dict[Tuple[str, str, bool], JobSpec]:
    """One run per {policy} x {fault mode} x {supervisor} cell, in row
    order.

    Every cell shares ``seed``, so all controllers face the same
    workload and the same fault schedule per mode.
    """
    return {
        (policy, fault_mode, supervised): workload_job(
            app,
            None,
            policy,
            seed=seed,
            iteration_scale=iteration_scale,
            faults=fault_config_for(fault_mode),
            supervisor=default_supervisor_config() if supervised else None,
        )
        for policy in policies
        for fault_mode in fault_modes
        for supervised in (False, True)
    }


def render(
    summaries: Mapping[Tuple[str, str, bool], RunSummary]
) -> FaultToleranceResult:
    """The grid from the summaries of :func:`cells`."""
    return FaultToleranceResult(
        [FaultToleranceRow(*cell, summary) for cell, summary in summaries.items()]
    )
