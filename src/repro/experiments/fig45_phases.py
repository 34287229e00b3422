"""Figures 4 & 5: exploration vs exploitation thermal traces.

The paper plots the face-recognition temperature profile during the
learning agent's exploration phase (comparable to Linux ``ondemand``)
and during its exploitation phase (visibly cooler).  The reproduction
runs face_rec under Linux and under the proposed manager *without*
pre-training, then splits the managed trace at the end of the
exploration/learning transient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.analysis.tables import format_table
from repro.config import default_agent_config
from repro.experiments.engine import JobSpec, workload_job
from repro.experiments.runner import RunSummary
from repro.thermal.profile import ThermalProfile


@dataclass
class Fig45Result:
    """Traces and summary statistics of the two learning phases."""

    linux: RunSummary
    managed: RunSummary
    #: Trace of the learning transient (Figure 4's window).
    exploration_profile: ThermalProfile
    #: Trace after the transient (Figure 5's window).
    exploitation_profile: ThermalProfile
    split_s: float

    @property
    def exploration_avg_c(self) -> float:
        """Average temperature during exploration."""
        return self.exploration_profile.average_temp_c()

    @property
    def exploitation_avg_c(self) -> float:
        """Average temperature during exploitation."""
        return self.exploitation_profile.average_temp_c()

    def format_table(self) -> str:
        """Render the comparison of the three traces."""
        headers = ["trace", "avgT", "peakT", "duration_s"]
        rows = [
            [
                "linux ondemand",
                self.linux.average_temp_c,
                self.linux.peak_temp_c,
                self.linux.profile.duration_s,
            ],
            [
                "proposed: exploration",
                self.exploration_profile.average_temp_c(),
                self.exploration_profile.peak_temp_c(),
                self.exploration_profile.duration_s,
            ],
            [
                "proposed: exploitation",
                self.exploitation_profile.average_temp_c(),
                self.exploitation_profile.peak_temp_c(),
                self.exploitation_profile.duration_s,
            ],
        ]
        return format_table(
            headers,
            rows,
            title="Figures 4/5 — exploration vs exploitation phases (face_rec)",
        )


#: A cell's label: (policy, decision epoch in seconds; ``None`` for Linux).
Cell = Tuple[str, Optional[float]]


def cells(
    iteration_scale: float = 1.0, seed: int = 1, app: str = "face_rec"
) -> Dict[Cell, JobSpec]:
    """The Linux run and the managed run, both untrained.

    The managed run uses ``train_passes=0`` so its trace *starts* with
    the learning transient, exactly like the paper's Figure 4 window.
    """
    agent_config = default_agent_config()
    return {
        ("linux", None): workload_job(
            app,
            None,
            "linux",
            seed=seed,
            iteration_scale=iteration_scale,
            train_passes=0,
        ),
        ("proposed", agent_config.decision_epoch_s): workload_job(
            app,
            None,
            "proposed",
            seed=seed,
            iteration_scale=iteration_scale,
            train_passes=0,
            agent_config=agent_config,
        ),
    }


def render(summaries: Mapping[Cell, RunSummary]) -> Fig45Result:
    """Split the managed trace of :func:`cells` at the end of the
    learning transient."""
    ((_, linux), ((_, epoch_s), managed)) = summaries.items()
    # The exploration/learning transient lasts roughly until alpha has
    # decayed below the exploitation threshold; use the agent's recorded
    # last policy change, bounded to leave at least a third of the trace
    # for the exploitation window.
    profile = managed.profile
    epochs_to_exploit = managed.manager_stats.get("exploitation_entry_epoch", -1.0)
    if epochs_to_exploit <= 0.0:
        epochs_to_exploit = managed.manager_stats.get("last_policy_change_epoch", 0.0)
    split_s = min(
        max(epochs_to_exploit * epoch_s, 120.0),
        profile.duration_s * 2.0 / 3.0,
    )
    exploration = profile.window(0.0, split_s)
    exploitation = profile.window(split_s, profile.duration_s)
    return Fig45Result(
        linux=linux,
        managed=managed,
        exploration_profile=exploration,
        exploitation_profile=exploitation,
        split_s=split_s,
    )
