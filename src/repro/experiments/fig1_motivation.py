"""Figure 1: the motivational experiment.

Two multi-threaded applications (face recognition and mpeg encoding) run
back-to-back twice: once under Linux's default thread placement, once
with a fixed user assignment (two cores with two threads each, two with
one — the ``paired_2211`` mapping).  The figure contrasts the resulting
thermal profiles; the reproduction returns both traces plus the
average-temperature / stress summary for each (application, placement)
combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.tables import format_table
from repro.experiments.engine import JobSpec, workload_job
from repro.experiments.runner import RunSummary
from repro.sched.affinity import mapping_by_name
from repro.thermal.profile import ThermalProfile

#: The two applications of the motivational experiment.
FIG1_APPS: Tuple[Tuple[str, str], ...] = (("face_rec", "img 1"), ("mpeg_enc", "seq 1"))

#: The two placement arms.
FIG1_PLACEMENTS: Tuple[str, ...] = ("linux_default", "user_paired_2211")

#: A cell's label: (application, dataset, placement).
Cell = Tuple[str, str, str]


@dataclass
class Fig1Cell:
    """One (application, placement) run."""

    app: str
    dataset: str
    placement: str
    summary: RunSummary

    @property
    def profile(self) -> Optional[ThermalProfile]:
        """The measured thermal trace (for plotting)."""
        return self.summary.profile


@dataclass
class Fig1Result:
    """All four cells of the motivational experiment."""

    cells: List[Fig1Cell] = field(default_factory=list)

    def cell(self, app: str, placement: str) -> Fig1Cell:
        """Look up one cell."""
        for c in self.cells:
            if c.app == app and c.placement == placement:
                return c
        raise KeyError(f"no cell for ({app}, {placement})")

    def format_table(self) -> str:
        """Render the summary statistics of the four traces."""
        headers = ["app", "placement", "avgT", "peakT", "stress", "tcMTTF", "ageMTTF"]
        rows = []
        for c in self.cells:
            s = c.summary
            rows.append(
                [
                    c.app,
                    c.placement,
                    s.average_temp_c,
                    s.peak_temp_c,
                    s.stress,
                    s.cycling_mttf_years,
                    s.aging_mttf_years,
                ]
            )
        return format_table(
            headers,
            rows,
            title="Figure 1 — thread-to-core affinity influences the thermal profile",
            float_format="{:.3g}",
        )


def cells(iteration_scale: float = 1.0, seed: int = 1) -> Dict[Cell, JobSpec]:
    """One untrained Linux run per (application, placement) cell."""
    return {
        (app, dataset, placement): workload_job(
            app,
            dataset,
            "linux",
            seed=seed,
            mapping=(
                mapping_by_name("paired_2211")
                if placement == "user_paired_2211"
                else None
            ),
            iteration_scale=iteration_scale,
            train_passes=0,
        )
        for app, dataset in FIG1_APPS
        for placement in FIG1_PLACEMENTS
    }


def render(summaries: Mapping[Cell, RunSummary]) -> Fig1Result:
    """The figure from the summaries of :func:`cells`."""
    return Fig1Result([Fig1Cell(*cell, summary) for cell, summary in summaries.items()])
