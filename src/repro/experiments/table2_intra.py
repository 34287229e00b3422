"""Table 2: intra-application results.

For each of {tachyon, mpeg_dec, mpeg_enc} x three datasets, run Linux
``ondemand``, the Ge & Qiu baseline and the proposed approach, and report
average temperature, peak temperature, thermal-cycling MTTF and
average-temperature (aging) MTTF — the exact columns of the paper's
Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.analysis.tables import format_table
from repro.experiments.engine import JobSpec, workload_job
from repro.experiments.runner import RunSummary
from repro.workloads.datasets import dataset_names_for

#: The applications and datasets of Table 2.
TABLE2_WORKLOADS: Tuple[str, ...] = ("tachyon", "mpeg_dec", "mpeg_enc")

#: The policies of Table 2, in column order.
TABLE2_POLICIES: Tuple[str, ...] = ("linux", "ge", "proposed")


@dataclass
class Table2Row:
    """One (application, dataset) row across all three policies."""

    app: str
    dataset: str
    summaries: Dict[str, RunSummary]

    def cells(self) -> List[object]:
        """Flatten to the column layout of the paper's Table 2."""
        row: List[object] = [self.app, self.dataset]
        for metric in (
            "average_temp_c",
            "peak_temp_c",
            "cycling_mttf_years",
            "aging_mttf_years",
        ):
            for policy in TABLE2_POLICIES:
                row.append(getattr(self.summaries[policy], metric))
        return row


@dataclass
class Table2Result:
    """All rows plus the aggregate improvement factors."""

    rows: List[Table2Row] = field(default_factory=list)

    def improvement(self, metric: str, over: str) -> float:
        """Mean ratio proposed/baseline across all rows for a metric."""
        ratios = [
            getattr(r.summaries["proposed"], metric)
            / getattr(r.summaries[over], metric)
            for r in self.rows
        ]
        return sum(ratios) / len(ratios)

    def format_table(self) -> str:
        """Render the full table."""
        headers = ["app", "data"]
        for metric in ("avgT", "peakT", "tcMTTF", "ageMTTF"):
            for policy in TABLE2_POLICIES:
                headers.append(f"{metric}:{policy[:4]}")
        return format_table(
            headers,
            [row.cells() for row in self.rows],
            title="Table 2 — intra-application thermal/MTTF comparison",
        )


def cells(
    iteration_scale: float = 1.0,
    seed: int = 1,
    workloads: Tuple[str, ...] = TABLE2_WORKLOADS,
) -> Dict[Tuple[str, str, str], JobSpec]:
    """One run per (application, dataset, policy) cell, row-major."""
    return {
        (app, dataset, policy): workload_job(
            app, dataset, policy, seed=seed, iteration_scale=iteration_scale
        )
        for app in workloads
        for dataset in dataset_names_for(app)
        for policy in TABLE2_POLICIES
    }


def render(summaries: Mapping[Tuple[str, str, str], RunSummary]) -> Table2Result:
    """The table from the summaries of :func:`cells`."""
    by_row: Dict[Tuple[str, str], Dict[str, RunSummary]] = {}
    for (app, dataset, policy), summary in summaries.items():
        by_row.setdefault((app, dataset), {})[policy] = summary
    return Table2Result(
        [Table2Row(app, dataset, row) for (app, dataset), row in by_row.items()]
    )
