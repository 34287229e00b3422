"""Table 3: execution-time comparison.

Execution time (seconds) of the three Table 2 applications under Linux's
``ondemand`` and ``powersave`` governors, two fixed userspace
frequencies (2.4 GHz and 3.4 GHz), the Ge & Qiu baseline and the
proposed approach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.analysis.tables import format_table
from repro.experiments.engine import JobSpec, workload_job
from repro.experiments.runner import RunSummary

#: The policies of Table 3, in column order.
TABLE3_POLICIES: Tuple[str, ...] = (
    "linux",
    "powersave",
    "userspace@2.4",
    "userspace@3.4",
    "ge",
    "proposed",
)

#: The applications of Table 3 (first dataset of each).
TABLE3_APPS: Tuple[str, ...] = ("tachyon", "mpeg_dec", "mpeg_enc")


@dataclass
class Table3Row:
    """Execution time of one application across policies."""

    app: str
    dataset: str
    summaries: Dict[str, RunSummary]

    def execution_time(self, policy: str) -> float:
        """Execution time in seconds for one policy."""
        return self.summaries[policy].execution_time_s


@dataclass
class Table3Result:
    """All rows of the table."""

    rows: List[Table3Row] = field(default_factory=list)

    def format_table(self) -> str:
        """Render the table."""
        headers = ["app"] + list(TABLE3_POLICIES)
        rows = [
            [r.app] + [r.execution_time(p) for p in TABLE3_POLICIES]
            for r in self.rows
        ]
        return format_table(
            headers,
            rows,
            title="Table 3 — execution time (s) per policy",
            float_format="{:.0f}",
        )


def cells(
    iteration_scale: float = 1.0, seed: int = 1, apps: Tuple[str, ...] = TABLE3_APPS
) -> Dict[Tuple[str, str], JobSpec]:
    """One run per (application, policy) cell, on each app's first dataset."""
    return {
        (app, policy): workload_job(
            app, None, policy, seed=seed, iteration_scale=iteration_scale
        )
        for app in apps
        for policy in TABLE3_POLICIES
    }


def by_app(
    summaries: Mapping[Tuple[str, str], RunSummary]
) -> List[Tuple[str, str, Dict[str, RunSummary]]]:
    """Group the summaries of :func:`cells` per application:
    ``(app, dataset, {policy: summary})``."""
    rows: Dict[str, Dict[str, RunSummary]] = {}
    for (app, policy), summary in summaries.items():
        rows.setdefault(app, {})[policy] = summary
    return [(app, next(iter(row.values())).dataset, row) for app, row in rows.items()]


def render(summaries: Mapping[Tuple[str, str], RunSummary]) -> Table3Result:
    """The table from the summaries of :func:`cells`."""
    return Table3Result([Table3Row(*row) for row in by_app(summaries)])
