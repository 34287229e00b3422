"""Figure 7: effect of the decision-epoch length.

For each application the paper sweeps the decision epoch (5-80 s) and
reports execution time and dynamic energy normalised to Linux (no
adaptation), plus the training time normalised to the 5 s setting.
Small epochs adapt frequently — more decision/migration overhead —
while large epochs stretch the learning transient.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.config import default_agent_config
from repro.experiments.engine import JobSpec, workload_job
from repro.experiments.runner import RunSummary

#: The applications of Figure 7.
FIG7_APPS: Tuple[Tuple[str, str], ...] = (
    ("tachyon", "set 2"),
    ("mpeg_dec", "clip 1"),
    ("mpeg_enc", "seq 1"),
)

#: Decision-epoch settings swept (seconds).
FIG7_EPOCHS: Tuple[float, ...] = (5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 80.0)


@dataclass
class Fig7Row:
    """One (application, epoch) point."""

    app: str
    dataset: str
    epoch_s: float
    normalized_execution_time: float
    normalized_energy: float
    training_time_s: float
    #: Training time normalised to the smallest epoch (filled at the end).
    normalized_training_time: float = 0.0


@dataclass
class Fig7Result:
    """All points of the sweep."""

    rows: List[Fig7Row] = field(default_factory=list)

    def series(self, app: str) -> List[Fig7Row]:
        """The epoch series of one application."""
        return [r for r in self.rows if r.app == app]

    def format_table(self) -> str:
        """Render all three panels."""
        headers = ["app", "epoch_s", "norm_exec", "norm_energy", "norm_training"]
        rows = [
            [
                r.app,
                r.epoch_s,
                r.normalized_execution_time,
                r.normalized_energy,
                r.normalized_training_time,
            ]
            for r in self.rows
        ]
        return format_table(
            headers, rows, title="Figure 7 — effect of the decision-epoch length"
        )


#: A cell's label: (application, dataset, decision epoch in seconds;
#: ``None`` for the application's Linux run).
Cell = Tuple[str, str, Optional[float]]


def cells(
    iteration_scale: float = 1.0,
    seed: int = 1,
    epochs: Sequence[float] = FIG7_EPOCHS,
    apps: Sequence[Tuple[str, str]] = FIG7_APPS,
) -> Dict[Cell, JobSpec]:
    """Per application: the Linux run, then one managed run per epoch."""
    grid: Dict[Cell, JobSpec] = {}
    for app, dataset in apps:
        grid[app, dataset, None] = workload_job(
            app, dataset, "linux", seed=seed, iteration_scale=iteration_scale
        )
        for epoch in epochs:
            grid[app, dataset, epoch] = workload_job(
                app,
                dataset,
                "proposed",
                seed=seed,
                agent_config=replace(default_agent_config(), decision_epoch_s=epoch),
                iteration_scale=iteration_scale,
            )
    return grid


def render(summaries: Mapping[Cell, RunSummary]) -> Fig7Result:
    """The three panels from the summaries of :func:`cells`; each
    application's training times are normalised to its first epoch."""
    result = Fig7Result()
    for (app, dataset, epoch), summary in summaries.items():
        if epoch is None:
            linux = summary
            continue
        # Training time: epochs until the agent enters pure
        # exploitation (the alpha schedule's natural horizon).
        training_epochs = summary.manager_stats.get("exploitation_entry_epoch", -1.0)
        if training_epochs <= 0.0:
            training_epochs = max(summary.manager_stats.get("epochs", 1.0), 1.0)
        result.rows.append(
            Fig7Row(
                app=app,
                dataset=dataset,
                epoch_s=epoch,
                normalized_execution_time=summary.execution_time_s
                / linux.execution_time_s,
                normalized_energy=summary.dynamic_energy_j / linux.dynamic_energy_j,
                training_time_s=training_epochs * epoch,
            )
        )
    reference: Dict[Tuple[str, str], float] = {}
    for row in result.rows:
        first = reference.setdefault((row.app, row.dataset), row.training_time_s)
        row.normalized_training_time = row.training_time_s / first
    return result
