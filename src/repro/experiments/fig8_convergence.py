"""Figure 8: convergence vs state/action space size.

For the mpeg decoding application the paper sweeps the number of states
and actions (4..12 each) and reports the number of decision epochs the
learning algorithm needs to converge, annotated with the resulting
(cycling, aging) MTTF pair.  Larger tables take longer to fill but give
the agent finer control.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.config import default_agent_config
from repro.core.actions import build_action_space
from repro.experiments.engine import JobSpec, workload_job
from repro.experiments.runner import RunSummary

#: (num_states, (num_aging_bins, num_stress_bins)) design points.
STATE_GRID: Tuple[Tuple[int, Tuple[int, int]], ...] = (
    (4, (2, 2)),
    (8, (2, 4)),
    (12, (3, 4)),
)

#: Action-space sizes swept.
ACTION_GRID: Tuple[int, ...] = (4, 8, 12)


@dataclass
class Fig8Row:
    """One (states, actions) design point."""

    num_states: int
    num_actions: int
    iterations_to_converge: float
    cycling_mttf_years: float
    aging_mttf_years: float


@dataclass
class Fig8Result:
    """The full grid."""

    rows: List[Fig8Row] = field(default_factory=list)

    def format_table(self) -> str:
        """Render the convergence surface with MTTF annotations."""
        headers = ["states", "actions", "iterations", "tcMTTF", "ageMTTF"]
        rows = [
            [
                r.num_states,
                r.num_actions,
                r.iterations_to_converge,
                r.cycling_mttf_years,
                r.aging_mttf_years,
            ]
            for r in self.rows
        ]
        return format_table(
            headers,
            rows,
            title="Figure 8 — convergence vs number of states and actions (mpeg_dec)",
        )


#: A cell's label: (states, aging bins, stress bins, actions).
Cell = Tuple[int, int, int, int]


def cells(
    iteration_scale: float = 1.0,
    seed: int = 1,
    state_grid: Sequence[Tuple[int, Tuple[int, int]]] = STATE_GRID,
    action_grid: Sequence[int] = ACTION_GRID,
    app: str = "mpeg_dec",
    dataset: str = "clip 1",
) -> Dict[Cell, JobSpec]:
    """One managed run per (states, actions) design point."""
    return {
        (num_states, aging_bins, stress_bins, num_actions): workload_job(
            app,
            dataset,
            "proposed",
            seed=seed,
            agent_config=replace(
                default_agent_config(),
                num_aging_bins=aging_bins,
                num_stress_bins=stress_bins,
                num_actions=num_actions,
            ),
            action_space=build_action_space(num_actions),
            iteration_scale=iteration_scale,
        )
        for num_states, (aging_bins, stress_bins) in state_grid
        for num_actions in action_grid
    }


def render(summaries: Mapping[Cell, RunSummary]) -> Fig8Result:
    """The convergence surface from the summaries of :func:`cells`."""
    result = Fig8Result()
    for (num_states, _, _, num_actions), summary in summaries.items():
        # Convergence: the agent has both finished its schedule-driven
        # training (exploitation entry scales with the table size,
        # because coverage demands it) and stopped changing its
        # greedy policy.  A run that never reached exploitation is
        # censored at its full epoch count.
        entry = summary.manager_stats.get("exploitation_entry_epoch", -1.0)
        if entry <= 0.0:
            entry = summary.manager_stats.get("epochs", 0.0)
        iterations = max(
            entry, summary.manager_stats.get("last_policy_change_epoch", 0.0)
        )
        result.rows.append(
            Fig8Row(
                num_states=num_states,
                num_actions=num_actions,
                iterations_to_converge=iterations,
                cycling_mttf_years=summary.cycling_mttf_years,
                aging_mttf_years=summary.aging_mttf_years,
            )
        )
    return result
