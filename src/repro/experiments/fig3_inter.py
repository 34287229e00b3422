"""Figure 3: inter-application results.

Six application sequences are executed back-to-back under Linux
``ondemand``, the *modified* Ge & Qiu baseline (explicit switch
notification) and the proposed approach (autonomous switch detection);
the figure plots the thermal-cycling MTTF of each policy normalised to
Linux.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.experiments.engine import JobSpec, scenario_job
from repro.experiments.runner import RunSummary
from repro.workloads.scenarios import INTER_APP_SCENARIOS, scenario_name

#: The policies of Figure 3, in bar order.
FIG3_POLICIES: Tuple[str, ...] = ("linux", "ge_modified", "proposed")


@dataclass
class Fig3Row:
    """One scenario's normalised cycling MTTFs."""

    scenario: Tuple[str, ...]
    summaries: Dict[str, RunSummary]

    @property
    def name(self) -> str:
        """The paper-style scenario label."""
        return scenario_name(self.scenario)

    def normalised(self, policy: str) -> float:
        """Cycling MTTF normalised to the Linux run."""
        base = self.summaries["linux"].cycling_mttf_years
        return self.summaries[policy].cycling_mttf_years / base

    @property
    def num_switches(self) -> int:
        """Application switches in the scenario."""
        return len(self.scenario) - 1


@dataclass
class Fig3Result:
    """All scenario rows."""

    rows: List[Fig3Row] = field(default_factory=list)

    def mean_improvement(self, policy: str) -> float:
        """Mean normalised cycling MTTF of a policy across scenarios."""
        return sum(r.normalised(policy) for r in self.rows) / len(self.rows)

    def format_table(self) -> str:
        """Render the figure's series as a table."""
        headers = ["scenario", "switches"] + [
            f"tcMTTF_norm:{p}" for p in FIG3_POLICIES
        ]
        rows = [
            [r.name, r.num_switches] + [r.normalised(p) for p in FIG3_POLICIES]
            for r in self.rows
        ]
        return format_table(
            headers,
            rows,
            title="Figure 3 — normalised thermal-cycling MTTF, inter-application",
        )


def cells(
    iteration_scale: float = 1.0,
    seed: int = 1,
    scenarios: Sequence[Tuple[str, ...]] = INTER_APP_SCENARIOS,
) -> Dict[Tuple[Tuple[str, ...], str], JobSpec]:
    """One run per (scenario, policy) cell, row-major."""
    return {
        (tuple(scenario), policy): scenario_job(
            scenario, policy, seed=seed, iteration_scale=iteration_scale
        )
        for scenario in scenarios
        for policy in FIG3_POLICIES
    }


def render(summaries: Mapping[Tuple[Tuple[str, ...], str], RunSummary]) -> Fig3Result:
    """The figure from the summaries of :func:`cells`."""
    by_scenario: Dict[Tuple[str, ...], Dict[str, RunSummary]] = {}
    for (scenario, policy), summary in summaries.items():
        by_scenario.setdefault(scenario, {})[policy] = summary
    return Fig3Result(
        [Fig3Row(scenario, row) for scenario, row in by_scenario.items()]
    )
