"""Figure 9: power and energy comparison.

Average dynamic power and total dynamic energy of the three Table 2
applications under the same six policies as Table 3 (the simulator's
energy meter plays the role of ``likwid-powermeter``).  The static
(leakage) energy is also reported: by lowering average temperature the
proposed approach reduces leakage, the 11-15% saving quoted at the end
of Section 6.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.analysis.tables import format_table
from repro.experiments.runner import RunSummary
from repro.experiments.table3_exec_time import (
    TABLE3_POLICIES,
    by_app,
    cells,
)


@dataclass
class Fig9Row:
    """Power/energy of one application across policies."""

    app: str
    dataset: str
    summaries: Dict[str, RunSummary]

    def dynamic_power_w(self, policy: str) -> float:
        """Average dynamic power in watts."""
        return self.summaries[policy].average_dynamic_power_w

    def dynamic_energy_j(self, policy: str) -> float:
        """Total dynamic energy in joules."""
        return self.summaries[policy].dynamic_energy_j

    def static_energy_j(self, policy: str) -> float:
        """Total leakage energy in joules."""
        return self.summaries[policy].static_energy_j


@dataclass
class Fig9Result:
    """Both panels of the figure."""

    rows: List[Fig9Row] = field(default_factory=list)

    def format_table(self) -> str:
        """Render both panels."""
        headers = ["app", "metric"] + list(TABLE3_POLICIES)
        rows = []
        for r in self.rows:
            rows.append(
                [r.app, "Pdyn_W"] + [r.dynamic_power_w(p) for p in TABLE3_POLICIES]
            )
            rows.append(
                [r.app, "Edyn_kJ"]
                + [r.dynamic_energy_j(p) / 1e3 for p in TABLE3_POLICIES]
            )
            rows.append(
                [r.app, "Estat_kJ"]
                + [r.static_energy_j(p) / 1e3 for p in TABLE3_POLICIES]
            )
        return format_table(
            headers,
            rows,
            title="Figure 9 — average dynamic power and energy per policy",
            float_format="{:.1f}",
        )


def render(summaries: Mapping[Tuple[str, str], RunSummary]) -> Fig9Result:
    """Both panels from the summaries of :func:`cells` — the Table 3
    grid, so with a shared batch or cache the two artefacts share every
    run."""
    return Fig9Result([Fig9Row(*row) for row in by_app(summaries)])
