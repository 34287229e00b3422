"""Monte Carlo reliability study: MTTF distributions over seed fleets.

The paper reports lifetime as a single MTTF figure per (application,
policy) cell.  A single seed, however, is one draw from the joint
distribution of workload phasing, fault-free thermal trajectories and
the agent's exploration schedule — so this study re-runs every cell
across a fleet of seeds (256 per cell at full scale) and reports the
*distribution* of the aging and thermal-cycling MTTF: mean, spread and
the 5th/50th/95th percentiles.

That is exactly the workload the vectorized ensemble engine exists
for: all replicates of all cells share one platform closure, so the
grid planner batches the entire study into one ensemble group — one
shard per worker process — and steps every trajectory in lockstep; it
does so by default (``repro montecarlo``, or inside ``repro all``'s
one batch).  Run scalar (``ExperimentEngine(ensemble=False)``), the
same grid is hundreds of sequential simulations; the results are
bit-identical either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.tables import format_table
from repro.experiments.engine import ExperimentEngine, JobSpec, workload_job
from repro.experiments.runner import RunSummary

#: The applications of the study (the paper's short- and mid-length
#: workloads — together they keep the full-scale fleet tractable).
MC_APPS: Tuple[str, ...] = ("tachyon", "mpeg_dec")

#: Policies contrasted per application: the Linux baseline against the
#: paper's RL approach.
MC_POLICIES: Tuple[str, ...] = ("linux", "proposed")

#: Seed replicates per (app, policy) cell at full scale.
MC_SEEDS = 256


def default_seed_count(iteration_scale: float) -> int:
    """Replicates per cell, scaled with the sweep's iteration scale.

    Full-scale sweeps use the full :data:`MC_SEEDS` fleet; reduced
    sweeps (tests, CI) shrink proportionally, never below 8 — enough to
    exercise every percentile column.
    """
    if iteration_scale >= 1.0:
        return MC_SEEDS
    return max(8, int(round(MC_SEEDS * iteration_scale)))


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending sequence."""
    if not sorted_values:
        return float("nan")
    position = q * (len(sorted_values) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    fraction = position - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


@dataclass
class MonteCarloRow:
    """Distribution statistics of one (application, policy) cell."""

    app: str
    policy: str
    seeds: int
    aging_mean_y: float
    aging_std_y: float
    aging_p5_y: float
    aging_p50_y: float
    aging_p95_y: float
    cycling_mean_y: float
    cycling_p50_y: float
    avg_temp_c: float
    exec_time_s: float

    @classmethod
    def from_summaries(
        cls, app: str, policy: str, summaries: Sequence[RunSummary]
    ) -> "MonteCarloRow":
        """Reduce one cell's replicate summaries to its statistics row."""
        aging = sorted(s.aging_mttf_years for s in summaries)
        cycling = sorted(s.cycling_mttf_years for s in summaries)
        count = len(summaries)
        aging_mean = sum(aging) / count
        # Population standard deviation: the fleet *is* the population
        # of interest, and ddof=0 keeps the figure defined at count=1.
        aging_std = math.sqrt(
            sum((value - aging_mean) ** 2 for value in aging) / count
        )
        return cls(
            app=app,
            policy=policy,
            seeds=count,
            aging_mean_y=aging_mean,
            aging_std_y=aging_std,
            aging_p5_y=_quantile(aging, 0.05),
            aging_p50_y=_quantile(aging, 0.50),
            aging_p95_y=_quantile(aging, 0.95),
            cycling_mean_y=sum(cycling) / count,
            cycling_p50_y=_quantile(cycling, 0.50),
            avg_temp_c=sum(s.average_temp_c for s in summaries) / count,
            exec_time_s=sum(s.execution_time_s for s in summaries) / count,
        )


@dataclass
class MonteCarloResult:
    """All cells of the Monte Carlo grid."""

    rows: List[MonteCarloRow] = field(default_factory=list)

    def row(self, app: str, policy: str) -> MonteCarloRow:
        """Look up one cell."""
        for row in self.rows:
            if row.app == app and row.policy == policy:
                return row
        raise KeyError(f"no row ({app}, {policy})")

    def format_table(self) -> str:
        """Render the distribution table."""
        headers = [
            "app",
            "policy",
            "seeds",
            "ageMTTF_mean",
            "ageMTTF_std",
            "ageMTTF_p5",
            "ageMTTF_p50",
            "ageMTTF_p95",
            "tcMTTF_mean",
            "tcMTTF_p50",
            "avgT",
            "exec_s",
        ]
        cells = [
            [
                row.app,
                row.policy,
                row.seeds,
                row.aging_mean_y,
                row.aging_std_y,
                row.aging_p5_y,
                row.aging_p50_y,
                row.aging_p95_y,
                row.cycling_mean_y,
                row.cycling_p50_y,
                row.avg_temp_c,
                row.exec_time_s,
            ]
            for row in self.rows
        ]
        return format_table(
            headers,
            cells,
            title=(
                "Monte Carlo — lifetime distributions across seed fleets "
                "(per app x policy)"
            ),
            float_format="{:.2f}",
        )


def cells(
    iteration_scale: float = 1.0,
    seed: int = 1,
    apps: Tuple[str, ...] = MC_APPS,
    policies: Tuple[str, ...] = MC_POLICIES,
    seeds: Optional[int] = None,
) -> Dict[Tuple[str, str, int], JobSpec]:
    """``seeds`` replicates (default: :func:`default_seed_count`) of
    every (app, policy) cell, labelled ``(app, policy, seed)`` with seeds
    ``seed .. seed + seeds - 1`` — the *same* range for every cell so
    each policy faces an identical workload draw."""
    count = seeds if seeds is not None else default_seed_count(iteration_scale)
    if count < 1:
        raise ValueError(f"seeds must be >= 1, got {count}")
    return {
        (app, policy, seed + offset): workload_job(
            app, None, policy, seed=seed + offset, iteration_scale=iteration_scale
        )
        for app in apps
        for policy in policies
        for offset in range(count)
    }


def render(summaries: Mapping[Tuple[str, str, int], RunSummary]) -> MonteCarloResult:
    """The distribution table from the summaries of :func:`cells`, one
    row per (app, policy) over its seeds in ascending order."""
    fleets: Dict[Tuple[str, str], List[RunSummary]] = {}
    for (app, policy, _), summary in summaries.items():
        fleets.setdefault((app, policy), []).append(summary)
    return MonteCarloResult(
        [
            MonteCarloRow.from_summaries(app, policy, fleet)
            for (app, policy), fleet in fleets.items()
        ]
    )
