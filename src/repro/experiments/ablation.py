"""Ablation study of the proposed controller's design choices.

DESIGN.md calls out four mechanisms that differentiate the proposed
approach from prior RL thermal managers; this experiment removes them
one at a time and measures the damage on a representative workload mix:

* **no_decoupling** — the decision epoch equals the sampling interval
  (contribution 2 of the paper): each decision sees a single sample, so
  stress is invisible and aging is an instantaneous reading;
* **no_affinity** — the action space is DVFS-only (what Ge & Qiu can
  actuate), isolating the value of the thread-mapping dimension;
* **no_variation** — the moving-average inter/intra detection is
  disabled (thresholds pushed out of reach), so the agent never
  re-learns on an application switch;
* **full** — the complete proposed controller, for reference.

Each variant runs the intra-application workload trio plus one
inter-application scenario and reports cycling/aging MTTF.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.tables import format_table
from repro.config import AgentConfig, default_agent_config
from repro.core.actions import Action, ActionSpace
from repro.experiments.engine import JobSpec, scenario_job, workload_job
from repro.experiments.runner import RunSummary
from repro.units import ghz

#: Variant names in report order.
ABLATION_VARIANTS: Tuple[str, ...] = (
    "full",
    "no_decoupling",
    "no_affinity",
    "no_variation",
)

#: The intra-application workloads of the study.
ABLATION_WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("tachyon", "set 2"),
    ("mpeg_dec", "clip 1"),
)

#: The inter-application scenario of the study.
ABLATION_SCENARIO: Tuple[str, ...] = ("mpeg_dec", "tachyon")


def _dvfs_only_space() -> ActionSpace:
    """An action menu that only touches frequency (OS-default mapping)."""
    return ActionSpace(
        [
            Action("os_default", "ondemand"),
            Action("os_default", "userspace", ghz(2.4)),
            Action("os_default", "userspace", ghz(2.0)),
            Action("os_default", "powersave"),
            Action("os_default", "conservative"),
            Action("os_default", "userspace", ghz(3.4)),
        ]
    )


def variant_config(variant: str) -> Tuple[AgentConfig, Optional[ActionSpace]]:
    """Agent configuration + action space of an ablation variant."""
    base = default_agent_config()
    if variant == "full":
        return base, None
    if variant == "no_decoupling":
        return replace(base, decision_epoch_s=base.sampling_interval_s), None
    if variant == "no_affinity":
        return replace(base, num_actions=6), _dvfs_only_space()
    if variant == "no_variation":
        # Push the thresholds out of [0, 1]: no deviation ever triggers.
        return (
            replace(
                base,
                stress_ma_lower=9.0,
                stress_ma_upper=10.0,
                aging_ma_lower=9.0,
                aging_ma_upper=10.0,
            ),
            None,
        )
    raise KeyError(f"unknown ablation variant {variant!r}; known: {ABLATION_VARIANTS}")


@dataclass
class AblationRow:
    """One (workload, variant) measurement."""

    workload: str
    variant: str
    summary: RunSummary


@dataclass
class AblationResult:
    """All measurements of the study."""

    rows: List[AblationRow] = field(default_factory=list)

    def value(self, workload: str, variant: str, metric: str) -> float:
        """Look up one cell."""
        for row in self.rows:
            if row.workload == workload and row.variant == variant:
                return getattr(row.summary, metric)
        raise KeyError(f"no row for ({workload}, {variant})")

    def workloads(self) -> List[str]:
        """Distinct workload labels, in insertion order."""
        seen: List[str] = []
        for row in self.rows:
            if row.workload not in seen:
                seen.append(row.workload)
        return seen

    def variants(self) -> List[str]:
        """Distinct variant labels, in insertion order."""
        seen: List[str] = []
        for row in self.rows:
            if row.variant not in seen:
                seen.append(row.variant)
        return seen

    def format_table(self) -> str:
        """Render cycling/aging MTTF per workload and variant."""
        variants = self.variants()
        headers = ["workload", "metric"] + variants
        rows = []
        for workload in self.workloads():
            for metric, label in (
                ("cycling_mttf_years", "tcMTTF_y"),
                ("aging_mttf_years", "ageMTTF_y"),
            ):
                rows.append(
                    [workload, label]
                    + [self.value(workload, v, metric) for v in variants]
                )
        return format_table(
            headers, rows, title="Ablation — removing one design choice at a time"
        )


def cells(
    iteration_scale: float = 1.0,
    seed: int = 1,
    variants: Tuple[str, ...] = ABLATION_VARIANTS,
    workloads: Tuple[Tuple[str, str], ...] = ABLATION_WORKLOADS,
    scenario: Tuple[str, ...] = ABLATION_SCENARIO,
) -> Dict[Tuple[str, str], JobSpec]:
    """Per variant: one run per workload, then the scenario run, each
    labelled ``(workload, variant)``."""
    grid: Dict[Tuple[str, str], JobSpec] = {}
    for variant in variants:
        config, space = variant_config(variant)
        for app, dataset in workloads:
            grid[f"{app}:{dataset}", variant] = workload_job(
                app,
                dataset,
                "proposed",
                seed=seed,
                agent_config=config,
                action_space=space,
                iteration_scale=iteration_scale,
            )
        grid["-".join(scenario), variant] = scenario_job(
            scenario,
            "proposed",
            seed=seed,
            agent_config=config,
            iteration_scale=iteration_scale,
        )
    return grid


def render(summaries: Mapping[Tuple[str, str], RunSummary]) -> AblationResult:
    """The study from the summaries of :func:`cells`."""
    return AblationResult(
        [AblationRow(*cell, summary) for cell, summary in summaries.items()]
    )
