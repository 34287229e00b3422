"""``repro all``: regenerate every paper artefact in one parallel sweep.

Every experiment module splits into ``cells(iteration_scale, seed)``,
its grid as an ordered mapping from each cell's label to its
:class:`~repro.experiments.engine.JobSpec`, and ``render(summaries)``,
the result built from the same labels mapped to the cells' summaries.
A sweep concatenates the requested artefacts' cells into one
:meth:`~repro.experiments.engine.ExperimentEngine.run` batch — so cells
shared between artefacts (Table 3 and Figure 9 share every run) execute
once, the grid planner sees every artefact's cells at once, and one
worker pool serves the whole evaluation — then renders each artefact
from its own cells.  Each artefact's formatted table is written to
``results/<name>.txt`` — or,
for reduced-scale sweeps, into the cache tree (see
:func:`~repro.experiments.engine.cache.artifact_dir`) so scaled output
can never clobber the committed full-scale artefacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.experiments import (
    ablation,
    fault_tolerance,
    fig1_motivation,
    fig3_inter,
    fig45_phases,
    fig6_sampling,
    fig7_epoch,
    fig8_convergence,
    fig9_power,
    montecarlo,
    table2_intra,
    table3_exec_time,
)
from repro.experiments.engine.cache import artifact_dir
from repro.experiments.engine.scheduler import (
    EngineJobError,
    EngineStats,
    ExperimentEngine,
    JobFailure,
)
from repro.experiments.engine.spec import JobSpec, job_key
from repro.ioutil import atomic_write_text
from repro.obs.metrics import MetricsRegistry

#: Artefact name -> experiment module, in regeneration order.  Each
#: module provides ``cells(iteration_scale, seed)`` and
#: ``render(summaries)``; the artefact is ``render`` of
#: :meth:`~repro.experiments.engine.ExperimentEngine.run_grid` over
#: ``cells``.
ARTEFACTS: Dict[str, ModuleType] = {
    "fig1": fig1_motivation,
    "table2": table2_intra,
    "fig3": fig3_inter,
    "fig45": fig45_phases,
    "fig6": fig6_sampling,
    "fig7": fig7_epoch,
    "fig8": fig8_convergence,
    "table3": table3_exec_time,
    "fig9": fig9_power,
    "ablation": ablation,
    "fault_tolerance": fault_tolerance,
    "montecarlo": montecarlo,
}


@dataclass
class ArtefactRun:
    """Outcome of regenerating one artefact."""

    name: str
    text: str
    path: Path
    #: Time spent building the artefact's cells and rendering its table
    #: (its share of the shared batch is in ``SweepReport.batch_s``).
    elapsed_s: float


@dataclass
class SweepReport:
    """Everything one ``repro all`` invocation produced."""

    runs: List[ArtefactRun] = field(default_factory=list)
    stats: Optional[EngineStats] = None
    output_dir: Optional[Path] = None
    elapsed_s: float = 0.0
    #: Cells submitted in the sweep's one engine batch, and its time.
    batch_cells: int = 0
    batch_s: float = 0.0
    #: The engine's metrics registry, when one was attached.
    metrics: Optional[MetricsRegistry] = None
    #: Artefacts that failed, with their structured job failures.
    failed_artefacts: Dict[str, List[JobFailure]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every requested artefact regenerated successfully."""
        return not self.failed_artefacts

    def summary_lines(self) -> List[str]:
        """Human-readable closing summary for the CLI."""
        lines = [
            f"{run.name:<16} {run.elapsed_s:7.2f} s  -> {run.path}"
            for run in self.runs
        ]
        lines.append(
            f"{'(shared batch)':<16} {self.batch_s:7.2f} s  "
            f"{self.batch_cells} cells in one engine run"
        )
        stats = self.stats.as_dict() if self.stats is not None else {}
        lines.append(
            f"{len(self.runs)} artefacts in {self.elapsed_s:.2f} s; "
            f"jobs executed: {stats.get('executed', 0)}, "
            f"cache hits: {stats.get('cache_hits', 0)}, "
            f"cache misses: {stats.get('cache_misses', 0)}, "
            f"deduplicated: {stats.get('deduplicated', 0)}"
        )
        retried = stats.get("retried", 0)
        timeouts = stats.get("timeouts", 0)
        restarts = stats.get("pool_restarts", 0)
        if retried or timeouts or restarts:
            lines.append(
                f"recovered: {retried} retried attempt(s), "
                f"{timeouts} timeout(s), {restarts} pool restart(s)"
            )
        for name, job_failures in sorted(self.failed_artefacts.items()):
            lines.append(f"FAILED {name}: {len(job_failures)} job(s) gave up")
            for failure in job_failures:
                suffix = ", timed out" if failure.timed_out else ""
                lines.append(
                    f"  {failure.label} [{failure.key[:12]}] "
                    f"{failure.error_type}: {failure.message} "
                    f"({failure.attempts} attempts, "
                    f"{failure.duration_s:.1f} s{suffix})"
                )
        return lines


def regenerate_all(
    iteration_scale: float = 1.0,
    seed: int = 1,
    engine: Optional[ExperimentEngine] = None,
    artefacts: Optional[Sequence[str]] = None,
    results_dir: Optional[Path] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepReport:
    """Regenerate artefact tables through one engine batch.

    Parameters
    ----------
    iteration_scale:
        Application-length scale; anything other than 1.0 routes the
        output files into the cache tree instead of ``results_dir``.
    seed:
        Measurement seed shared by every artefact.
    engine:
        The engine that runs the sweep's one batch (serial and uncached
        when omitted).
    artefacts:
        Subset of artefact names to regenerate (all when omitted).
    results_dir:
        Where full-scale artefacts belong (default ``./results``).
    progress:
        Optional callback receiving one ``regenerating <name> ...`` line
        per artefact as its cells are built, and one ``FAILED <name>``
        line per artefact that lost a cell.
    """
    engine = engine if engine is not None else ExperimentEngine()
    names: Tuple[str, ...] = tuple(artefacts) if artefacts else tuple(ARTEFACTS)
    unknown = [name for name in names if name not in ARTEFACTS]
    if unknown:
        raise ValueError(
            f"unknown artefacts {unknown}; known: {', '.join(ARTEFACTS)}"
        )
    results_dir = results_dir if results_dir is not None else Path("results")
    output_dir = artifact_dir(iteration_scale, results_dir)
    output_dir.mkdir(parents=True, exist_ok=True)

    report = SweepReport(output_dir=output_dir)
    sweep_start = time.perf_counter()
    specs: List[JobSpec] = []
    grids: Dict[str, Dict[Hashable, JobSpec]] = {}
    cells_s: Dict[str, float] = {}
    for name in names:
        if progress is not None:
            progress(f"regenerating {name} ...")
        start = time.perf_counter()
        grids[name] = ARTEFACTS[name].cells(iteration_scale=iteration_scale, seed=seed)
        specs.extend(grids[name].values())
        cells_s[name] = time.perf_counter() - start

    batch_start = time.perf_counter()
    failures: List[JobFailure] = []
    try:
        summaries = engine.run(specs)
    except EngineJobError as error:
        # Exhausted cells must not abort the campaign: every artefact
        # whose cells all ran still renders.
        summaries, failures = error.results, error.failures
    report.batch_cells = len(specs)
    report.batch_s = time.perf_counter() - batch_start

    remaining = iter(summaries)
    for name in names:
        grid = grids[name]
        own = {label: next(remaining) for label in grid}
        lost = {job_key(grid[label]) for label in own if own[label] is None}
        if lost:
            failed = [failure for failure in failures if failure.key in lost]
            report.failed_artefacts[name] = failed
            if progress is not None:
                progress(f"FAILED {name}: {len(failed)} job(s) gave up")
            continue
        start = time.perf_counter()
        text = ARTEFACTS[name].render(own).format_table()
        path = output_dir / f"{name}.txt"
        atomic_write_text(path, text + "\n")
        report.runs.append(
            ArtefactRun(
                name=name,
                text=text,
                path=path,
                elapsed_s=cells_s[name] + time.perf_counter() - start,
            )
        )
        if engine.metrics is not None:
            engine.metrics.counter(
                "repro_artefacts_regenerated_total",
                "artefact tables written by repro all",
            ).inc()
    report.stats = engine.stats
    report.metrics = engine.metrics
    report.elapsed_s = time.perf_counter() - sweep_start
    return report
