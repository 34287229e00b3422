"""Figure 6: impact of the temperature sampling interval.

For the tachyon application the paper sweeps the sensor sampling
interval from 1 to 10 seconds and reports four panels:

* **computed MTTF** — the cycling MTTF as computed *from the sampled
  trace*: coarser sampling misses cycles, so the computed MTTF inflates
  (an over-estimate relative to the 1 s ground truth);
* **autocorrelation** — consecutive samples decorrelate as the interval
  grows (silicon thermals are slow, so 1 s neighbours are similar);
* **cache misses** and **page faults** — management overhead counters,
  which fall as sampling gets rarer.

The first two panels are properties of the *measurement*, so they are
evaluated by decimating one reference thermal profile (the workload
under Linux, which exhibits the platform's natural thermal dynamics);
the overhead panels come from running the managed system at each
sampling interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.autocorrelation import autocorrelation, decimate
from repro.analysis.tables import format_table
from repro.config import (
    PlatformConfig,
    default_agent_config,
    default_reliability_config,
)
from repro.experiments.engine import JobSpec, workload_job
from repro.experiments.runner import RunSummary
from repro.reliability.mttf import cycling_mttf_years

#: Sampling intervals swept (seconds).
FIG6_INTERVALS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)


@dataclass
class Fig6Row:
    """Metrics of one sampling-interval setting."""

    sampling_interval_s: float
    computed_mttf_years: float
    autocorrelation: float
    cache_misses: float
    page_faults: float
    execution_time_s: float


@dataclass
class Fig6Result:
    """The sweep's rows."""

    rows: List[Fig6Row] = field(default_factory=list)

    def format_table(self) -> str:
        """Render the four panels as table columns."""
        headers = [
            "interval_s",
            "computed_MTTF_y",
            "autocorr",
            "cache_misses",
            "page_faults",
            "exec_s",
        ]
        rows = [
            [
                r.sampling_interval_s,
                r.computed_mttf_years,
                r.autocorrelation,
                r.cache_misses,
                r.page_faults,
                r.execution_time_s,
            ]
            for r in self.rows
        ]
        return format_table(
            headers,
            rows,
            title="Figure 6 — impact of the temperature sampling interval",
            float_format="{:.3g}",
        )


#: A cell's label: ``("reference" | "filtered", None)`` for the two Linux
#: reference runs, ``("proposed", interval)`` for the managed runs.
Cell = Tuple[str, Optional[float]]


def cells(
    iteration_scale: float = 1.0,
    seed: int = 1,
    intervals: Sequence[float] = FIG6_INTERVALS,
    app: str = "tachyon",
    dataset: str = "set 2",
) -> Dict[Cell, JobSpec]:
    """The plain and the filtered-sensor Linux reference runs, then one
    managed run per sampling interval.

    Two reference profiles are used: the plain one for the computed-MTTF
    panel (decimation loses cycles -> the MTTF inflates), and one read
    through a sensor with the DTS reading path's low-pass response for
    the autocorrelation panel — on the physical testbed it is that
    response that makes consecutive 1 s samples so similar.
    """
    filtered_platform = PlatformConfig(
        sensor=replace(PlatformConfig().sensor, ema_tau_s=4.0)
    )
    grid: Dict[Cell, JobSpec] = {
        ("reference", None): workload_job(
            app, dataset, "linux", seed=seed, iteration_scale=iteration_scale
        ),
        ("filtered", None): workload_job(
            app,
            dataset,
            "linux",
            seed=seed,
            platform=filtered_platform,
            iteration_scale=iteration_scale,
        ),
    }
    for interval in intervals:
        grid["proposed", interval] = workload_job(
            app,
            dataset,
            "proposed",
            seed=seed,
            agent_config=replace(
                default_agent_config(), sampling_interval_s=float(interval)
            ),
            iteration_scale=iteration_scale,
        )
    return grid


def render(summaries: Mapping[Cell, RunSummary]) -> Fig6Result:
    """The four panels from the summaries of :func:`cells`.

    The computed MTTF and autocorrelation are evaluated on the reference
    profile *decimated* to each interval — exactly what an
    implementation that only reads the sensors at that interval would
    compute — while the overhead counters come from managed runs whose
    controller samples at that interval.
    """
    reliability = default_reliability_config()
    profile = summaries["reference", None].profile
    filtered_profile = summaries["filtered", None].profile
    result = Fig6Result()
    for (role, interval), summary in summaries.items():
        if role != "proposed":
            continue
        factor = max(1, int(round(interval / profile.sample_period_s)))
        mttfs = []
        for core in range(profile.num_cores):
            series = decimate(profile.core_series(core), factor)
            if len(series) >= 4:
                duration = len(series) * interval
                mttfs.append(cycling_mttf_years(series, duration, reliability))
        # Autocorrelation: evaluated on the filtered-sensor reading of
        # the package-level (cross-core mean) temperature — the DTS
        # reading path's response is what correlates neighbouring
        # samples on the physical testbed.
        package_series = decimate(
            filtered_profile.as_array().mean(axis=1).tolist(), factor
        )
        autocorr = (
            autocorrelation(package_series) if len(package_series) >= 4 else 0.0
        )
        result.rows.append(
            Fig6Row(
                sampling_interval_s=float(interval),
                computed_mttf_years=float(np.min(mttfs)) if mttfs else float("nan"),
                autocorrelation=autocorr,
                cache_misses=summary.cache_misses,
                page_faults=summary.page_faults,
                execution_time_s=summary.execution_time_s,
            )
        )
    return result
