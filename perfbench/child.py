"""One measured process of the benchmark.

``run.py`` starts this module in a fresh interpreter, so set-up is paid as
users pay it: imports, the behavior-closure digest, engine construction
and the first simulated tick.  ``--mode setup`` stops there.  ``--mode
measure`` then runs passes until ``--seconds`` have passed (at least one);
with ``--trace 1`` it instead runs one pass untraced, the same pass
traced, a traced ``jobs=1`` companion and the tick-phase profile.
Untraced, set-up and each pass record a host-speed factor
(``hostspeed.py``).  Everything measured is written to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import resource
import shutil
import statistics
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench.hostspeed import REFERENCE_PROBE_S, Sampler, probe
from perfbench.layers import (
    Tracer,
    evaluate_profiles,
    first_tick,
    layer_metrics,
    tick_phases,
)
from perfbench.workloads import JOBS, WORKLOADS, PassOutcome, Workload

#: Ticks per cell of the traced tick-phase profile.
PROFILE_TICKS = 3000
#: Seconds of host probing after set-up and before a worker-less run's
#: first pass; between its passes, this share of the previous pass's wall.
PROBE_FIRST_S = 0.2
PROBE_SHARE = 0.05


def cpu_seconds() -> float:
    """User + system CPU of this process and of every reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    largest_worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * largest_worker) / 1024.0  # ru_maxrss is in KiB


def timed_pass(
    workload: Workload,
    inputs: Any,
    work_dir: Path,
    jobs: int,
    tracer: Optional[Tracer] = None,
) -> Dict[str, Any]:
    """Run one pass under the wall clock and the CPU clock."""
    work_dir.mkdir(parents=True, exist_ok=True)
    cpu = cpu_seconds()
    start = time.perf_counter()
    try:
        outcome = workload.run_pass(inputs, work_dir, jobs, tracer)
    except Exception:  # a broken pass is a counted failure, not a crash
        outcome = PassOutcome(attempted=1, failed=1, problems=[traceback.format_exc()])
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu
    shutil.rmtree(work_dir, ignore_errors=True)
    workers = jobs if workload.workers else 0
    return {"wall_s": wall, "cpu_s": cpu, "workers": workers, **dataclasses.asdict(outcome)}


def traced_pass(
    workload: Workload, inputs: Any, run_dir: Path, jobs: int
) -> Tuple[Dict[str, Any], Tracer]:
    """:func:`timed_pass` with every layer wrapped in spans."""
    if workload.workers and jobs > 1 and multiprocessing.get_start_method() != "fork":
        # Pool workers only see the tracer's wrappers in a forked copy.
        raise SystemExit(
            "perfbench: the traced run needs pool workers started with 'fork', "
            f"not {multiprocessing.get_start_method()!r}"
        )
    tracer = Tracer(run_dir / f"spool-jobs{jobs}").install()
    try:
        result = timed_pass(workload, inputs, run_dir / f"traced-jobs{jobs}", jobs, tracer)
    finally:
        tracer.uninstall()
    return result, tracer


def measure(
    workload: Workload, seed: int, seconds: float, run_dir: Path
) -> List[Dict[str, Any]]:
    """Untraced passes, back to back, until ``seconds`` have passed.  Each
    records its ``host_factor``: how much faster the reference host is
    than this one was meanwhile, from the sampler for a pooled workload
    and from the probe loops just before and after it otherwise."""
    passes: List[Dict[str, Any]] = []
    probing = not workload.workers
    with (nullcontext() if probing else Sampler()) as sampler:
        before = probe(PROBE_FIRST_S) if probing else []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            index = len(passes)
            start = time.perf_counter()
            result = timed_pass(
                workload, workload.inputs(seed, index), run_dir / f"pass-{index}", JOBS
            )
            if probing:
                after = probe(PROBE_SHARE * result["wall_s"])
                result["host_factor"] = REFERENCE_PROBE_S / statistics.median(before + after)
                before = after
            else:
                result["span"] = (start, time.perf_counter())
            passes.append(result)
    for result in passes:
        if "span" in result:
            result["host_factor"] = sampler.factor(*result.pop("span"))
    return passes


def trace(
    workload: Workload, seed: int, run_dir: Path
) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """The per-layer breakdown of pass 0, plus the tracing overhead."""
    inputs = workload.inputs(seed, 0)
    plain = timed_pass(workload, inputs, run_dir / "untraced", JOBS)
    traced, tracer = traced_pass(workload, inputs, run_dir, JOBS)
    layers = layer_metrics(tracer.spans(), JOBS, traced["engine"])
    layers.update(traced["extra"])
    # Artefact times come from the untraced pass, like every end-to-end time.
    layers.update(
        {k: v for k, v in plain["extra"].items() if k.startswith("experiments.")}
    )
    passes = [plain, traced]
    if workload.workers:
        companion, _ = traced_pass(workload, inputs, run_dir, 1)
        passes.append(companion)
        layers["engine.speedup_jobs2"] = companion["wall_s"] / traced["wall_s"]
    layers["reliability.evaluate_s"] = evaluate_profiles(tracer.summaries)
    cells, ensemble = workload.tick_cells(seed)
    layers.update(tick_phases(cells, ensemble, PROFILE_TICKS))
    layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    return layers, passes


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="One measured benchmark process.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--spawned-at",
        type=float,
        required=True,
        help="time.monotonic() of the parent just before it started this process",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    args.run_dir.mkdir(parents=True, exist_ok=True)

    phases: Dict[str, float] = {}
    start = time.perf_counter()
    workload.import_modules()
    phases["setup.import_s"] = time.perf_counter() - start
    from repro.experiments.engine.spec import behavior_digest

    start = time.perf_counter()
    closure = behavior_digest()
    phases["setup.closure_digest_s"] = time.perf_counter() - start
    start = time.perf_counter()
    workload.build_engine(args.run_dir)
    phases["setup.engine_init_s"] = time.perf_counter() - start
    first_tick(*workload.first_cell, seed=args.seed)
    report: Dict[str, Any] = {
        "setup_s": time.monotonic() - args.spawned_at,
        "setup_phases": phases,
        "closure_digest": closure,
    }
    if not args.trace:
        report["setup_host_factor"] = REFERENCE_PROBE_S / statistics.median(
            probe(PROBE_FIRST_S)
        )
    if args.mode == "measure":
        if args.trace:
            report["layers"], report["passes"] = trace(workload, args.seed, args.run_dir)
        else:
            report["passes"] = measure(workload, args.seed, args.seconds, args.run_dir)
        report["peak_rss_mb"] = peak_rss_mb(workload.workers)
    args.out.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
