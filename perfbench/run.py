"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; the package is imported from
``src/``.  Every run starts fresh interpreters (``perfbench/child.py``).
With ``--trace 0``: a few that only set up, for ``setup_s``, then one
that sets up and runs passes for ``--seconds``; end-to-end times are
scaled to a reference host speed (``hostspeed.py``).  With ``--trace 1``:
one that measures the per-layer breakdown.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the ``end_to_end`` metrics
of ``BENCHMARK.json``, or with ``--trace 1`` its ``per_layer`` metrics.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "fleet", "resume")
#: Set-up-only interpreters per untraced run; the measured one adds a sample.
SETUP_ONLY_SAMPLES = 2
#: Every run ends within this many seconds, or fails.
RUN_BUDGET_S = 175.0
#: One BLAS thread per measured process.  NumPy's OpenBLAS otherwise runs
#: a thread per CPU for the simulator's tiny matrix products, so a single
#: process already spins on every CPU and two pool workers oversubscribe
#: the host: the runs then time the scheduler, not the program.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: The layer numbers that explain the pool's scaling, printed as a table.
ENGINE_TABLE = (
    "engine.parallel_eff",
    "engine.idle_s",
    "engine.speedup_jobs2",
    "ipc.spec_bytes",
    "ipc.result_bytes",
    "ipc.roundtrip_s",
    "shard.imbalance",
    "trace.overhead_frac",
)


def run_child(
    args: argparse.Namespace, mode: str, run_dir: Path, deadline: float
) -> Dict[str, Any]:
    """Start ``perfbench.child`` in a fresh interpreter and read its report."""
    out = run_dir / f"{mode}-{time.monotonic_ns()}.json"
    env = dict(os.environ)
    # Every set-up pays the closure digest, as a user's first command does.
    env.pop("REPRO_CLOSURE_DIGEST", None)
    env.pop("REPRO_CLOSURE_ROOT", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["REPRO_CACHE_DIR"] = str(run_dir / "repro-cache")
    env.update(BLAS_THREADS)
    command = [
        sys.executable, "-m", "perfbench.child",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
        "--run-dir", str(run_dir),
        "--out", str(out),
        "--spawned-at", repr(time.monotonic()),
    ]
    process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"the {mode} process overran the {RUN_BUDGET_S:g} s budget")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0:
        raise RuntimeError(f"the {mode} process exited with code {code}")
    return json.loads(out.read_text(encoding="utf-8"))


def environment(closure: str) -> Dict[str, Any]:
    """What the numbers depend on besides the code."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            found = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
        except OSError:
            found = None
        if found is not None and found.returncode == 0:
            commit = found.stdout.strip()
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        # What the measured processes ran with, whatever the caller's shell says.
        **BLAS_THREADS,
        "git_commit": commit,
        "closure_digest": closure,
    }


def print_report(
    args: argparse.Namespace,
    env: Dict[str, Any],
    setups: List[Dict[str, Any]],
    passes: List[Dict[str, Any]],
    layers: Optional[Dict[str, float]],
) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(
        "setup_s raw (host factor): "
        + "  ".join(f"{r['setup_s']:.4f} ({r.get('setup_host_factor', 1.0):.3f})" for r in setups)
    )
    print(
        f"{'pass':>4} {'workers':>7} {'wall_s':>9} {'cpu_s':>9} "
        f"{'attempted':>9} {'failed':>6} {'host':>6}"
    )
    for index, result in enumerate(passes):
        host = f"{result['host_factor']:>6.3f}" if "host_factor" in result else f"{'-':>6}"
        print(
            f"{index:>4} {result['workers']:>7} {result['wall_s']:>9.3f} "
            f"{result['cpu_s']:>9.3f} {result['attempted']:>9} {result['failed']:>6} {host}"
        )
        for problem in result["problems"][:5]:
            print(f"     ! {problem}")
    if layers is not None:
        print("engine layers:")
        for name in ENGINE_TABLE:
            print(f"  {name:<28} {layers.get(name, 0.0):.6g}")
        print("all layers:")
        for name in sorted(layers):
            print(f"  {name:<28} {layers[name]:.6g}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_only = 0 if args.trace else SETUP_ONLY_SAMPLES
        setups = [run_child(args, "setup", run_dir, deadline) for _ in range(setup_only)]
        measured = run_child(args, "measure", run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setups.append(measured)
    passes = measured["passes"]
    attempted = sum(result["attempted"] for result in passes)
    failed = sum(result["failed"] for result in passes)
    if args.trace:
        values = {**measured["setup_phases"], **measured["layers"]}
        wanted = spec["per_layer"]
    else:
        # Host-adjusted: each time scaled by how much faster the reference
        # host is than this one was while it was taken (hostspeed.py).
        values = {
            "setup_s": statistics.median(r["setup_s"] * r["setup_host_factor"] for r in setups),
            "wall_s": statistics.median(r["wall_s"] * r["host_factor"] for r in passes),
            "cpu_s": statistics.median(r["cpu_s"] * r["host_factor"] for r in passes),
            "peak_rss_mb": measured["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
        wanted = spec["end_to_end"]
    print_report(
        args,
        environment(measured["closure_digest"]),
        setups,
        passes,
        values if args.trace else None,
    )
    # A layer the workload never enters reports 0 (see README.md).
    metrics = {
        metric["name"]: {"value": values.get(metric["name"], 0.0), "unit": metric["unit"]}
        for metric in wanted
    }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
