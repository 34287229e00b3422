"""Command-line interface: regenerate any paper artefact from a shell.

::

    python -m repro all               # every artefact, serial
    python -m repro all --jobs 8      # every artefact, 8 worker processes
    python -m repro table2            # Table 2
    python -m repro fig3 --scale 0.5  # Figure 3 at half length
    python -m repro run tachyon --dataset "set 1" --policy proposed
    python -m repro run tachyon --profile   # + cProfile hot-spot dump
    python -m repro run tachyon --members 64   # seed grid, vectorized
    python -m repro list              # available artefacts & policies
    python -m repro run tachyon --checkpoint-every 500 --checkpoint-dir ckpts
    python -m repro run tachyon --checkpoint-dir ckpts --resume
    python -m repro ckpt verify ckpts # audit a checkpoint chain

Every artefact command prints the same console table its benchmark
prints.  Artefact commands run through the experiment engine
(:mod:`repro.experiments.engine`): a command submits all its cells —
``all``, every artefact's — as one batch, which the grid planner routes
through the vectorized ensemble engine where groups are large enough;
``--jobs N`` fans the batch out over ``N`` worker processes and
completed runs are memoised in a content-addressed cache under
``.repro-cache/`` (``--no-cache`` disables it).  Routing never changes
output bytes.  ``all`` additionally writes each table to
``results/<name>.txt``
— or, at reduced ``--scale``, into the cache tree so scaled output
never clobbers the committed full-scale artefacts.

``run --members N`` runs seeds ``seed..seed+N-1`` of one workload as
one engine batch; with the default ``--members 1`` the run stays in
this process, where tracing, metrics, profiling and ``--resume CKPT``
work.  Options are validated while parsing: a non-positive or
non-finite ``--scale``, a count below 1, an unknown ``all --only`` name,
a ``--resume CKPT`` that is not a file, ``--checkpoint-every``/
``--resume`` without ``--checkpoint-dir`` (only ``--resume CKPT``
implies the directory), or a flag that the chosen ``run`` path would
ignore exits 2 with a usage message before any work starts.  Host-time
benchmarking lives outside the package, in ``perfbench/run.py`` (see
``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from repro.config import EngineConfig
from repro.experiments.engine import ExperimentEngine, workload_job
from repro.experiments.engine.scheduler import EngineJobError
from repro.experiments.engine.sweep import ARTEFACTS, regenerate_all
from repro.experiments.runner import POLICIES, run_job
from repro.faults.presets import FAULT_MODES, default_supervisor_config, fault_config_for
from repro.workloads.alpbench import APP_NAMES


def _positive_float(text: str) -> float:
    """argparse ``type=``: a finite float > 0 (every ``--scale``)."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}"
        )
    return value


def _positive_int(text: str) -> int:
    """argparse ``type=``: an int >= 1 (job, member and tick counts)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _artefact_names(text: str) -> str:
    """argparse ``type=``: a comma-separated list of known artefacts
    (``all --only``); returned unchanged."""
    unknown = [name for name in text.split(",") if name not in ARTEFACTS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown artefact(s) {unknown}; known: {', '.join(ARTEFACTS)}"
        )
    return text


def _package_dir(text: str) -> Path:
    """argparse ``type=``: an existing directory (``repro lint DIR``)."""
    path = Path(text)
    if not path.is_dir():
        raise argparse.ArgumentTypeError(f"not an existing directory: {text!r}")
    return path


def _checkpoint_file(text: str) -> str:
    """argparse ``type=``: an existing file (``run --resume CKPT``);
    returned unchanged."""
    if not Path(text).is_file():
        raise argparse.ArgumentTypeError(f"not an existing checkpoint file: {text!r}")
    return text


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The engine and checkpoint flags of every command that runs a
    batch: each artefact command, ``all`` and ``run`` (whose single
    in-process run uses the checkpoint flags alone).  ``--jobs`` and
    ``--max-job-attempts`` default to ``None`` so the parser can tell
    them apart from an explicit value; the engine fills in 1 and 3."""
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes; all of a command's cells run as one batch "
        "over one pool, and an ensemble group is split into up to this "
        "many deterministic shards of at least 8 members (default 1: "
        "serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the content-addressed result cache under .repro-cache/ "
        "(the closure digest's fingerprint memo there is still used: its "
        "entries are keyed by file content and cannot go stale)",
    )
    parser.add_argument(
        "--job-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="kill and retry a job attempt running longer than this per "
        "cell: an ensemble shard of N members gets N times this (parallel "
        "mode only; default: no timeout)",
    )
    parser.add_argument(
        "--max-job-attempts",
        type=_positive_int,
        default=None,
        metavar="N",
        help="attempts per job before it is recorded as failed (default 3)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=None,
        metavar="TICKS",
        help="snapshot each job's full simulation state every TICKS ticks "
        "(an ensemble shard snapshots all its members at once)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="checkpoint store of a single run, or the root of the per-job "
        "stores of a batch",
    )
    parser.add_argument(
        "--resume",
        nargs="?",
        type=_checkpoint_file,
        const=True,
        default=False,
        metavar="CKPT",
        help="resume interrupted jobs from their newest valid checkpoint "
        "under --checkpoint-dir, or a single run from the checkpoint file "
        "CKPT (which implies its directory)",
    )


#: ``run`` flags only its single in-process run (``--members 1``) uses,
#: and those only an engine batch (``--members`` > 1) uses, by dest.
_SINGLE_RUN_FLAGS = {"trace": "--trace", "metrics": "--metrics", "profile": "--profile"}
_BATCH_FLAGS = {
    "jobs": "--jobs",
    "no_cache": "--no-cache",
    "job_timeout": "--job-timeout",
    "max_job_attempts": "--max-job-attempts",
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that also rejects checkpoint flags without a
    store directory and any flag the chosen path would ignore;
    subcommand parsers inherit the checks."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if not hasattr(namespace, "checkpoint_dir"):
            return namespace, extras  # a command without engine flags
        # ``--resume CKPT`` implies the directory holding CKPT.
        resume_file = isinstance(namespace.resume, str)
        if namespace.checkpoint_dir is None and not resume_file:
            if namespace.checkpoint_every is not None:
                self.error("--checkpoint-every needs --checkpoint-dir")
            if namespace.resume:
                self.error("--resume needs --checkpoint-dir")
        # Artefact commands and ``all`` have no ``members``: always a batch.
        members = getattr(namespace, "members", None)
        if members == 1:
            for dest, flag in _BATCH_FLAGS.items():
                if getattr(namespace, dest) not in (None, False):
                    self.error(f"{flag} needs --members > 1")
            return namespace, extras
        if resume_file:
            self.error("--resume CKPT needs a single run (run --members 1)")
        if members is not None:
            for dest, flag in _SINGLE_RUN_FLAGS.items():
                if getattr(namespace, dest):
                    self.error(f"{flag} needs --members 1")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = _Parser(
        prog="repro",
        description="Reproduce the DAC'14 RL thermal-management paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ARTEFACTS:
        artefact = sub.add_parser(name, help=f"regenerate {name}")
        artefact.add_argument(
            "--scale",
            type=_positive_float,
            default=1.0,
            help="application-length scale (default 1.0)",
        )
        artefact.add_argument("--seed", type=int, default=1)
        _add_engine_flags(artefact)

    everything = sub.add_parser(
        "all", help="regenerate every results/*.txt artefact in one sweep"
    )
    everything.add_argument(
        "--scale",
        type=_positive_float,
        default=1.0,
        help="application-length scale (non-1.0 output goes to the cache tree)",
    )
    everything.add_argument("--seed", type=int, default=1)
    everything.add_argument(
        "--only",
        type=_artefact_names,
        default=None,
        help="comma-separated subset of artefacts (default: all of them)",
    )
    everything.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the per-artefact tables (summary only)",
    )
    everything.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write sweep metrics to PATH (Prometheus text for .prom, "
        "JSON otherwise)",
    )
    _add_engine_flags(everything)

    run = sub.add_parser(
        "run",
        help="run one workload under one policy, or a seed grid of it "
        "(--members N)",
    )
    run.add_argument("app", choices=APP_NAMES)
    run.add_argument("--dataset", default=None)
    run.add_argument("--policy", default="proposed", choices=POLICIES)
    run.add_argument("--scale", type=_positive_float, default=1.0)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--members",
        type=_positive_int,
        default=1,
        metavar="N",
        help="seed-grid size: members get seeds seed..seed+N-1.  1 (the "
        "default) runs in this process; N > 1 runs one engine batch, "
        "vectorized in groups of 8 or more, and prints a per-seed table",
    )
    run.add_argument(
        "--max-time",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="simulated-time cap of each run (default: the workload limit)",
    )
    run.add_argument(
        "--faults",
        default="none",
        choices=FAULT_MODES,
        help="inject faults into the sensor/actuation paths",
    )
    run.add_argument(
        "--supervised",
        action="store_true",
        help="enable the sensor/actuation supervision layer",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the hottest functions",
    )
    run.add_argument(
        "--trace",
        action="store_true",
        help="record a schema-versioned JSONL event trace of the run",
    )
    run.add_argument(
        "--metrics",
        action="store_true",
        help="collect metrics and export them as JSON + Prometheus text",
    )
    run.add_argument(
        "--obs-dir",
        default="obs",
        help="directory for trace/metrics/result/manifest artefacts "
        "(default ./obs)",
    )
    _add_engine_flags(run)

    ckpt = sub.add_parser(
        "ckpt", help="inspect and maintain a checkpoint directory"
    )
    ckpt_sub = ckpt.add_subparsers(dest="ckpt_command", required=True)
    ckpt_list = ckpt_sub.add_parser(
        "list", help="list the manifest chain of a checkpoint directory"
    )
    ckpt_list.add_argument("dir", help="checkpoint directory")
    ckpt_verify = ckpt_sub.add_parser(
        "verify",
        help="re-hash every checkpoint and audit the manifest chain",
    )
    ckpt_verify.add_argument("dir", help="checkpoint directory")
    ckpt_prune = ckpt_sub.add_parser(
        "prune", help="drop all but the newest N valid checkpoints"
    )
    ckpt_prune.add_argument("dir", help="checkpoint directory")
    ckpt_prune.add_argument(
        "--keep",
        type=_positive_int,
        default=3,
        metavar="N",
        help="valid checkpoints to retain (default 3)",
    )

    trace = sub.add_parser("trace", help="inspect JSONL run traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help="validate a trace and recompute its headline statistics",
    )
    summarize.add_argument("path", help="trace.jsonl file to summarise")
    summarize.add_argument(
        "--check-result",
        default=None,
        metavar="RESULT_JSON",
        help="fail (exit 1) unless the recomputed headline matches this "
        "result.json's embedded trace summary",
    )

    lint = sub.add_parser(
        "lint",
        help="run the static analysis (module + project rules, closure digest)",
    )
    lint.add_argument(
        "root",
        nargs="?",
        type=_package_dir,
        default=None,
        metavar="DIR",
        help="package directory to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit the schema-versioned JSON report instead of text",
    )
    lint.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="CODE",
        default=None,
        help="run only this rule (repeatable; default: all rules)",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file (default: ./.repro-lint-baseline.json if present)",
    )
    lint.add_argument(
        "--fix-baseline",
        action="store_true",
        help="rewrite the baseline (findings, closure digest) and exit 0",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every registered rule and exit",
    )
    lint.add_argument(
        "--verbose",
        action="store_true",
        help="also list suppressed and baselined findings",
    )
    lint.add_argument(
        "--check-drift",
        action="store_true",
        help="also fail when the closure digest drifted from the baseline",
    )
    lint.add_argument(
        "--show-closure",
        action="store_true",
        help="print the per-module fingerprint table behind the digest",
    )
    lint.add_argument(
        "--explain",
        default=None,
        metavar="JOB_KEY",
        help="explain whether a cached entry (key or >=8-char prefix) is stale",
    )

    sub.add_parser("list", help="list artefacts, applications and policies")
    return parser


def _engine_from(args: argparse.Namespace) -> ExperimentEngine:
    """Build the engine an artefact command, ``all`` or ``run --members
    N`` asked for; a flag left out keeps :class:`EngineConfig`'s default."""
    settings = {
        "jobs": args.jobs,
        "job_timeout_s": args.job_timeout,
        "max_job_attempts": args.max_job_attempts,
        "checkpoint_every": args.checkpoint_every,
        "checkpoint_dir": args.checkpoint_dir,
    }
    return ExperimentEngine.from_config(
        EngineConfig(
            use_cache=not args.no_cache,
            resume=bool(args.resume),
            **{name: value for name, value in settings.items() if value is not None},
        )
    )


def _write_metrics(registry, path: Path) -> None:
    """Export a registry: Prometheus text for ``.prom``, JSON otherwise."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".prom":
        path.write_text(registry.render_prometheus())
    else:
        path.write_text(registry.to_json() + "\n")


def _command_all(args: argparse.Namespace) -> int:
    engine = _engine_from(args)
    if args.metrics is not None:
        from repro.obs import MetricsRegistry

        engine.metrics = MetricsRegistry()
    artefacts = args.only.split(",") if args.only else None
    report = regenerate_all(
        iteration_scale=args.scale,
        seed=args.seed,
        engine=engine,
        artefacts=artefacts,
        progress=print,
    )
    if not args.quiet:
        for run in report.runs:
            print(run.text)
            print()
    for line in report.summary_lines():
        print(line)
    if args.metrics is not None:
        path = Path(args.metrics)
        _write_metrics(engine.metrics, path)
        print(f"metrics written to {path}")
    manifest_path = _write_sweep_manifest(args, report, engine.jobs)
    print(f"manifest written to {manifest_path}")
    return 0 if report.ok else 1


def _write_sweep_manifest(args: argparse.Namespace, report, jobs: int) -> Path:
    """Bind the sweep's outputs — and its structured job failures — to
    the configuration that produced them."""
    from repro.obs import build_manifest

    sweep_config = {
        "command": "all",
        "scale": args.scale,
        "seed": args.seed,
        "only": args.only,
        "jobs": jobs,
    }
    run_record = dict(sweep_config)
    run_record["failures"] = {
        name: [failure.as_dict() for failure in job_failures]
        for name, job_failures in report.failed_artefacts.items()
    }
    if report.stats is not None:
        run_record["engine_stats"] = report.stats.as_dict()
    manifest = build_manifest(
        sweep_config, run=run_record, repo_dir=report.output_dir
    )
    for run in report.runs:
        manifest.add_artefact(run.path, report.output_dir)
    return manifest.write(report.output_dir)


def _command_run(args: argparse.Namespace) -> int:
    faults = fault_config_for(args.faults)
    supervisor = default_supervisor_config() if args.supervised else None
    specs = [
        workload_job(
            args.app,
            args.dataset,
            args.policy,
            seed=args.seed + offset,
            iteration_scale=args.scale,
            max_time_s=args.max_time,
            faults=faults,
            supervisor=supervisor,
        )
        for offset in range(args.members)
    ]
    if args.members > 1:
        return _run_members(args, specs)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    instrumentation = None
    registry = None
    tracer = None
    if args.trace or args.metrics:
        from repro.obs import Instrumentation, MetricsRegistry, TraceEmitter

        registry = MetricsRegistry() if args.metrics else None
        tracer = TraceEmitter() if args.trace else None
        instrumentation = Instrumentation(registry=registry, tracer=tracer)
    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir is None and isinstance(args.resume, str):
        # An explicit checkpoint file implies its directory's store.
        checkpoint_dir = str(Path(args.resume).parent)
    summary = run_job(
        specs[0], instrumentation, args.checkpoint_every, checkpoint_dir, args.resume
    )
    if profiler is not None:
        import pstats

        profiler.disable()
        print(f"profile of `repro run {args.app} --policy {args.policy}`:")
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative").print_stats(25)
        stats.sort_stats("tottime").print_stats(15)
    print(f"{summary.app} ({summary.dataset}) under {summary.policy}:")
    print(f"  average temperature : {summary.average_temp_c:8.1f} C")
    print(f"  peak temperature    : {summary.peak_temp_c:8.1f} C")
    print(f"  cycling MTTF        : {summary.cycling_mttf_years:8.2f} years")
    print(f"  aging MTTF          : {summary.aging_mttf_years:8.2f} years")
    print(f"  execution time      : {summary.execution_time_s:8.1f} s")
    print(f"  avg dynamic power   : {summary.average_dynamic_power_w:8.1f} W")
    print(f"  dynamic energy      : {summary.dynamic_energy_j / 1e3:8.1f} kJ")
    if args.faults != "none":
        injected = sum(
            summary.fault_stats.get(key, 0.0)
            for key in ("dropouts", "spikes", "stuck_reads",
                        "governor_failures", "governor_noops",
                        "mapping_failures", "mapping_noops")
        )
        print(f"  injected faults     : {injected:8.0f}")
    if args.supervised:
        stats = summary.supervisor_stats
        fixups = (
            stats.get("sensor_median_fallbacks", 0.0)
            + stats.get("sensor_hold_fallbacks", 0.0)
            + stats.get("sensor_failsafe_fallbacks", 0.0)
        )
        print(f"  supervisor fixups   : {fixups:8.0f}")
        print(f"  emergencies         : {stats.get('emergencies', 0.0):8.0f}")
    if instrumentation is not None:
        _write_run_observability(args, summary, registry, tracer)
    return 0


def _run_members(args: argparse.Namespace, specs) -> int:
    """``run --members N``: the seed grid as one engine batch, printed as
    a per-seed table plus the engine's execution line."""
    engine = _engine_from(args)
    failures = []
    try:
        summaries = engine.run(specs)
    except EngineJobError as error:
        summaries, failures = error.results, error.failures
    print(
        f"{'seed':>6} {'avg C':>8} {'peak C':>8} {'aging yr':>9} "
        f"{'cyc yr':>9} {'thr/s':>9} {'done':>5}"
    )
    completed = []
    for spec, summary in zip(specs, summaries):
        if summary is None:
            print(f"{spec.seed:6d} {'-- failed; see below --':>48}")
            continue
        completed.append(summary)
        print(
            f"{spec.seed:6d} {summary.average_temp_c:8.2f} "
            f"{summary.peak_temp_c:8.2f} {summary.aging_mttf_years:9.2f} "
            f"{summary.cycling_mttf_years:9.2f} {summary.throughput:9.4f} "
            f"{'yes' if summary.completed else 'no':>5}"
        )
    count = len(completed)
    if count:
        print(
            f"ensemble of {count}: "
            f"mean avg "
            f"{sum(s.average_temp_c for s in completed) / count:.2f} C, "
            f"mean aging MTTF "
            f"{sum(s.aging_mttf_years for s in completed) / count:.2f} yr"
        )
    stats = engine.stats
    print(
        f"{stats.cache_hits} member(s) from cache, "
        f"{stats.executed - stats.failed} executed; "
        f"recovered: {stats.retried} retried attempt(s), "
        f"{stats.timeouts} timeout(s), "
        f"{stats.pool_restarts} pool restart(s)"
    )
    for failure in failures:
        suffix = ", timed out" if failure.timed_out else ""
        print(
            f"FAILED {failure.label} [{failure.key[:12]}] "
            f"{failure.error_type}: {failure.message} "
            f"({failure.attempts} attempts, "
            f"{failure.duration_s:.1f} s{suffix})"
        )
    return 1 if failures else 0


def _write_run_observability(
    args: argparse.Namespace, summary, registry, tracer
) -> None:
    """Write the trace/metrics/result/manifest artefacts of one run."""
    from repro.obs import build_manifest, summarize_events, write_events

    obs_dir = Path(args.obs_dir)
    obs_dir.mkdir(parents=True, exist_ok=True)
    run_config = {
        "app": args.app,
        "dataset": args.dataset,
        "policy": args.policy,
        "seed": args.seed,
        "scale": args.scale,
        "faults": args.faults,
        "supervised": bool(args.supervised),
    }
    result_doc = {
        "run": run_config,
        "summary": {
            "average_temp_c": summary.average_temp_c,
            "peak_temp_c": summary.peak_temp_c,
            "aging_mttf_years": summary.aging_mttf_years,
            "cycling_mttf_years": summary.cycling_mttf_years,
            "num_cycles": summary.num_cycles,
            "execution_time_s": summary.execution_time_s,
            "throughput": summary.throughput,
            "completed": summary.completed,
        },
    }
    paths = []
    if tracer is not None:
        paths.append(write_events(tracer.events, obs_dir / "trace.jsonl"))
        # The headline the trace alone must reproduce (checked by
        # `repro trace summarize --check-result`).
        result_doc["trace"] = summarize_events(
            tracer.events, validate=False
        ).as_dict()
    if registry is not None:
        metrics_json = obs_dir / "metrics.json"
        metrics_json.write_text(registry.to_json() + "\n")
        metrics_prom = obs_dir / "metrics.prom"
        metrics_prom.write_text(registry.render_prometheus())
        paths.extend([metrics_json, metrics_prom])
    result_path = obs_dir / "result.json"
    result_path.write_text(
        json.dumps(result_doc, indent=2, sort_keys=True) + "\n"
    )
    paths.append(result_path)
    manifest = build_manifest(run_config, run=run_config, repo_dir=obs_dir)
    for path in paths:
        manifest.add_artefact(path, obs_dir)
    manifest_path = manifest.write(obs_dir)
    for path in paths + [manifest_path]:
        print(f"wrote {path}")


def _command_ckpt(args: argparse.Namespace) -> int:
    from repro.checkpoint import CheckpointStore

    store = CheckpointStore(args.dir)
    if args.ckpt_command == "list":
        entries = store.entries()
        if not entries:
            print(f"no checkpoint chain under {args.dir}")
            return 0
        print(f"{'tick':>10} {'digest':<12} {'bytes':>9}  file")
        for entry in entries:
            print(
                f"{entry.tick:>10} {entry.digest[:12]:<12} "
                f"{entry.bytes:>9}  {entry.file}"
            )
        return 0
    if args.ckpt_command == "verify":
        reports = store.verify()
        if not reports:
            print(f"nothing to verify under {args.dir}")
            return 0
        bad = 0
        print(f"{'tick':>10} {'digest':<12} {'status':<8} {'chain':<6} file")
        for report in reports:
            healthy = report["status"] == "ok" and report["chain_ok"]
            bad += 0 if healthy else 1
            tick = "?" if report["tick"] is None else report["tick"]
            print(
                f"{tick:>10} {report['digest'][:12]:<12} "
                f"{report['status']:<8} "
                f"{'ok' if report['chain_ok'] else 'BROKEN':<6} "
                f"{report['file']}"
            )
        print(
            f"{len(reports)} checkpoint(s), "
            f"{len(reports) - bad} healthy, {bad} problem(s)"
        )
        return 0 if bad == 0 else 1
    if args.ckpt_command == "prune":
        removed = store.prune(args.keep)
        for record in removed:
            print(f"removed {record.file} (tick {record.tick})")
        print(
            f"pruned {len(removed)} checkpoint(s), "
            f"kept {len(store.entries())}"
        )
        return 0
    raise AssertionError(f"unhandled ckpt command {args.ckpt_command!r}")


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs import (
        TraceValidationError,
        format_summary,
        read_events,
        summarize_events,
    )

    try:
        summary = summarize_events(read_events(args.path), validate=True)
    except TraceValidationError as exc:
        print(f"invalid trace: {exc}")
        return 1
    print(format_summary(summary))
    if args.check_result is not None:
        document = json.loads(Path(args.check_result).read_text())
        recorded = document.get("trace")
        if recorded is None:
            print(f"{args.check_result} embeds no trace summary")
            return 1
        recomputed = summary.as_dict()
        mismatches = [
            key
            for key in recorded
            if recorded[key] != recomputed.get(key)
        ]
        if mismatches:
            for key in mismatches:
                print(
                    f"MISMATCH {key}: result.json has {recorded[key]!r}, "
                    f"trace gives {recomputed.get(key)!r}"
                )
            return 1
        print(f"trace matches {args.check_result}")
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import (
        BASELINE_FILENAME,
        Baseline,
        BaselineError,
        all_rule_classes,
        closure_digest,
        explain_job_key,
        lint_package,
        load_baseline,
        render_closure_table,
        render_human,
        render_json,
        save_baseline,
    )
    from repro.experiments.engine.cache import default_cache_root
    from repro.experiments.engine.spec import behavior_digest

    if args.list_rules:
        for code, cls in all_rule_classes().items():
            meta = cls.meta
            print(f"{code} [{meta.severity}] {meta.name}")
            print(f"    {meta.rationale}")
        return 0
    if args.explain:
        digest = closure_digest(args.root) if args.root else behavior_digest()
        print(explain_job_key(args.explain, default_cache_root(), digest))
        return 0
    baseline_path = Path(args.baseline) if args.baseline else Path(BASELINE_FILENAME)
    baseline = Baseline()
    if not args.fix_baseline and baseline_path.exists():
        try:
            baseline = load_baseline(baseline_path)
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        report = lint_package(args.root, rules=args.rules, baseline=baseline)
    except KeyError as exc:
        print(exc.args[0])
        return 2
    if args.fix_baseline:
        if report.closure is None:
            print(
                "error: a closure member does not parse; "
                "fix its PARSE finding before recording a baseline",
                file=sys.stderr,
            )
            return 1
        count = save_baseline(
            baseline_path,
            report.active,
            closure_digest=report.closure.digest,
        )
        print(
            f"baseline {baseline_path} rewritten: closure "
            f"{report.closure.digest[:16]}, {count} finding(s)"
        )
        return 0
    if args.show_closure:
        print(render_closure_table(report))
        return 0
    if args.json:
        print(render_json(report))
    else:
        print(render_human(report, verbose=args.verbose))
    return report.exit_code(check_drift=args.check_drift)


def _command_list() -> int:
    print("artefacts   :", ", ".join(ARTEFACTS))
    print("applications:", ", ".join(APP_NAMES))
    print("policies    :", ", ".join(POLICIES))
    print("fault modes :", ", ".join(FAULT_MODES))
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "ckpt":
        return _command_ckpt(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "lint":
        return _command_lint(args)
    if args.command == "all":
        return _command_all(args)
    artefact = ARTEFACTS[args.command]
    grid = artefact.cells(iteration_scale=args.scale, seed=args.seed)
    print(artefact.render(_engine_from(args).run_grid(grid)).format_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
