"""Layer spans and tick-phase timing for the benchmark's traced runs.

A :class:`Tracer` wraps the public entry point of each layer in a timing
span while it is installed and puts the originals back on
:meth:`Tracer.uninstall`; the package under test is never edited.  A span
records its name, start, end, the span that caused it and the counts
measured where the work happens (bytes shipped, cache hit, plan size).

Pool workers are forked from the traced process, so they inherit the
wrappers.  A worker cannot hand its spans back through the pool without
changing what the engine receives, so it appends each span to one
JSON-lines file per process in the spool directory; :meth:`Tracer.spans`
merges those files with the parent's in-memory spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pickle
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: The tracer whose wrappers are live; read by :func:`traced_execute_job`,
#: which the pool pickles by name and so cannot close over a tracer.
_ACTIVE: Optional["Tracer"] = None

#: Tick phases shared by the scalar and ensemble paths.
TICK_PHASES: Tuple[str, ...] = (
    "schedule", "app", "governor", "chip", "sensors", "manager", "advance",
)

#: The scalar chip splits its step into power and thermal halves; the
#: ensemble reports the batched step as one ``chip`` phase.
_PHASE_ALIASES = {"power": "chip", "thermal": "chip"}


class Tracer:
    """Spans around the layer entry points, for one traced pass."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        #: Every summary an engine batch returned in this process.
        self.summaries: List[Any] = []
        self._spans: List[Dict[str, Any]] = []
        self._stack: List[str] = []
        self._ids = itertools.count()
        self._originals: List[Tuple[Any, str, Any]] = []
        self.execute_job: Optional[Callable[..., Any]] = None

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """Time the enclosed block; the yielded dict takes extra counts."""
        record: Dict[str, Any] = dict(attrs)
        record.update(
            name=name,
            id=f"{os.getpid()}.{next(self._ids)}",
            parent=self._stack[-1] if self._stack else None,
            pid=os.getpid(),
        )
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if os.getpid() == self.pid:
                self._spans.append(record)
            else:
                spool = self.spool_dir / f"{os.getpid()}.jsonl"
                with spool.open("a", encoding="utf-8") as handle:
                    handle.write(json.dumps(record) + "\n")

    def spans(self) -> List[Dict[str, Any]]:
        """This process's spans plus every worker's spooled spans."""
        merged = list(self._spans)
        for spool in sorted(self.spool_dir.glob("*.jsonl")):
            with spool.open(encoding="utf-8") as handle:
                merged.extend(json.loads(line) for line in handle)
        return merged

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, wrapper: Callable) -> None:
        original = getattr(owner, attribute)
        self._originals.append((owner, attribute, original))
        setattr(owner, attribute, wrapper(original))

    def _timed(
        self,
        name: str,
        measure: Optional[Callable[[Sequence[Any], Any], Dict[str, Any]]] = None,
    ) -> Callable[[Callable], Callable]:
        """Wrapper factory: one span per call, plus ``measure``'s counts."""

        def wrap(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(name) as record:
                    result = original(*args, **kwargs)
                    if measure is not None:
                        record.update(measure(args, result))
                return result

            return wrapper

        return wrap

    def _engine_batch(self, args: Sequence[Any], results: Any) -> Dict[str, Any]:
        if os.getpid() == self.pid:
            self.summaries.extend(results)
        return {"jobs": args[0].jobs, "specs": len(results)}

    def install(self) -> "Tracer":
        """Wrap every layer entry point; one tracer may be live at a time."""
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("another tracer is already installed")
        from repro.checkpoint import runtime as checkpoint_runtime
        from repro.checkpoint.store import CheckpointStore
        from repro.ensemble import shard
        from repro.ensemble.engine import EnsembleSimulation
        from repro.experiments.engine import planner, scheduler
        from repro.experiments.engine.cache import ResultCache

        self._patch(
            scheduler.ExperimentEngine, "run",
            self._timed("engine.run", self._engine_batch),
        )
        self.execute_job = scheduler.execute_job
        self._patch(scheduler, "execute_job", lambda original: traced_execute_job)
        self._patch(
            ResultCache, "get",
            self._timed("cache.get", lambda args, hit: {"hit": hit is not None}),
        )
        self._patch(ResultCache, "put", self._timed("cache.put"))
        self._patch(
            planner, "plan_grid",
            self._timed(
                "planner.plan",
                lambda args, plan: {
                    "members": len(args[0]),
                    "groups": len(plan.groups),
                    "grouped": plan.batched_members,
                },
            ),
        )
        self._patch(
            shard, "run_sharded_ensemble_job",
            self._timed("shard.run", lambda args, report: {"shards": report.shards}),
        )
        self._patch(EnsembleSimulation, "__init__", self._timed("ensemble.prepare"))
        self._patch(EnsembleSimulation, "prepare", self._timed("ensemble.prepare"))
        self._patch(
            checkpoint_runtime, "capture_simulation",
            self._timed("checkpoint.capture"),
        )
        self._patch(
            CheckpointStore, "save",
            self._timed("checkpoint.save", lambda args, record: {"bytes": record.bytes}),
        )
        self._patch(
            checkpoint_runtime, "load_checkpoint_file",
            self._timed("checkpoint.restore"),
        )
        self._patch(
            checkpoint_runtime, "restore_simulation",
            self._timed("checkpoint.restore"),
        )
        _ACTIVE = self
        return self

    def uninstall(self) -> None:
        """Put every original entry point back."""
        global _ACTIVE
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()
        _ACTIVE = None


def traced_execute_job(spec: Any, *args: Any) -> Any:
    """``execute_job`` under a span; in a worker, also time the shipping.

    The pool pickles the job's arguments in the parent and the result in
    the worker, then unpickles each on the other side.  The round trip is
    repeated here, after the job, so ``ipc.*`` measures exactly what this
    job shipped without the engine's own bytes being touched.
    """
    tracer = _ACTIVE
    if tracer is None or tracer.execute_job is None:
        raise RuntimeError("traced_execute_job called with no tracer installed")
    members = getattr(spec, "members", None)
    with tracer.span(
        "engine.exec",
        kind="scalar" if members is None else "ensemble",
        members=1 if members is None else len(members),
    ):
        result = tracer.execute_job(spec, *args)
    if os.getpid() != tracer.pid:
        with tracer.span("ipc.roundtrip") as record:
            shipped = pickle.dumps((spec, args))
            pickle.loads(shipped)
            returned = pickle.dumps(result)
            pickle.loads(returned)
            record.update(spec_bytes=len(shipped), result_bytes=len(returned))
    return result


def maybe_span(tracer: Optional[Tracer], name: str) -> Any:
    """A span when tracing, else a no-op context."""
    return tracer.span(name) if tracer is not None else nullcontext()


def layer_metrics(
    spans: Sequence[Dict[str, Any]], jobs: int, engine_stats: Dict[str, int]
) -> Dict[str, float]:
    """Aggregate one traced pass's spans into the ``engine``/``ipc``/
    ``cache``/``planner``/``shard``/``ensemble``/``checkpoint`` metrics."""
    by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for record in spans:
        by_name[record["name"]].append(record)

    def busy(records: Sequence[Dict[str, Any]]) -> float:
        return sum(r["end"] - r["start"] for r in records)

    def added(name: str, key: str) -> float:
        return float(sum(r.get(key, 0) for r in by_name[name]))

    run_s = busy(by_name["engine.run"])
    exec_s = busy(by_name["engine.exec"])
    capacity = jobs * run_s
    gets = by_name["cache.get"]
    members = added("planner.plan", "members")
    shard_s = [
        r["end"] - r["start"] for r in by_name["engine.exec"] if r["kind"] == "ensemble"
    ]
    # Checkpoint overhead: capture + save inside the uninterrupted runs,
    # against the rest of those runs.
    checkpointed = by_name["resume.checkpointed_run"]
    inside = {r["id"] for r in checkpointed}
    snapshot_s = busy(
        [
            r
            for r in by_name["checkpoint.capture"] + by_name["checkpoint.save"]
            if r["parent"] in inside
        ]
    )
    simulate_s = busy(checkpointed) - snapshot_s
    return {
        "engine.batches": float(len(by_name["engine.run"])),
        "engine.jobs_submitted": float(engine_stats.get("submitted", 0)),
        "engine.jobs_executed": float(engine_stats.get("executed", 0)),
        "engine.deduplicated": float(engine_stats.get("deduplicated", 0)),
        "engine.retried": float(engine_stats.get("retried", 0)),
        "engine.failed": float(engine_stats.get("failed", 0)),
        "engine.run_s": run_s,
        "engine.exec_s": exec_s,
        "engine.idle_s": capacity - exec_s if capacity else 0.0,
        "engine.parallel_eff": exec_s / capacity if capacity else 0.0,
        "ipc.spec_bytes": added("ipc.roundtrip", "spec_bytes"),
        "ipc.result_bytes": added("ipc.roundtrip", "result_bytes"),
        "ipc.roundtrip_s": busy(by_name["ipc.roundtrip"]),
        "cache.get_s": busy(gets),
        "cache.put_s": busy(by_name["cache.put"]),
        "cache.hits": float(sum(1 for r in gets if r["hit"])),
        "cache.misses": float(sum(1 for r in gets if not r["hit"])),
        "planner.plan_s": busy(by_name["planner.plan"]),
        "planner.groups": added("planner.plan", "groups"),
        "planner.grouped_frac": (
            added("planner.plan", "grouped") / members if members else 0.0
        ),
        "shard.run_s": busy(by_name["shard.run"]),
        "shard.shards": added("shard.run", "shards"),
        "shard.imbalance": (
            max(shard_s) / (sum(shard_s) / len(shard_s)) if shard_s else 0.0
        ),
        "ensemble.prepare_s": busy(by_name["ensemble.prepare"]),
        "checkpoint.saves": float(len(by_name["checkpoint.save"])),
        "checkpoint.bytes": added("checkpoint.save", "bytes"),
        "checkpoint.capture_s": busy(by_name["checkpoint.capture"]),
        "checkpoint.save_s": busy(by_name["checkpoint.save"]),
        "checkpoint.restore_s": busy(by_name["checkpoint.restore"]),
        "checkpoint.overhead_frac": snapshot_s / simulate_s if simulate_s > 0 else 0.0,
    }


def evaluate_profiles(summaries: Sequence[Any]) -> float:
    """Seconds ``evaluate_profile`` spends on every core of every summary."""
    from repro.config import default_reliability_config
    from repro.reliability.mttf import evaluate_profile

    config = default_reliability_config()
    total = 0.0
    for summary in summaries:
        profile = summary.profile
        if profile is None:
            continue
        for core in range(profile.num_cores):
            series = profile.core_series(core)
            start = time.perf_counter()
            evaluate_profile(series, profile.sample_period_s, config)
            total += time.perf_counter() - start
    return total


def _build_simulation(app: str, policy: str, seed: int) -> Any:
    """One full-length cell, wired as the experiment runner wires it."""
    from repro.experiments.runner import build_manager
    from repro.soc.simulator import Simulation
    from repro.workloads.alpbench import make_application

    manager, governor, userspace_hz = build_manager(policy)
    return Simulation(
        [make_application(app, None, seed=seed)],
        governor=governor,
        userspace_frequency_hz=userspace_hz,
        manager=manager,
        seed=seed,
        max_time_s=None,
    )


def first_tick(app: str, policy: str, seed: int) -> None:
    """Build one cell and step it once (the end of set-up)."""
    sim = _build_simulation(app, policy, seed)
    sim.prepare()
    sim.step()


def tick_phases(
    cells: Sequence[Tuple[str, str, int]],
    ensemble: bool,
    ticks: int,
    warmup: int = 200,
) -> Dict[str, float]:
    """Host microseconds per trajectory-tick of each tick phase.

    ``cells`` are ``(app, policy, seed)``; the ensemble path steps them as
    one :class:`~repro.ensemble.engine.EnsembleSimulation`, the scalar
    path one after another.  On the scalar path ``advance`` is this
    loop's own run-loop check (is the application done?), the part of
    ``Simulation.run`` that the ensemble times as its ``advance`` phase.
    """
    from repro.perf.timer import SectionTimer

    timer = SectionTimer()
    if ensemble:
        from repro.ensemble.engine import EnsembleSimulation

        fleet = EnsembleSimulation([_build_simulation(*cell) for cell in cells])
        fleet.prepare()
        for _ in range(warmup):
            fleet.step()
            fleet.advance()
        fleet.attach_timer(timer)
        for _ in range(ticks):
            fleet.step()
            fleet.advance()
            if not fleet.active.all():
                break
        trajectory_ticks = timer.ticks * len(cells)
    else:
        for cell in cells:
            sim = _build_simulation(*cell)
            sim.prepare()
            for _ in range(warmup):
                sim.step()
            sim.attach_timer(timer)
            for _ in range(ticks):
                sim.step()
                mark = timer.now()
                done = sim.current_app.done
                timer.lap("advance", mark)
                if done:
                    break
        trajectory_ticks = timer.ticks
    seconds = {phase: 0.0 for phase in TICK_PHASES}
    for section, spent in timer.totals().items():
        phase = _PHASE_ALIASES.get(section, section)
        seconds[phase] = seconds.get(phase, 0.0) + spent
    metrics = {
        f"tick.{phase}_us": spent / trajectory_ticks * 1e6
        for phase, spent in seconds.items()
    }
    metrics["tick.total_us"] = sum(seconds.values()) / trajectory_ticks * 1e6
    return metrics
