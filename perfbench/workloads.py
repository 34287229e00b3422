"""The benchmark's three workloads: what one pass runs and how it is checked.

Each workload is a closed loop driven from one process: the next pass
starts when the previous one has finished, and a pass's inputs are a pure
function of the benchmark seed and the pass index.

* ``sweep``: ``regenerate_all`` over every artefact, from an empty result
  cache and then warm, through the engine the CLI builds by default.  The
  seed shuffles the artefact order; the simulation seed stays 1 so the
  committed artefact digests apply, and no artefact's text may depend on
  the order it was regenerated in.
* ``fleet``: a seed-replicated grid through the ensemble-routed engine.
  The seed draws each cell's member seeds from a pool whose per-member
  summary digests are committed.
* ``resume``: checkpointed agent-bound runs, each resumed from a mid-run
  checkpoint; the resumed summary must equal the uninterrupted one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from perfbench.layers import Tracer, maybe_span

#: Worker processes of the pooled workloads; sized for a 2-CPU host.
JOBS = 2

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

Cell = Tuple[str, str, int]


def summary_digest(summary: Any) -> str:
    """SHA-256 over every field of a ``RunSummary``, floats bit-exact."""
    digest = hashlib.sha256()
    for summary_field in dataclasses.fields(summary):
        value = getattr(summary, summary_field.name)
        if summary_field.name == "profile":
            if value is not None:
                digest.update(
                    f"profile:{value.num_cores}:{value.sample_period_s!r};".encode()
                )
                digest.update(value.as_array().tobytes())
            continue
        digest.update(f"{summary_field.name}={_canonical(value)};".encode())
    return digest.hexdigest()


def _canonical(value: Any) -> str:
    if hasattr(value, "item"):  # a NumPy scalar
        value = value.item()
    if isinstance(value, dict):
        items = ",".join(f"{key}:{_canonical(item)}" for key, item in sorted(value.items()))
        return "{" + items + "}"
    if isinstance(value, float):
        return value.hex()
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    raise TypeError(f"cannot digest a {type(value).__name__}")


def text_digest(text: str) -> str:
    """SHA-256 of an artefact's text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(name: str) -> Dict[str, Any]:
    """One committed reference file (see ``reference.py``)."""
    with (REFERENCE_DIR / f"{name}.json").open(encoding="utf-8") as handle:
        return json.load(handle)


@contextmanager
def recorded_resumes() -> Iterator[List[Any]]:
    """Record what each ``resume_simulation`` call restored (``None``:
    nothing) while the block runs; the runner looks it up per call."""
    import repro.checkpoint as checkpoint

    original = checkpoint.resume_simulation
    restored: List[Any] = []

    def recorder(*args: Any, **kwargs: Any) -> Any:
        loaded = original(*args, **kwargs)
        restored.append(loaded)
        return loaded

    checkpoint.resume_simulation = recorder
    try:
        yield restored
    finally:
        checkpoint.resume_simulation = original


def tree_bytes(root: Path) -> int:
    """Bytes of every file under ``root``."""
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


@dataclass
class PassOutcome:
    """What one pass attempted and whether its outputs were right."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: ``EngineStats`` summed over the pass's engines.
    engine: Dict[str, int] = field(default_factory=dict)
    #: Layer numbers only this workload can take (artefact times, cache).
    extra: Dict[str, float] = field(default_factory=dict)

    def add_engine(self, stats: Any) -> None:
        for key, value in stats.as_dict().items():
            self.engine[key] = self.engine.get(key, 0) + value


class Workload:
    """One closed-loop workload; subclasses define a pass."""

    name = ""
    #: Pool processes a pass forks; scales the largest worker's peak RSS.
    workers = 0
    #: ``(app, policy)`` built and stepped once to end set-up.
    first_cell: Tuple[str, str] = ("tachyon", "linux")

    def import_modules(self) -> None:
        """Import the package modules a pass needs (timed as set-up)."""
        raise NotImplementedError

    def build_engine(self, run_dir: Path) -> Any:
        """Construct the engine, cache or store a pass runs through."""
        raise NotImplementedError

    def inputs(self, seed: int, index: int) -> Any:
        """The inputs of pass ``index``; a pure function of its arguments."""
        raise NotImplementedError

    def run_pass(
        self, inputs: Any, work_dir: Path, jobs: int, tracer: Optional[Tracer]
    ) -> PassOutcome:
        """Run one pass and check its outputs."""
        raise NotImplementedError

    def tick_cells(self, seed: int) -> Tuple[List[Cell], bool]:
        """Cells whose tick phases the traced run times, and whether they
        run on the ensemble path."""
        raise NotImplementedError


class Sweep(Workload):
    """``repro all`` at the golden floor, cold cache then warm."""

    name = "sweep"
    workers = JOBS
    #: The smallest scale at which every application clears the warm-up skip.
    SCALE = 0.12
    SEED = 1

    def import_modules(self) -> None:
        import repro.experiments.engine.sweep  # noqa: F401

    def _engine(self, cache_root: Path, jobs: int) -> Any:
        from repro.config import EngineConfig
        from repro.experiments.engine import ExperimentEngine

        return ExperimentEngine.from_config(
            EngineConfig(jobs=jobs, cache_dir=str(cache_root))
        )

    def build_engine(self, run_dir: Path) -> Any:
        return self._engine(run_dir / "setup-cache", JOBS)

    def inputs(self, seed: int, index: int) -> List[str]:
        from repro.experiments.engine.sweep import ARTEFACTS

        order = list(ARTEFACTS)
        random.Random(f"sweep/{seed}/{index}").shuffle(order)
        return order

    def run_pass(
        self, order: List[str], work_dir: Path, jobs: int, tracer: Optional[Tracer]
    ) -> PassOutcome:
        from repro.experiments.engine.sweep import regenerate_all

        reference = load_reference("sweep")
        outcome = PassOutcome()
        cache_root = work_dir / "cache"
        for phase in ("cold", "warm"):
            engine = self._engine(cache_root, jobs)
            starts: List[Tuple[str, int]] = []

            def progress(line: str, engine: Any = engine, starts: list = starts) -> None:
                if line.startswith("regenerating "):
                    starts.append((line.split()[1], engine.stats.submitted))

            with maybe_span(tracer, f"sweep.{phase}"):
                report = regenerate_all(
                    iteration_scale=self.SCALE,
                    seed=self.SEED,
                    engine=engine,
                    artefacts=order,
                    results_dir=work_dir / "results",
                    progress=progress,
                )
            stats = engine.stats
            ends = [start for _, start in starts[1:]] + [stats.submitted]
            jobs_of = {name: end - start for (name, start), end in zip(starts, ends)}
            outcome.attempted += stats.submitted
            outcome.failed += stats.failed
            outcome.add_engine(stats)
            texts = {run.name: run.text for run in report.runs}
            for name in order:
                if name in report.failed_artefacts:
                    failures = report.failed_artefacts[name]
                    outcome.problems.append(f"{phase} {name}: {len(failures)} job(s) failed")
                elif text_digest(texts[name]) != reference["artefacts"].get(name):
                    outcome.failed += max(1, jobs_of.get(name, 0))
                    outcome.problems.append(f"{phase} {name}: text differs from the reference")
            if phase == "cold":
                for run in report.runs:
                    outcome.extra[f"experiments.{run.name}_s"] = run.elapsed_s
                if tracer is not None:
                    outcome.extra["cache.bytes"] = float(tree_bytes(cache_root))
            else:
                if stats.executed:
                    outcome.failed += stats.executed
                    outcome.problems.append(f"warm rerun executed {stats.executed} job(s)")
                lookups = engine.cache.stats.hits + engine.cache.stats.misses
                outcome.extra["cache.hit_ratio"] = (
                    engine.cache.stats.hits / lookups if lookups else 0.0
                )
        return outcome

    def tick_cells(self, seed: int) -> Tuple[List[Cell], bool]:
        cells = [("tachyon", "linux"), ("mpeg_dec", "proposed"), ("face_rec", "proposed")]
        return [(app, policy, seed) for app, policy in cells], False


class Fleet(Workload):
    """A seed-replicated Monte-Carlo-style grid, ensemble-routed."""

    name = "fleet"
    workers = JOBS
    CELLS: Tuple[Tuple[str, str], ...] = (
        ("tachyon", "linux"),
        ("tachyon", "proposed"),
        ("mpeg_dec", "linux"),
        ("mpeg_dec", "proposed"),
    )
    SCALE = 0.2
    #: Member seeds whose scalar-routed summary digests are committed;
    #: each cell draws as many as the montecarlo artefact runs per cell
    #: at ``SCALE`` (``default_seed_count``: 51).
    SEED_POOL: Tuple[int, ...] = tuple(range(1, 65))

    def import_modules(self) -> None:
        import repro.ensemble.runner  # noqa: F401
        import repro.ensemble.shard  # noqa: F401
        import repro.experiments.engine  # noqa: F401

    def build_engine(self, run_dir: Path) -> Any:
        from repro.experiments.engine import ExperimentEngine

        return ExperimentEngine(jobs=JOBS, cache=None, ensemble=True)

    def inputs(self, seed: int, index: int) -> List[Cell]:
        from repro.experiments.montecarlo import default_seed_count

        per_cell = default_seed_count(self.SCALE)
        rng = random.Random(f"fleet/{seed}/{index}")
        return [
            (app, policy, member)
            for app, policy in self.CELLS
            for member in sorted(rng.sample(self.SEED_POOL, per_cell))
        ]

    def specs(self, members: Sequence[Cell]) -> List[Any]:
        from repro.experiments.engine import workload_job

        return [
            workload_job(app, None, policy, seed=seed, iteration_scale=self.SCALE)
            for app, policy, seed in members
        ]

    def run_pass(
        self, members: List[Cell], work_dir: Path, jobs: int, tracer: Optional[Tracer]
    ) -> PassOutcome:
        from repro.experiments.engine import ExperimentEngine
        from repro.experiments.engine.scheduler import EngineJobError

        reference = load_reference("fleet")
        outcome = PassOutcome(attempted=len(members))
        engine = ExperimentEngine(jobs=jobs, cache=None, ensemble=True)
        try:
            summaries = engine.run(self.specs(members))
        except EngineJobError as error:
            outcome.failed = len(members)
            outcome.problems.append(str(error))
            summaries = []
        outcome.add_engine(engine.stats)
        for (app, policy, seed), summary in zip(members, summaries):
            if summary_digest(summary) != reference["members"].get(f"{app}/{policy}/{seed}"):
                outcome.failed += 1
                outcome.problems.append(f"{app}/{policy}/{seed}: summary differs from the reference")
        return outcome

    def tick_cells(self, seed: int) -> Tuple[List[Cell], bool]:
        rng = random.Random(f"fleet-ticks/{seed}")
        return [
            (app, policy, rng.choice(self.SEED_POOL))
            for app, policy in self.CELLS
            for _ in range(8)
        ], True


class Resume(Workload):
    """Checkpointed agent-bound runs, each resumed from mid-run."""

    name = "resume"
    first_cell = ("face_rec", "proposed")
    CELLS: Tuple[Tuple[str, str], ...] = (("face_rec", "proposed"), ("mpeg_dec", "proposed"))
    SCALE = 0.5
    #: Checkpoint cadence in ticks.
    EVERY = 2000

    def import_modules(self) -> None:
        import repro.checkpoint  # noqa: F401
        import repro.experiments.runner  # noqa: F401

    def build_engine(self, run_dir: Path) -> Any:
        from repro.checkpoint import CheckpointStore

        return CheckpointStore(run_dir / "setup-checkpoints")

    def inputs(self, seed: int, index: int) -> List[Cell]:
        rng = random.Random(f"resume/{seed}/{index}")
        return [(app, policy, rng.randrange(1, 1_000_000)) for app, policy in self.CELLS]

    def run_pass(
        self, cells: List[Cell], work_dir: Path, jobs: int, tracer: Optional[Tracer]
    ) -> PassOutcome:
        from repro.checkpoint import CheckpointStore
        from repro.experiments.runner import run_workload

        outcome = PassOutcome()
        for app, policy, seed in cells:
            store_dir = work_dir / f"{app}-{seed}"
            kwargs = dict(
                app=app,
                policy=policy,
                seed=seed,
                iteration_scale=self.SCALE,
                checkpoint_every=self.EVERY,
                checkpoint_dir=str(store_dir),
            )
            outcome.attempted += 2
            try:
                with maybe_span(tracer, "resume.checkpointed_run"):
                    full = run_workload(**kwargs)
                entries = CheckpointStore(store_dir).entries()
                # With three or more, the middle entry is not the newest, so
                # a fallback to the newest cannot pass for the middle one.
                if len(entries) < 3:
                    raise RuntimeError(f"the run wrote {len(entries)} checkpoint(s), not >= 3")
                middle = entries[len(entries) // 2]
                with maybe_span(tracer, "resume.resumed_run"), recorded_resumes() as restored:
                    resumed = run_workload(resume=str(store_dir / middle.file), **kwargs)
            except Exception as error:  # a broken cell is counted; the pass goes on
                outcome.failed += 2
                outcome.problems.append(f"{app}/{policy}/{seed}: {type(error).__name__}: {error}")
                continue
            if tracer is not None:
                tracer.summaries.extend((full, resumed))
            # A resume that restores nothing, or falls back to another
            # checkpoint, still reproduces the uninterrupted summary; only
            # the checkpoint actually restored tells them apart.
            got = [(loaded.tick, loaded.digest) if loaded else None for loaded in restored]
            if got != [(middle.tick, middle.digest)]:
                outcome.failed += 1
                outcome.problems.append(
                    f"{app}/{policy}/{seed}: restored {got}, not tick {middle.tick}"
                )
            elif summary_digest(resumed) != summary_digest(full):
                outcome.failed += 1
                outcome.problems.append(f"{app}/{policy}/{seed}: resumed run differs")
        return outcome

    def tick_cells(self, seed: int) -> Tuple[List[Cell], bool]:
        return [(app, policy, seed) for app, policy in self.CELLS], False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (Sweep(), Fleet(), Resume())
}
