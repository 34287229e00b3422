"""Regenerate the reference digests the benchmark checks its outputs against.

    PYTHONPATH=src python3 -m perfbench.reference

``reference/sweep.json`` holds the SHA-256 of every artefact text of the
``sweep`` workload (its scale, simulation seed 1).  ``reference/fleet.json``
holds the summary digest of every member of the ``fleet`` workload's seed
pool, produced through the scalar engine path, so the ensemble-routed
fleet is checked against the other execution path.  Regenerate them only
with a change that is meant to move results, and commit them with it.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Any, Dict

from perfbench.workloads import (
    JOBS,
    REFERENCE_DIR,
    Fleet,
    Sweep,
    summary_digest,
    text_digest,
)

SCRATCH = Path(__file__).resolve().parent.parent / ".bench_run" / "reference"


def write(name: str, document: Dict[str, Any]) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main() -> None:
    # Reduced-scale artefacts are written under the cache root.
    os.environ["REPRO_CACHE_DIR"] = str(SCRATCH)
    from repro.experiments.engine import ExperimentEngine, behavior_digest
    from repro.experiments.engine.sweep import regenerate_all

    try:
        report = regenerate_all(
            iteration_scale=Sweep.SCALE,
            seed=Sweep.SEED,
            engine=ExperimentEngine(jobs=JOBS),
            results_dir=SCRATCH / "results",
        )
        if not report.ok:
            raise SystemExit(f"artefacts failed: {sorted(report.failed_artefacts)}")
        write(
            "sweep",
            {
                "scale": Sweep.SCALE,
                "seed": Sweep.SEED,
                "closure_digest": behavior_digest(),
                "artefacts": {run.name: text_digest(run.text) for run in report.runs},
            },
        )
        fleet = Fleet()
        members = [
            (app, policy, seed) for app, policy in fleet.CELLS for seed in fleet.SEED_POOL
        ]
        summaries = ExperimentEngine(jobs=JOBS).run(fleet.specs(members))
        write(
            "fleet",
            {
                "scale": fleet.SCALE,
                "closure_digest": behavior_digest(),
                "members": {
                    f"{app}/{policy}/{seed}": summary_digest(summary)
                    for (app, policy, seed), summary in zip(members, summaries)
                },
            },
        )
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    main()
