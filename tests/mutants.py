"""The mutant table: edits the test suite is known to catch, kept live.

Each row names a source file, an exact anchor string in it, the text
that replaces the anchor, the test that must fail on the mutated tree,
and the change whose mutation check found it.  Together the rows are
the suite's mutation evidence: the differential harness and the memo
tests claim to catch these edits, and the claim is re-checked rather
than remembered.

``tests/test_mutants.py`` (tier-1, runs nothing) checks that every
anchor occurs exactly once in its file, so a refactor that moves an
anchor fails loudly and the table must follow it.  Running this module
applies the mutants::

    python tests/mutants.py            # every row
    python tests/mutants.py --row 3    # one row (0-based)

For each row it copies the tree to a temporary directory (the working
tree is never touched), requires the named test to pass there, applies
the mutant, and requires the test to *fail* (pytest exit code 1: a
collection error or an empty selection does not count).  It exits 1 if
any row is not killed.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent

HARNESS = "tests/test_differential.py::test_every_axis_gives_the_same_digest"
GOLDEN_FAULT_TOLERANCE = (
    "tests/test_golden_artefacts.py::test_artefact_matches_golden[fault_tolerance]"
)
MEMBER_VIEW = (
    "tests/test_member_view.py::TestActuationParity::"
    "test_supervised_read_backs_and_emergency_track_the_scalar"
)


@dataclass(frozen=True)
class Mutant:
    """One row of the table."""

    #: Source file, relative to the repository root.
    file: str
    #: Exact text that occurs once in ``file``.
    anchor: str
    #: What the mutant puts in its place.
    replacement: str
    #: Pytest node id that must fail on the mutated tree.
    test: str
    #: The change whose mutation check found the mutant (commit, subject).
    found_by: str


MUTANTS: Tuple[Mutant, ...] = (
    Mutant(
        file="src/repro/experiments/engine/scheduler.py",
        anchor=(
            "(self.job_timeout_s or 0.0)\n"
            '            * len(getattr(jobs[index], "members", (jobs[index],)))'
        ),
        replacement="(self.job_timeout_s or 0.0)",
        test=(
            "tests/test_engine_hardening.py::"
            "test_timeout_budget_is_per_cell_for_ensemble_shards"
        ),
        found_by="c374915 One sweep, one batch, routed through the ensemble",
    ),
    Mutant(
        file="src/repro/ensemble/managers.py",
        anchor="if state._actuation_supervisor is not None:",
        replacement="if False:",
        test=HARNESS,
        found_by="80f630f Scenario and supervised cells run in the ensemble",
    ),
    Mutant(
        file="src/repro/ensemble/member_view.py",
        anchor="self._engine.governors.restore_row(self._member, parked)",
        replacement="pass",
        test=MEMBER_VIEW,
        found_by="80f630f Scenario and supervised cells run in the ensemble",
    ),
    Mutant(
        file="src/repro/ensemble/governors.py",
        anchor="return abs(self.user_target[member] - target) < 1.0",
        replacement="return True",
        test=MEMBER_VIEW,
        found_by="80f630f Scenario and supervised cells run in the ensemble",
    ),
    Mutant(
        file="src/repro/sched/scheduler.py",
        anchor="self._ewma_weight = min(1.0, dt / 2.0)",
        replacement="self._ewma_weight = min(1.0, dt / 2.5)",
        test=HARNESS,
        found_by="837c96b The differential harness replaces EQV001",
    ),
    Mutant(
        file="src/repro/power/table.py",
        anchor="voltage_v=voltage,",
        replacement="voltage_v=voltage * 1.01,",
        test=HARNESS,
        found_by="837c96b The differential harness replaces EQV001",
    ),
    # Shared by both engines (an ensemble member runs the scalar agent),
    # so the harness compares it with itself: a unit test sees it.
    Mutant(
        file="src/repro/core/agent.py",
        anchor="action_stable = self._same_action_count >= 3",
        replacement="action_stable = self._same_action_count >= 2",
        test=(
            "tests/test_agent_convergence.py::TestIntraRestoreAndInterReset::"
            "test_inter_variation_resets_learning"
        ),
        found_by="837c96b The differential harness replaces EQV001",
    ),
    Mutant(
        file="src/repro/core/manager.py",
        anchor="app.throughput(window_s=self.config.decision_epoch_s)",
        replacement="app.throughput(window_s=2 * self.config.decision_epoch_s)",
        test=HARNESS,
        found_by="837c96b The differential harness replaces EQV001",
    ),
    # Shared by both engines, so the harness cannot see it either.
    Mutant(
        file="src/repro/core/qtable.py",
        anchor="self._exploration_snapshot = self._q.copy()",
        replacement="self._exploration_snapshot = self._q",
        test="tests/test_core_qtable.py::test_snapshot_restore_cycle",
        found_by="094f3e3 Stream the behavior-closure digest",
    ),
    Mutant(
        file="src/repro/analysis/lint/project.py",
        anchor="info = self._derive(name, data)",
        replacement="info = self.module(name)",
        test=(
            "tests/test_audit_model.py::TestClosure::"
            "test_digest_holds_one_tree_at_a_time"
        ),
        found_by="094f3e3 Stream the behavior-closure digest",
    ),
    # Shared by both engines: only a committed golden can see it.
    Mutant(
        file="src/repro/core/agent.py",
        anchor="alpha = max(self.schedule.alpha, EXPLOITATION_ALPHA_FLOOR)",
        replacement="alpha = self.schedule.alpha",
        test="tests/test_golden_artefacts.py::test_artefact_matches_golden[fig7]",
        found_by="c09c173 Make an artefact cells + render",
    ),
    Mutant(
        file="src/repro/analysis/lint/memo.py",
        anchor="{python_tag()}\\0{name}\\0",
        replacement="{python_tag()}\\0",
        test=(
            "tests/test_audit_model.py::TestFingerprintMemo::"
            "test_same_bytes_under_two_names_get_their_own_edges"
        ),
        found_by="Memoise closure-module fingerprints on disk by content",
    ),
    Mutant(
        file="src/repro/analysis/lint/project.py",
        anchor="entry = memo.put(key, MemoEntry(info.fingerprint, info.candidates))",
        replacement=(
            "entry = memo.put(key, MemoEntry(info.fingerprint, "
            "EdgeCandidates(imports=(), references=info.imports)))"
        ),
        test=(
            "tests/test_audit_model.py::TestFingerprintMemo::"
            "test_warm_memo_sees_a_new_module_the_listing_adds"
        ),
        found_by="Memoise closure-module fingerprints on disk by content",
    ),
    Mutant(
        file="src/repro/thermal/rc_model.py",
        anchor='header.encode("utf-8") + m_dt.tobytes()',
        replacement='header.encode("utf-8")',
        test="tests/test_audit_model.py::TestPropagatorMemo::test_two_ticks_share_one_file",
        found_by="Serve the RC propagator from the content memo",
    ),
    Mutant(
        file="src/repro/thermal/rc_model.py",
        anchor="if raw is not None and len(raw) == m_dt.nbytes:",
        replacement="if raw is not None:",
        test=(
            "tests/test_audit_model.py::TestPropagatorMemo::"
            "test_bits_are_expm_whatever_the_root_holds[wrong-length-entry]"
        ),
        found_by="Serve the RC propagator from the content memo",
    ),
    Mutant(
        file="src/repro/ensemble/sensors.py",
        anchor='STATE_FIELDS = ("_rngs", "_chunk", "_cursor", "_ema")',
        replacement='STATE_FIELDS = ("_rngs", "_chunk", "_cursor")',
        test=HARNESS,
        found_by="Route ensemble cells by platform alone",
    ),
    Mutant(
        file="src/repro/sched/scheduler.py",
        anchor="and frequencies_hz == memo.frequencies",
        replacement="and len(frequencies_hz) == len(memo.frequencies)",
        test=HARNESS,
        found_by="Replay quiet scalar ticks from the scheduler's last layout",
    ),
    Mutant(
        file="src/repro/sched/scheduler.py",
        anchor="# layout the memo replays.\n        self._memo = None",
        replacement="# layout the memo replays.\n        pass",
        test=(
            "tests/test_sched_fastpath.py::"
            "test_restore_into_a_ticked_scheduler_drops_its_memo"
        ),
        found_by="Replay quiet scalar ticks from the scheduler's last layout",
    ),
    # Shared by both engines, so the harness compares it with itself:
    # only a committed golden can see it.
    Mutant(
        file="src/repro/soc/simulator.py",
        anchor=(
            "        if self._fault_injector is not None:\n"
            "            readings = self._fault_injector.perturb_sensors(self.now, readings)\n"
            "        if self._sensor_supervisor is not None:\n"
            "            readings = self._sensor_supervisor.filter(self.now, readings)\n"
        ),
        replacement=(
            "        if self._sensor_supervisor is not None:\n"
            "            readings = self._sensor_supervisor.filter(self.now, readings)\n"
            "        if self._fault_injector is not None:\n"
            "            readings = self._fault_injector.perturb_sensors(self.now, readings)\n"
        ),
        test=GOLDEN_FAULT_TOLERANCE,
        found_by="One control surface for both engines",
    ),
)

_IGNORED = shutil.ignore_patterns(
    ".git", ".repro-cache", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"
)


def apply(mutant: Mutant, tree: Path) -> None:
    """Replace the anchor in ``tree``'s copy of the file (once, exactly)."""
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.anchor) != 1:
        raise ValueError(f"{mutant.file}: the anchor does not occur exactly once")
    path.write_text(text.replace(mutant.anchor, mutant.replacement), encoding="utf-8")


def run_test(tree: Path, test: str, cache: Path) -> int:
    """Exit code of pytest running ``test`` against the copy at ``tree``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["REPRO_CACHE_DIR"] = str(cache)
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test]
    return subprocess.run(
        command, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    ).returncode


def check(mutant: Mutant) -> Optional[str]:
    """``None`` if the row's test passes unmutated and fails mutated,
    else why not."""
    with tempfile.TemporaryDirectory(prefix="repro-mutant-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(REPO, tree, ignore=_IGNORED)
        cache = Path(scratch) / "cache"
        code = run_test(tree, mutant.test, cache)
        if code != 0:
            return f"fails unmutated (pytest exit {code})"
        apply(mutant, tree)
        shutil.rmtree(cache, ignore_errors=True)
        code = run_test(tree, mutant.test, cache)
        if code != 1:
            return f"survives the mutant (pytest exit {code})"
    return None


def row_index(text: str) -> int:
    """A ``--row`` value: an index into :data:`MUTANTS`."""
    try:
        index = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= index < len(MUTANTS):
        raise argparse.ArgumentTypeError(
            f"{index} is out of range: the table has rows 0 to {len(MUTANTS) - 1}"
        )
    return index


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--row", type=row_index, action="append", help="row index (repeatable)"
    )
    args = parser.parse_args(argv)
    rows = args.row if args.row else range(len(MUTANTS))
    escaped: List[int] = []
    start = time.monotonic()
    for index in rows:
        mutant = MUTANTS[index]
        began = time.monotonic()
        verdict = check(mutant)
        status = "killed" if verdict is None else verdict
        print(
            f"[{index}] {mutant.file}: {status} by {mutant.test} "
            f"({time.monotonic() - began:.1f} s)",
            flush=True,
        )
        if verdict is not None:
            escaped.append(index)
    print(
        f"{len(rows) - len(escaped)}/{len(rows)} mutants killed "
        f"in {time.monotonic() - start:.1f} s"
    )
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
