"""One differential harness: scalar ≡ ensemble ≡ sharded ≡ resumed ≡ instrumented.

Every number in the paper's tables comes from a simulated trajectory,
and the repo can produce one trajectory five ways.  This module checks
that all five give the same bytes.

A member is a job spec (:func:`member`).  Its reference outcome is
:func:`scalar`, its own ``Simulation.run()``, and every other way of
running it is an *axis* that must reproduce the reference's
:func:`digest`:

* ``ensemble`` — the members in one :class:`EnsembleSimulation` per
  effective platform;
* ``restored`` — that ensemble captured at a tick, restored into a
  fresh engine and run to the end (both in :func:`ensemble_axes`);
* ``sharded`` — the batch through the default (ensemble-routed)
  ``ExperimentEngine`` at a worker count, with the planner's member
  floor lowered to 1: planner, member shards, worker pool and the
  scalar leftovers;
* ``traced`` — ``run_workload``/``run_scenario`` instrumented and
  checkpointed every :data:`CHECKPOINT_EVERY` ticks (:func:`traced`);
* ``resumed`` — the same entry point instrumented again and resumed
  from the traced run's chain, truncated at a tick and damaged at a
  level (:func:`resumed`).  Its trace events and metric registry must
  equal the traced run's.

The runner entry points and the workers return summaries only, so the
last three axes compare the summary part of the digest.  The digest's
third part, the learning manager's final Q-table (:func:`learned`), is
compared on the two axes that keep their simulations: a learning-rate
change moves Q-values long before it flips a greedy action, so results
and summaries can agree while the tables differ.

:func:`check_every_axis` runs every axis, and the Hypothesis property
below drives it over random batches.  The per-axis suites
(``test_ensemble_equivalence``, ``test_checkpoint_resume``,
``test_obs_identity``) pin their corners with the one axis each is
named for.  Ensembles group members by platform alone, as the engine's
planner does, and members are built and summarised by the runner's own
:func:`build_simulation` and :func:`summarise`.  The sweep
layer, one scalar ``repro all`` reference sweep that every other engine
axis is compared with, is the session fixture ``sweeps`` in
``conftest.py``.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.checkpoint import CheckpointStore, serialize_checkpoint
from repro.config import FaultConfig, PlatformConfig, SupervisorConfig, default_agent_config
from repro.core.actions import build_action_space
from repro.ensemble.engine import EnsembleSimulation
from repro.experiments.engine import ExperimentEngine, planner
from repro.experiments.engine.spec import scenario_job, workload_job
from repro.experiments.engine.sweep import ARTEFACTS
from repro.experiments.runner import (
    build_manager,
    build_simulation,
    run_scenario,
    run_workload,
    summarise,
)
from repro.obs import Instrumentation, TraceEmitter
from repro.obs.metrics import MetricsRegistry
from repro.sched.affinity import AffinityMapping
from repro.soc.simulator import Simulation
from repro.thermal.profile import ThermalProfile

#: Run-layer iteration scale; most apps floor at 10 iterations per pass.
SCALE = 0.05

#: Iteration scales a batch mixes, so its members end at different ticks.
SCALES = (0.03, SCALE, 0.08)

#: Checkpoint cadence (ticks) of the traced and resumed runs.
CHECKPOINT_EVERY = 150

#: A ``max_time_s`` that freezes every app inside its training pass.
FREEZE_S = 12.0

#: No runner policy starts under this governor; the harness builds it.
CONSERVATIVE = "conservative"

#: The runner policies whose managers take an affinity mapping.
MAPPED_POLICIES = ("linux", "powersave", "performance")

FAULTS = FaultConfig(
    enabled=True,
    dropout_prob=0.02,
    spike_prob=0.02,
    stuck_prob=0.01,
    drift_rate_c_per_s=0.01,
    governor_fail_prob=0.05,
    governor_noop_prob=0.05,
    mapping_fail_prob=0.05,
    mapping_noop_prob=0.05,
    seed=99,
)

HALF = AffinityMapping("half", tuple(frozenset({0, 1}) for _ in range(6)))

SUPERVISED = SupervisorConfig(enabled=True)

#: Actuation faults heavy enough that supervised requests fail, retry
#: and run past the fault deadline into a thermal emergency.
ACTUATION_FAULTS = FaultConfig(
    enabled=True,
    governor_fail_prob=0.5,
    governor_noop_prob=0.4,
    mapping_fail_prob=0.5,
    mapping_noop_prob=0.4,
    seed=99,
)

#: Fig. 6's EMA-filtered sensor platform.
FILTERED = PlatformConfig(sensor=replace(PlatformConfig().sensor, ema_tau_s=4.0))

#: ``None``, the explicit default and :data:`FILTERED`.
PLATFORMS = (None, PlatformConfig(), FILTERED)

APPS = ("tachyon", "mpeg_dec", "mpeg_enc", "face_rec", "sphinx")
#: Two-app scenarios long enough to outlast the warm-up skip.
SCENARIOS = (("tachyon", "mpeg_dec"), ("mpeg_dec", "tachyon"), ("sphinx", "face_rec"))
POLICIES = ("linux", "powersave", "performance", "ge", "ge_modified", "proposed", CONSERVATIVE)
#: Checkpoint damage before resuming; ``ignored`` leaves the chain
#: intact and reruns with ``resume=False``.
DAMAGE = ("none", "newest", "all", "ignored")


def member(target, policy, seed=1, **fields):
    """One run-layer job: a workload, or a scenario when ``target`` is a pair.

    ``fields`` are :class:`JobSpec` fields.  Scenarios run at
    :data:`SCALE`, take no affinity mapping and never freeze: a frozen
    or shorter scenario has no measurement window.
    """
    if isinstance(target, tuple):
        for name in ("mapping", "max_time_s", "iteration_scale"):
            fields.pop(name, None)
        return scenario_job(target, policy, seed=seed, iteration_scale=SCALE, **fields)
    fields.setdefault("iteration_scale", SCALE)
    return workload_job(target, policy=policy, seed=seed, **fields)


def runner_runs(spec) -> bool:
    """Whether the runner's entry points run ``spec`` as :func:`build_sim` does.

    No runner policy starts under the conservative governor, and the
    runner hands an affinity mapping to the static policies' managers
    only.
    """
    return spec.policy != CONSERVATIVE and (
        spec.mapping is None or spec.policy in MAPPED_POLICIES
    )


def build_sim(spec, instrumentation=None) -> Simulation:
    """A member's unrun simulation.

    The runner's :func:`build_simulation` builds it when
    :func:`runner_runs`.  Otherwise the runner's applications and safety
    limit run under the conservative governor, or under a dynamic policy
    with the affinity mapping set on the simulation from the start.
    """
    if runner_runs(spec):
        return build_simulation(spec, instrumentation)
    base = build_simulation(replace(spec, policy="linux", mapping=None))
    manager, governor, userspace_hz = (
        (None, CONSERVATIVE, None) if spec.policy == CONSERVATIVE else build_manager(spec.policy)
    )
    return Simulation(
        base.applications,
        platform=spec.platform,
        governor=governor,
        userspace_frequency_hz=userspace_hz,
        manager=manager,
        mapping=spec.mapping,
        seed=spec.seed,
        max_time_s=base.max_time_s,
        faults=spec.faults,
        supervisor=spec.supervisor,
        instrumentation=instrumentation,
    )


def learned(sim):
    """A hash of the final Q-values and visit counts of ``sim``'s learning
    manager (the proposed agent's table, or Ge & Qiu's), or ``None`` for
    a member that learns nothing."""
    agent = getattr(sim.manager, "agent", None)
    table = agent.qtable if agent is not None else getattr(sim.manager, "_qtable", None)
    if table is None:
        return None
    return hashlib.sha256(table._q.tobytes() + table._visits.tobytes()).hexdigest()


def outcomes(specs, sims, results):
    """``(spec, (result, summary, learned))`` per member, summarised by the
    runner's :func:`summarise`.

    A single-pass member (``train_passes=0``), which keeps the ensemble
    suite's runs short, has no summary: most apps end such a pass inside
    the warm-up skip its measurement window drops.  It is compared by
    its result alone.
    """
    return [
        (spec, (
            result, summarise(spec, sim, result) if spec.train_passes else None, learned(sim),
        ))
        for spec, sim, result in zip(specs, sims, results)
    ]


def run_entry(spec, **hooks):
    """``spec``'s summary from ``run_workload`` or ``run_scenario``.

    ``hooks`` are the entry points' ``instrumentation`` and
    ``checkpoint_every``/``checkpoint_dir``/``resume`` keywords.
    """
    fields = dict(
        policy=spec.policy, seed=spec.seed, iteration_scale=spec.iteration_scale,
        agent_config=spec.agent_config, action_space=spec.action_space(),
        platform=spec.platform, faults=spec.faults, supervisor=spec.supervisor, **hooks,
    )
    if spec.max_time_s is not None:
        fields["max_time_s"] = spec.max_time_s
    if spec.kind == "scenario":
        return run_scenario(spec.apps, **fields)
    return run_workload(spec.app, spec.dataset, train_passes=spec.train_passes,
                        mapping=spec.mapping, **fields)


def scalar(spec, instrumentation=None):
    """The reference outcome ``(result, summary, learned)`` of one member:
    its own ``Simulation.run()``, summarised by the runner's
    :func:`summarise`."""
    sim = build_sim(spec, instrumentation)
    return outcomes([spec], [sim], [sim.run()])[0][1]


def unfilled(profile: ThermalProfile) -> np.ndarray:
    """The columns of ``profile``'s sample block past its last sample."""
    return profile._data[:, len(profile):]


def digest(result, summary, learned=None):
    """The canonical member digest: ``(result hash, cached summary bytes,
    learned)``, ``learned`` being the outcome's :func:`learned` hash.

    The hash covers every :class:`SimulationResult` field (profile
    samples, energy, perf counters, app records, time, completion,
    manager, fault and supervisor statistics); it is ``None`` for an
    outcome that carries no result.  The bytes are the pickle the result
    cache stores (``None`` without a summary).
    """
    summary_bytes = None if summary is None else pickle.dumps(summary)
    if result is None:
        return None, summary_bytes, learned
    perf, energy, profile = result.perf, result.energy, result.profile
    fields = (
        profile.num_cores, profile.sample_period_s, profile.samples.shape,
        energy.dynamic_j, energy.static_j, energy.elapsed_s,
        perf.executed_cycles, perf.cache_misses, perf.page_faults,
        perf.migrations, perf.sample_events, perf.decision_events,
        result.app_records, result.total_time_s, result.completed,
        sorted(result.manager_stats.items()), sorted(result.fault_stats.items()),
        sorted(result.supervisor_stats.items()),
    )
    sha = hashlib.sha256(np.ascontiguousarray(profile.samples).tobytes())
    sha.update(repr(fields).encode())
    return sha.hexdigest(), summary_bytes, learned


def assert_same_digests(reference, axes):
    """Every ``(spec, outcome)`` of every axis has its spec's reference digest.

    ``reference`` maps each spec to its :func:`scalar` outcome, and
    ``axes`` maps an axis name to its ``(spec, outcome)`` pairs.
    """
    want = {spec: digest(*outcome) for spec, outcome in reference.items()}
    for axis, pairs in axes.items():
        for spec, outcome in pairs:
            got = digest(*outcome)
            assert got[1] == want[spec][1], f"{axis} axis, {spec.label}: summary differs"
            assert got[0] in (None, want[spec][0]), f"{axis} axis, {spec.label}: result differs"
            assert got[2] in (None, want[spec][2]), f"{axis} axis, {spec.label}: Q-table differs"


def check_axes(batch, axes):
    """Assert ``axes`` reproduce ``batch``'s scalar digests; returns each
    distinct member's scalar outcome, so a caller can check what the
    batch exercised."""
    reference = {spec: scalar(spec) for spec in dict.fromkeys(batch)}
    assert_same_digests(reference, axes)
    return reference


def ensemble_axes(specs, tick=None):
    """The ``ensemble`` axis of a batch and, given a ``tick``, its
    ``restored`` axis: one :func:`platform_axes` per effective platform
    (``None`` runs on the default one)."""
    by_platform = {}
    for spec in specs:
        platform = spec.platform if spec.platform is not None else PlatformConfig()
        by_platform.setdefault(platform, []).append(spec)
    axes = {}
    for group in by_platform.values():
        for axis, pairs in platform_axes(group, tick).items():
            axes.setdefault(axis, []).extend(pairs)
    return axes


def platform_axes(specs, tick=None):
    """The ``ensemble`` axis of a batch on one platform and, given a
    ``tick``, its ``restored`` axis.

    The ensemble is then captured at ``tick`` on its way to the end, and
    the snapshot goes through the on-disk encoding into a fresh engine.
    """
    sims = [build_sim(spec) for spec in specs]
    straight = EnsembleSimulation(sims)
    if tick is None:
        return {"ensemble": outcomes(specs, sims, straight.run())}
    straight.run(max_ticks=tick)
    snapshot = serialize_checkpoint(straight.capture())
    axes = {"ensemble": outcomes(specs, sims, straight.run())}

    sims = [build_sim(spec) for spec in specs]
    resumed = EnsembleSimulation(sims)
    resumed.restore(json.loads(snapshot))
    assert serialize_checkpoint(resumed.capture()) == snapshot, "restore is not a round trip"
    axes["restored"] = outcomes(specs, sims, resumed.run())
    final = serialize_checkpoint(straight.capture())
    assert serialize_checkpoint(resumed.capture()) == final, "restored final state differs"
    return axes


def fresh_obs() -> Instrumentation:
    """A new instrumentation hook with a trace and a metric registry."""
    return Instrumentation(registry=MetricsRegistry(), tracer=TraceEmitter())


def traced(spec, chain_dir: Path):
    """The ``traced`` outcome of ``spec`` and its instrumentation: its
    runner entry point checkpoints every :data:`CHECKPOINT_EVERY` ticks
    into ``chain_dir``."""
    obs = fresh_obs()
    summary = run_entry(spec, instrumentation=obs,
                        checkpoint_every=CHECKPOINT_EVERY, checkpoint_dir=chain_dir)
    chain = CheckpointStore(chain_dir).entries()
    assert [entry.tick for entry in chain] == [
        CHECKPOINT_EVERY * (k + 1) for k in range(len(chain))
    ]
    return (None, summary, None), obs


def resumed(spec, chain_dir: Path, tick, damage, cut: Path):
    """The ``resumed`` outcome of ``spec`` from the chain in ``chain_dir``.

    ``cut`` receives what a process killed right after its last
    checkpoint at or before ``tick`` leaves on disk, damaged at the
    ``damage`` level; the entry point resumes from it (or, for
    ``ignored``, reruns over it with ``resume=False``).
    """
    kept = [entry for entry in CheckpointStore(chain_dir).entries() if entry.tick <= tick]
    cut.mkdir(parents=True)
    for entry in kept:
        shutil.copy(chain_dir / entry.file, cut / entry.file)
    CheckpointStore(cut)._write_chain(kept)
    damaged = {"newest": kept[-1:], "all": kept}.get(damage, [])
    for entry in damaged:
        data = (cut / entry.file).read_bytes()
        (cut / entry.file).write_bytes(data[: len(data) // 2])
    survivors = [entry.tick for entry in kept if entry not in damaged]
    latest = CheckpointStore(cut).latest_valid()
    assert (latest.tick if latest else None) == (survivors[-1] if survivors else None)
    obs = fresh_obs()
    summary = run_entry(spec, instrumentation=obs, checkpoint_every=CHECKPOINT_EVERY,
                        checkpoint_dir=cut, resume=damage != "ignored")
    return (None, summary, None), obs


def traced_and_resumed(spec, tick, damage, root: Path):
    """The ``traced`` and ``resumed`` outcomes of one member, whose
    trace events and metric registries must agree."""
    traced_outcome, first = traced(spec, root / "ref")
    resumed_outcome, second = resumed(spec, root / "ref", tick, damage, root / "cut")
    assert second.tracer.events == first.tracer.events, "resumed trace differs"
    assert second.registry.as_dict() == first.registry.as_dict()
    return traced_outcome, resumed_outcome


def check_every_axis(batch, tick, damage, jobs):
    """Assert every member of ``batch`` has one digest on every axis;
    returns each distinct member's scalar outcome."""
    axes = ensemble_axes(batch, tick)

    runnable = [spec for spec in batch if runner_runs(spec)]
    with pytest.MonkeyPatch.context() as mp:
        # A floor of 1 batches every member, however small the
        # example, so this axis always crosses the planner and shards.
        mp.setattr(planner, "MIN_GROUP", 1)
        summaries = ExperimentEngine(jobs=jobs, cache=None).run(runnable)
    axes["sharded"] = [(spec, (None, summary, None)) for spec, summary in zip(runnable, summaries)]
    axes["traced"], axes["resumed"] = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for index, spec in enumerate(dict.fromkeys(runnable)):
            outcome = traced_and_resumed(spec, tick, damage, Path(tmp) / str(index))
            axes["traced"].append((spec, outcome[0]))
            axes["resumed"].append((spec, outcome[1]))
    return check_axes(batch, axes)


#: Two scenarios, one supervised and faulted, between workloads; the
#: restore tick falls after each scenario's application switch.  The
#: last two members learn side by side on the batched control plane:
#: the default action menu, and a Fig. 8-sized one.
SCENARIO_BATCH = [
    member(("tachyon", "mpeg_dec"), "proposed", 2),
    member(("mpeg_dec", "tachyon"), "ge_modified", 3, faults=FAULTS, supervisor=SUPERVISED),
    member("tachyon", "linux", 1),
    member("mpeg_dec", "proposed", 4),
    member("mpeg_dec", "proposed", 5, agent_config=replace(default_agent_config(), num_actions=4),
           action_space=build_action_space(4)),
]
SCENARIO_TICK = 900

#: A supervised member that retries, engages and releases thermal
#: emergencies, beside its unsupervised twin (which the batched control
#: plane takes).  The restore tick falls inside an emergency, so the
#: snapshot carries the parked pre-emergency governor.
EMERGENCY_BATCH = [
    member("face_rec", "proposed", 1, faults=ACTUATION_FAULTS, supervisor=SUPERVISED),
    member("face_rec", "proposed", 1, faults=ACTUATION_FAULTS),
]
EMERGENCY_TICK = 803

#: A learning member long enough for its variation detector to open an
#: inter-application trigger, which only a deviation seen under a held
#: action can do (``action_stable`` in ``QLearningThermalAgent.decide``,
#: which the scalar manager and the batched control plane both call).
#: The random batches run too few decision epochs to reach it.
VARIATION_BATCH = [member("tachyon", "proposed", 4, iteration_scale=0.6)]
VARIATION_TICK = 4000

#: A learning member long enough to reach the exploitation phase: it
#: enters it at epoch 24 of 41 (tick 7,500).  The restore tick, and the
#: checkpoint the newest-damaged chain falls back to, fall after the
#: entry, so the exploration snapshot taken there is captured and
#: restored.  The random batches stop before exploitation.
EXPLOITATION_BATCH = [member("mpeg_dec", "proposed", 4, iteration_scale=0.5)]
EXPLOITATION_TICK = 9000

#: Fig. 6's filtered reference beside a supervised learning member on
#: its EMA-filtered platform, and a default-platform member: two
#: ensembles.  The restore tick falls after the first eval reading, so
#: the snapshot carries the batched low-pass state.
FILTERED_BATCH = [
    member("tachyon", "linux", 1, dataset="set 2", platform=FILTERED),
    member("mpeg_dec", "proposed", 2, platform=FILTERED, supervisor=SUPERVISED),
    member("tachyon", "proposed", 3),
]
FILTERED_TICK = 450


@settings(max_examples=4, deadline=None)
@given(
    batch=st.lists(
        st.builds(
            member,
            st.sampled_from(APPS + SCENARIOS),
            st.sampled_from(POLICIES),
            st.integers(min_value=0, max_value=60),
            iteration_scale=st.sampled_from(SCALES),
            faults=st.sampled_from([None, FAULTS]),
            mapping=st.sampled_from([None, HALF]),
            platform=st.sampled_from(PLATFORMS),
            supervisor=st.sampled_from([None, SUPERVISED]),
            max_time_s=st.sampled_from([None, FREEZE_S]),
        # A scenario runs through its runner only, which starts no
        # conservative governor.
        ).filter(lambda spec: spec.kind == "workload" or runner_runs(spec)),
        min_size=1,
        max_size=4,
    ),
    tick=st.integers(min_value=1, max_value=2000),
    damage=st.sampled_from(DAMAGE),
    jobs=st.sampled_from([1, 2]),
)
# Wide and in lockstep: more than 16 members place a thread in one
# column at once, the only way into BatchedScheduler._place_vec.
@example(batch=[member("tachyon", policy, 1) for policy in ("linux", "proposed")] * 12,
         tick=300, damage="all", jobs=2)
# A mapping that leaves threads a choice of cores: face_rec under HALF
# idle-pulls between its two allowed cores, so mapped members always
# reach BatchedScheduler._pull_pairs (the random draws rarely do).
@example(batch=[member("face_rec", "linux", seed, mapping=HALF) for seed in (1, 2)],
         tick=600, damage="newest", jobs=1)
@example(batch=SCENARIO_BATCH, tick=SCENARIO_TICK, damage="newest", jobs=2)
@example(batch=EMERGENCY_BATCH, tick=EMERGENCY_TICK, damage="none", jobs=1)
@example(batch=VARIATION_BATCH, tick=VARIATION_TICK, damage="newest", jobs=1)
@example(batch=EXPLOITATION_BATCH, tick=EXPLOITATION_TICK, damage="newest", jobs=1)
@example(batch=FILTERED_BATCH, tick=FILTERED_TICK, damage="newest", jobs=2)
def test_every_axis_gives_the_same_digest(batch, tick, damage, jobs):
    reference = check_every_axis(batch, tick, damage, jobs)
    if batch == SCENARIO_BATCH:
        dt = PlatformConfig().dt
        for spec in batch:
            if spec.kind == "scenario":
                records = reference[spec][0].app_records
                assert records[0].end_s < tick * dt < records[-1].end_s, spec.label
    if batch == EMERGENCY_BATCH:
        stats = reference[batch[0]][0].supervisor_stats
        assert stats["actuation_retries"] > 0
        assert stats["emergencies"] > 0 and not stats["emergency_active"]
        parked = EnsembleSimulation([build_sim(batch[0])])
        parked.run(max_ticks=tick)
        assert parked.members[0]._pre_emergency_governor is not None
    if batch == VARIATION_BATCH:
        assert reference[batch[0]][0].manager_stats["inter_events"] > 0
    if batch == EXPLOITATION_BATCH:
        assert reference[batch[0]][0].manager_stats["exploitation_entry_epoch"] >= 0
        assert reference[batch[0]][2] is not None  # the Q-tables were compared
        held = build_sim(batch[0])
        EnsembleSimulation([held]).run(max_ticks=tick)
        assert held.manager.agent.stats.exploitation_entry_epoch is not None
    if batch == FILTERED_BATCH:
        filtered = EnsembleSimulation(
            [build_sim(spec) for spec in batch if spec.platform == FILTERED]
        )
        filtered.run(max_ticks=tick)
        assert filtered.capture()["eval_sensors"]["_ema"] is not None


def test_cached_bytes_ignore_unfilled_capacity():
    """The cache bytes of a frozen run must not depend on the profile
    memory past its last sample."""
    summary = scalar(member("tachyon", "linux", 1, max_time_s=FREEZE_S))[1]
    spare = unfilled(summary.profile)
    assert spare.size, "the frozen run's profile has no spare capacity to vary"
    spare[...] = 0.0
    zeros = pickle.dumps(summary)
    spare[...] = np.nan
    assert pickle.dumps(summary) == zeros


def assert_same_artefacts(reference, candidate, label):
    """Two ``repro all`` sweeps wrote byte-identical artefact files."""
    assert reference.output_dir != candidate.output_dir
    for name in ARTEFACTS:
        assert (candidate.output_dir / f"{name}.txt").read_bytes() == (
            reference.output_dir / f"{name}.txt"
        ).read_bytes(), f"{name}: {label} sweep diverged from the reference"


def assert_sweeps_stay_out_of_results(reports):
    """No report of a scaled sweep wrote into the committed ``results/``."""
    committed = (Path(__file__).resolve().parent.parent / "results").resolve()
    for report in reports:
        assert report.output_dir.resolve() != committed
        assert committed not in report.output_dir.resolve().parents
