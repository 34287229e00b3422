"""Common experiment harness: the one place that knows how a job runs.

A :class:`~repro.experiments.engine.spec.JobSpec` describes one job;
:func:`build_simulation` turns it into an unrun
:class:`~repro.soc.simulator.Simulation`, :func:`summarise` reduces the
finished run to a :class:`RunSummary` holding every metric any table or
figure needs, and :func:`run_job` does both, with optional
checkpointing (:func:`arm_checkpoints`, which serves the ensemble
runner too).  A ``workload`` job runs one application under one
policy with the standard train-then-measure protocol; a ``scenario`` job
runs an inter-application sequence (Figure 3) where the *switching*
itself is the phenomenon, so applications run once each and the whole
scenario is measured.  :func:`run_workload` and :func:`run_scenario`
are the keyword-argument front ends of the two kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple

from repro.config import (
    AgentConfig,
    FaultConfig,
    GeQiuConfig,
    PlatformConfig,
    ReliabilityConfig,
    SupervisorConfig,
    default_agent_config,
    default_reliability_config,
)
from repro.baselines.ge_qiu import GeQiuThermalManager
from repro.baselines.static_policy import StaticPolicyManager
from repro.core.actions import ActionSpace
from repro.core.manager import ProposedThermalManager
from repro.sched.affinity import AffinityMapping
from repro.soc.simulator import (
    RunLoop,
    Simulation,
    SimulationResult,
    ThermalManagerBase,
)
from repro.thermal.profile import ThermalProfile
from repro.units import ghz
from repro.workloads.alpbench import make_application
from repro.workloads.application import Application

if TYPE_CHECKING:  # the engine package imports this module at its top
    from repro.experiments.engine.spec import JobSpec

#: Policy names accepted by the harness.
POLICIES: Tuple[str, ...] = (
    "linux",  # Linux default scheduling + ondemand (the paper's baseline)
    "powersave",  # Linux + powersave governor
    "performance",  # Linux + performance governor
    "userspace@2.4",  # fixed 2.4 GHz (Table 3 column)
    "userspace@3.4",  # fixed 3.4 GHz (Table 3 column)
    "ge",  # Ge & Qiu DAC'11 learning DVFS manager
    "ge_modified",  # Ge & Qiu + explicit app-switch re-learning
    "proposed",  # the paper's approach
)

#: Warm-up excluded from every measurement window (cold-start ramp).
WARMUP_SKIP_S = 60.0

#: Simulated-time safety limit of a job that leaves ``max_time_s``
#: unset, per job kind; :func:`run_workload` and :func:`run_scenario`
#: take their defaults from here too.
MAX_TIME_S_BY_KIND: Mapping[str, float] = MappingProxyType(
    {"workload": 20000.0, "scenario": 30000.0}
)


def _validate_policy(policy: str) -> None:
    """Reject unknown policy names before any simulation work starts.

    Raises
    ------
    ValueError
        With the full allowed list, so a typo in a sweep definition
        fails immediately and readably rather than mid-grid.
    """
    if policy in POLICIES:
        return
    if policy.startswith("userspace@"):
        try:
            float(policy.split("@", 1)[1])
            return
        except ValueError:
            pass
    raise ValueError(
        f"unknown policy {policy!r}; allowed policies: {', '.join(POLICIES)} "
        "(or 'userspace@<GHz>' for any fixed frequency)"
    )


@dataclass
class RunSummary:
    """Every metric the experiments report for one (workload, policy)."""

    app: str
    dataset: str
    policy: str
    average_temp_c: float
    peak_temp_c: float
    aging_mttf_years: float
    cycling_mttf_years: float
    stress: float
    num_cycles: float
    execution_time_s: float
    throughput: float
    dynamic_energy_j: float
    static_energy_j: float
    average_dynamic_power_w: float
    cache_misses: float
    page_faults: float
    migrations: int
    completed: bool
    manager_stats: Dict[str, float] = field(default_factory=dict)
    #: Injected-fault counters (empty without a fault model).
    fault_stats: Dict[str, float] = field(default_factory=dict)
    #: Supervisor counters (empty without the supervision layer).
    supervisor_stats: Dict[str, float] = field(default_factory=dict)
    #: The measurement-window thermal profile, for trace figures.
    profile: Optional[ThermalProfile] = None


def build_manager(
    policy: str,
    agent_config: Optional[AgentConfig] = None,
    reliability: Optional[ReliabilityConfig] = None,
    action_space: Optional[ActionSpace] = None,
    ge_config: Optional[GeQiuConfig] = None,
    mapping: Optional[AffinityMapping] = None,
) -> Tuple[Optional[ThermalManagerBase], str, Optional[float]]:
    """Materialise a policy name.

    Returns
    -------
    (manager, governor_name, userspace_frequency_hz)
        The manager (or None) plus the simulation's initial governor.
    """
    agent_config = agent_config if agent_config is not None else default_agent_config()
    reliability = (
        reliability if reliability is not None else default_reliability_config()
    )
    if policy == "linux":
        return (
            StaticPolicyManager(mapping=mapping) if mapping is not None else None,
            "ondemand",
            None,
        )
    if policy == "powersave":
        return StaticPolicyManager("powersave", mapping=mapping), "powersave", None
    if policy == "performance":
        return StaticPolicyManager("performance", mapping=mapping), "performance", None
    if policy.startswith("userspace@"):
        freq = ghz(float(policy.split("@")[1]))
        return (
            StaticPolicyManager("userspace", freq, mapping=mapping),
            "userspace",
            freq,
        )
    if policy == "ge":
        return GeQiuThermalManager(ge_config), "ondemand", None
    if policy == "ge_modified":
        return (
            GeQiuThermalManager(ge_config, react_to_app_switch=True),
            "ondemand",
            None,
        )
    if policy == "proposed":
        return (
            ProposedThermalManager(agent_config, reliability, action_space),
            "ondemand",
            None,
        )
    raise KeyError(f"unknown policy {policy!r}; known: {POLICIES}")


def _make_app(
    app: str, dataset: Optional[str], seed: int, scale: float
) -> Application:
    """Application instance with an optional iteration-count scale."""
    application = make_application(app, dataset, seed=seed)
    if scale != 1.0:
        spec = application.spec
        scaled = max(10, int(spec.iterations * scale))
        application = Application(
            replace(spec, iterations=scaled), metric=application.metric, seed=seed
        )
    return application


def build_simulation(spec: JobSpec, instrumentation=None) -> Simulation:
    """Construct (without running) the simulation of one job.

    A workload job gets ``train_passes`` training executions, seeded
    apart from the measured one so the measured input is identical
    across policies, and then the measured execution.  A scenario job
    gets its applications once each, back to back.  Every execution
    path (the runner entry points, the engine's workers and the
    vectorized ensemble) builds its simulations here.

    Raises
    ------
    ValueError
        For an unknown policy name, before any simulation work starts.
    """
    _validate_policy(spec.policy)
    scale = spec.iteration_scale
    if spec.kind == "scenario":
        applications = [
            _make_app(app, None, seed=spec.seed + 7 * index + 1, scale=scale)
            for index, app in enumerate(spec.apps)
        ]
    else:
        seeds = [spec.seed * 17 + 101 + index for index in range(spec.train_passes)]
        applications = [
            _make_app(spec.app, spec.dataset, seed=seed, scale=scale)
            for seed in seeds + [spec.seed]
        ]
    manager, governor, userspace_hz = build_manager(
        spec.policy,
        spec.agent_config,
        spec.reliability,
        spec.action_space(),
        spec.ge_config,
        spec.mapping,
    )
    return Simulation(
        applications,
        platform=spec.platform,
        governor=governor,
        userspace_frequency_hz=userspace_hz,
        manager=manager,
        seed=spec.seed,
        max_time_s=(
            spec.max_time_s
            if spec.max_time_s is not None
            else MAX_TIME_S_BY_KIND[spec.kind]
        ),
        faults=spec.faults,
        supervisor=spec.supervisor,
        instrumentation=instrumentation,
    )


def summarise(
    spec: JobSpec, sim: Simulation, result: SimulationResult
) -> RunSummary:
    """Collapse the finished run of ``spec`` (built as ``sim``) into a summary.

    A workload job is measured over its measured execution, minus the
    cold-start warm-up when nothing trained before it; a run that timed
    out before the measured execution reports its whole profile.  A
    scenario job is measured over the whole scenario minus the warm-up.

    Raises
    ------
    ValueError
        When the measurement window is empty.
    """
    reliability = spec.reliability
    if reliability is None:
        reliability = default_reliability_config()
    if spec.kind == "scenario":
        app = "-".join(spec.apps)
        if result.total_time_s <= WARMUP_SKIP_S:
            raise ValueError(
                f"empty measurement window for scenario {app!r} under "
                f"{spec.policy!r}: the whole scenario lasts "
                f"{result.total_time_s:.1f} s, not longer than the "
                f"{WARMUP_SKIP_S:.0f} s warm-up skip; increase the run length "
                "(iteration_scale)"
            )
        dataset = "scenario"
        records = result.app_records
        window = result.profile.window(WARMUP_SKIP_S, result.total_time_s)
    else:
        app = spec.app
        dataset = spec.dataset
        if dataset is None:
            dataset = sim.applications[-1].spec.dataset
        records = result.app_records[spec.train_passes:]
        if records:
            warmup = WARMUP_SKIP_S * (1 if spec.train_passes == 0 else 0)
            start = records[0].start_s + warmup
            end = records[-1].end_s
            if end <= start:
                raise ValueError(
                    f"empty measurement window for {app!r} under {spec.policy!r}: "
                    f"the measured pass ends at {end:.1f} s, inside the "
                    f"{WARMUP_SKIP_S:.0f} s warm-up skip; increase the run length "
                    "(iteration_scale) or train first (train_passes >= 1)"
                )
            window = result.profile.window(start, end)
            if len(window) == 0:
                raise ValueError(
                    f"empty measurement window for {app!r} under {spec.policy!r}: "
                    f"[{start:.1f} s, {end:.1f} s) holds no sensor sample at the "
                    f"{result.profile.sample_period_s:g} s sampling period"
                )
        else:  # the run timed out before the measurement pass
            window = result.profile
    report = window.worst_case_report(reliability)
    execution = sum(r.execution_time_s for r in records)
    iterations = sum(r.completed_iterations for r in records)
    return RunSummary(
        app=app,
        dataset=dataset,
        policy=spec.policy,
        average_temp_c=report["average_temp_c"],
        peak_temp_c=report["peak_temp_c"],
        aging_mttf_years=report["aging_mttf_years"],
        cycling_mttf_years=report["cycling_mttf_years"],
        stress=report["stress"],
        num_cycles=report["num_cycles"],
        execution_time_s=execution,
        throughput=iterations / execution if execution > 0.0 else 0.0,
        dynamic_energy_j=sum(r.dynamic_energy_j for r in records),
        static_energy_j=sum(r.static_energy_j for r in records),
        average_dynamic_power_w=(
            sum(r.dynamic_energy_j for r in records) / execution
            if execution > 0.0
            else 0.0
        ),
        cache_misses=result.perf.cache_misses,
        page_faults=result.perf.page_faults,
        migrations=result.perf.migrations,
        completed=all(r.completed for r in records),
        manager_stats=dict(result.manager_stats),
        fault_stats=dict(result.fault_stats),
        supervisor_stats=dict(result.supervisor_stats),
        profile=window,
    )


def run_job(
    spec: JobSpec,
    instrumentation=None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir=None,
    resume=False,
) -> RunSummary:
    """Build, run and summarise one job.

    Parameters
    ----------
    spec:
        The job.
    instrumentation:
        Optional observation-only :class:`repro.obs.Instrumentation`
        hook; attaching it never changes the run's trajectory.
    checkpoint_every / checkpoint_dir / resume:
        Crash tolerance: snapshot the full simulation closure every
        ``checkpoint_every`` ticks (``None``/0: never) into
        ``checkpoint_dir`` (``None`` disables the whole feature),
        and/or resume from the newest valid checkpoint there
        (``resume=True``) or from an explicit checkpoint file
        (``resume=<path>``).  Corrupted checkpoints degrade to the
        previous valid one; with nothing valid the run starts from
        scratch.  A resumed run is byte-identical to an uninterrupted
        one.
    """
    sim = build_simulation(spec, instrumentation)
    arm_checkpoints(sim, checkpoint_every, checkpoint_dir, resume)
    return summarise(spec, sim, sim.run())


def arm_checkpoints(
    sim: RunLoop,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir=None,
    resume=False,
) -> None:
    """Arm an unrun engine's crash tolerance: the one way both engines
    checkpoint and resume.

    ``sim`` is a scalar :class:`~repro.soc.simulator.Simulation` or an
    :class:`~repro.ensemble.engine.EnsembleSimulation`; the keywords
    mean what they mean to :func:`run_job`.  A resumed engine's
    checkpointer continues the restored checkpoint's manifest chain.
    """
    if checkpoint_dir is None:
        return
    # Imported lazily so ordinary (checkpoint-free) runs have no
    # hard dependency on the checkpoint layer.
    from repro.checkpoint import CheckpointStore, Checkpointer, resume_simulation

    store = CheckpointStore(checkpoint_dir)
    checkpointer = None
    if checkpoint_every:
        checkpointer = Checkpointer(store, checkpoint_every)
        sim.attach_checkpointer(checkpointer)
    if resume:
        explicit = resume if not isinstance(resume, bool) else None
        loaded = resume_simulation(sim, store, checkpoint=explicit)
        if loaded is not None and checkpointer is not None:
            checkpointer.note_resumed(loaded)


def run_workload(
    app: str,
    dataset: Optional[str] = None,
    policy: str = "linux",
    seed: int = 1,
    train_passes: int = 1,
    agent_config: Optional[AgentConfig] = None,
    reliability: Optional[ReliabilityConfig] = None,
    platform: Optional[PlatformConfig] = None,
    action_space: Optional[ActionSpace] = None,
    ge_config: Optional[GeQiuConfig] = None,
    mapping: Optional[AffinityMapping] = None,
    iteration_scale: float = 1.0,
    max_time_s: float = MAX_TIME_S_BY_KIND["workload"],
    faults: Optional[FaultConfig] = None,
    supervisor: Optional[SupervisorConfig] = None,
    instrumentation=None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir=None,
    resume=False,
) -> RunSummary:
    """Run one application under one policy (train + measure).

    Parameters
    ----------
    app:
        Application name (``tachyon``, ``mpeg_dec``, ...).
    dataset:
        Dataset label; the application's first dataset when omitted.
    policy:
        One of :data:`POLICIES`.
    seed:
        Seed of the *measurement* pass; training passes use derived
        seeds so the measured input is identical across policies.
    train_passes:
        Number of identical training executions preceding the measured
        one (0 disables training; adaptive policies then measure their
        learning transient, as the Figure 4 exploration trace does).
    agent_config / reliability / platform / action_space / ge_config:
        Configuration overrides.
    mapping:
        Fixed affinity mapping for the static policies (Figure 1's
        "user thread assignment" arm).
    iteration_scale:
        Scale on the application's iteration count (shorter sweeps).
    max_time_s:
        Safety limit for the whole simulation.
    faults / supervisor:
        Optional fault model and graceful-degradation layer (see
        :mod:`repro.faults`); both default to off, leaving the run
        bit-identical to the fault-free engine.
    instrumentation / checkpoint_every / checkpoint_dir / resume:
        Observation and crash tolerance, as in :func:`run_job`.
    """
    # Imported at call time: the engine package imports this module.
    from repro.experiments.engine.spec import workload_job

    spec = workload_job(
        app,
        dataset,
        policy,
        seed=seed,
        train_passes=train_passes,
        iteration_scale=iteration_scale,
        max_time_s=max_time_s,
        agent_config=agent_config,
        reliability=reliability,
        platform=platform,
        action_space=action_space,
        ge_config=ge_config,
        mapping=mapping,
        faults=faults,
        supervisor=supervisor,
    )
    return run_job(spec, instrumentation, checkpoint_every, checkpoint_dir, resume)


def run_scenario(
    apps: Sequence[str],
    policy: str,
    seed: int = 1,
    agent_config: Optional[AgentConfig] = None,
    reliability: Optional[ReliabilityConfig] = None,
    platform: Optional[PlatformConfig] = None,
    action_space: Optional[ActionSpace] = None,
    ge_config: Optional[GeQiuConfig] = None,
    iteration_scale: float = 1.0,
    max_time_s: float = MAX_TIME_S_BY_KIND["scenario"],
    faults: Optional[FaultConfig] = None,
    supervisor: Optional[SupervisorConfig] = None,
    instrumentation=None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir=None,
    resume=False,
) -> RunSummary:
    """Run an inter-application scenario (Figure 3).

    Applications execute once each, back-to-back; the measurement
    window covers the whole scenario (minus the cold-start warm-up)
    because the application *switches* are the phenomenon under test.
    The keywords are :func:`run_workload`'s.
    """
    from repro.experiments.engine.spec import scenario_job

    spec = scenario_job(
        apps,
        policy,
        seed=seed,
        iteration_scale=iteration_scale,
        max_time_s=max_time_s,
        agent_config=agent_config,
        reliability=reliability,
        platform=platform,
        action_space=action_space,
        ge_config=ge_config,
        faults=faults,
        supervisor=supervisor,
    )
    return run_job(spec, instrumentation, checkpoint_every, checkpoint_dir, resume)
