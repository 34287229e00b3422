"""Central configuration dataclasses for the reproduction.

Every tunable of the platform simulator, the reliability models and the
learning agent lives here, so experiments can be described as small diffs
against :func:`default_platform_config` / :func:`default_agent_config`.

The default numbers are calibrated so that the simulated quad-core chip
behaves like the Intel desktop part used in the paper:

* an idle core sits a few degrees above the 30 degC ambient;
* a fully loaded chip (4 cores at 3.4 GHz, activity ~1) reaches ~70 degC,
  matching the hottest row of Table 2 (tachyon, set 1, Linux);
* core-level thermal time constants are a couple of seconds, so the
  seconds-scale compute/sync phase alternation of the multimedia workloads
  produces sensor-visible thermal cycling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.units import ghz

# ---------------------------------------------------------------------------
# Validation helpers (every dataclass field below is covered by one of
# these in its __post_init__ — enforced statically by `repro lint`'s
# CFG001 rule)
# ---------------------------------------------------------------------------


def _check_positive(name: str, value: float) -> None:
    """Raise unless ``value`` is finite and strictly positive."""
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _check_non_negative(name: str, value: float) -> None:
    """Raise unless ``value`` is finite and >= 0."""
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _check_finite(name: str, value: float) -> None:
    """Raise unless ``value`` is a finite number."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _check_bool(name: str, value: bool) -> None:
    """Raise unless ``value`` is an actual bool (not a truthy stand-in)."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")


def _check_int_at_least(name: str, value: int, minimum: int) -> None:
    """Raise unless ``value`` is an int >= ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def _check_seed(name: str, value: int) -> None:
    """Raise unless ``value`` is an int usable as an RNG seed."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int seed, got {value!r}")


def _check_weight_pair(name: str, pair: Tuple[float, float]) -> None:
    """Raise unless ``pair`` is two finite non-negative weights."""
    if len(pair) != 2:
        raise ValueError(f"{name} must be a (stress, aging) pair, got {pair!r}")
    for weight in pair:
        _check_non_negative(name, weight)


# ---------------------------------------------------------------------------
# Platform: operating points, power, thermal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatingPoint:
    """A voltage/frequency pair (an OPP in cpufreq terminology).

    Attributes
    ----------
    frequency_hz:
        Core clock frequency in hertz.
    voltage_v:
        Supply voltage in volts at that frequency.
    """

    frequency_hz: float
    voltage_v: float

    def __post_init__(self) -> None:
        _check_positive("frequency_hz", self.frequency_hz)
        _check_positive("voltage_v", self.voltage_v)


def default_opp_table() -> Tuple[OperatingPoint, ...]:
    """The default DVFS ladder: 1.6 GHz ... 3.4 GHz, scaled voltage.

    The three ``userspace`` frequencies exposed to the learning agent
    (Section 5.1 of the paper selects three levels) are 2.0, 2.4 and
    3.4 GHz; Table 3 of the paper reports the 2.4 GHz and 3.4 GHz columns.
    """
    return (
        OperatingPoint(ghz(1.6), 0.800),
        OperatingPoint(ghz(2.0), 0.875),
        OperatingPoint(ghz(2.4), 0.950),
        OperatingPoint(ghz(2.8), 1.000),
        OperatingPoint(ghz(3.2), 1.0625),
        OperatingPoint(ghz(3.4), 1.100),
    )


@dataclass(frozen=True)
class PowerConfig:
    """Parameters of the per-core power model.

    Dynamic power is ``activity * c_eff * V^2 * f``; static (leakage)
    power is ``k_leak * V * exp(t_leak * T_celsius)``, the standard
    exponential temperature dependence used by the leakage models the
    paper cites (Ukhov et al., ref. [17]).
    """

    #: Effective switched capacitance per core (farads).
    c_eff: float = 2.00e-9
    #: Leakage scale factor (watts per volt at 0 degC).
    k_leak: float = 0.316
    #: Exponential leakage temperature coefficient (per degC).
    t_leak: float = 0.020
    #: Power drawn by the uncore/memory system per unit of core activity.
    uncore_power_per_active_core: float = 0.8
    #: Constant platform baseline power attributed to the package (watts).
    idle_package_power: float = 1.2

    def __post_init__(self) -> None:
        _check_positive("c_eff", self.c_eff)
        for name in ("k_leak", "t_leak", "uncore_power_per_active_core",
                     "idle_package_power"):
            _check_non_negative(name, getattr(self, name))


@dataclass(frozen=True)
class ThermalConfig:
    """Parameters of the lumped RC thermal network.

    The network has one node per core plus a single heat-spreader node
    that couples every core to ambient.  Conductances are in W/K and heat
    capacities in J/K; see ``repro.thermal.rc_model`` for the equations.
    """

    #: Ambient temperature in degrees Celsius.
    ambient_c: float = 30.0
    #: Heat capacity of each core node (J/K) -> tau of a second or two.
    core_capacitance: float = 0.8
    #: Heat capacity of the spreader node (J/K) -> slow package drift.
    spreader_capacitance: float = 55.0
    #: Conductance from each core to the spreader (W/K).
    core_to_spreader: float = 0.50
    #: Conductance between physically adjacent cores (W/K).
    core_to_core: float = 0.20
    #: Conductance from the spreader to ambient (W/K).
    spreader_to_ambient: float = 1.05
    #: Std-dev of the Ornstein-Uhlenbeck ambient/airflow fluctuation
    #: (degC); 0 disables it.  A physical testbed's effective ambient
    #: wanders with airflow and room temperature — this is the slow
    #: variance behind the high short-interval autocorrelation of the
    #: paper's Figure 6.
    ambient_drift_sigma_c: float = 0.0
    #: Correlation time of the ambient fluctuation (seconds).
    ambient_drift_tau_s: float = 8.0

    def __post_init__(self) -> None:
        _check_finite("ambient_c", self.ambient_c)
        for name in ("core_capacitance", "spreader_capacitance",
                     "core_to_spreader", "spreader_to_ambient",
                     "ambient_drift_tau_s"):
            _check_positive(name, getattr(self, name))
        _check_non_negative("core_to_core", self.core_to_core)
        _check_non_negative("ambient_drift_sigma_c", self.ambient_drift_sigma_c)


@dataclass(frozen=True)
class SensorConfig:
    """On-board digital thermal sensor model.

    Intel DTS readings are quantised to 1 degC; we add a small Gaussian
    noise before quantisation so repeated samples of a steady core are
    realistic for the autocorrelation study of Figure 6.
    """

    #: Quantisation step in degrees Celsius (0 disables quantisation).
    quantisation_c: float = 1.0
    #: Standard deviation of additive Gaussian noise (degC).
    noise_std_c: float = 0.25
    #: Saturation limits of the sensor (degC).
    min_c: float = 0.0
    max_c: float = 125.0
    #: Time constant of the sensor reading path's low-pass filtering
    #: (seconds); 0 disables it.  Physical DTS readings respond with the
    #: sensor diode's own thermal mass plus firmware averaging — the
    #: reason consecutive 1 s samples of a real chip are so similar
    #: (Figure 6's autocorrelation panel).
    ema_tau_s: float = 0.0

    def __post_init__(self) -> None:
        _check_finite("min_c", self.min_c)
        _check_finite("max_c", self.max_c)
        if self.min_c >= self.max_c:
            raise ValueError(
                f"sensor range is empty: min_c={self.min_c} >= max_c={self.max_c}"
            )
        _check_non_negative("quantisation_c", self.quantisation_c)
        _check_non_negative("noise_std_c", self.noise_std_c)
        _check_non_negative("ema_tau_s", self.ema_tau_s)


@dataclass(frozen=True)
class PlatformConfig:
    """Everything that defines the simulated quad-core platform."""

    num_cores: int = 4
    #: Simulation tick in seconds.
    dt: float = 0.1
    opp_table: Tuple[OperatingPoint, ...] = field(default_factory=default_opp_table)
    power: PowerConfig = field(default_factory=PowerConfig)
    thermal: ThermalConfig = field(default_factory=ThermalConfig)
    sensor: SensorConfig = field(default_factory=SensorConfig)
    #: Adjacency of cores on the die as index pairs (2x2 grid by default).
    core_adjacency: Tuple[Tuple[int, int], ...] = ((0, 1), (0, 2), (1, 3), (2, 3))

    def __post_init__(self) -> None:
        _check_int_at_least("num_cores", self.num_cores, 1)
        _check_positive("dt", self.dt)
        if not self.opp_table:
            raise ValueError("opp_table must list at least one operating point")
        for point in self.opp_table:
            if not isinstance(point, OperatingPoint):
                raise ValueError(
                    f"opp_table entries must be OperatingPoint, got {point!r}"
                )
        if not isinstance(self.power, PowerConfig):
            raise ValueError(f"power must be a PowerConfig, got {self.power!r}")
        if not isinstance(self.thermal, ThermalConfig):
            raise ValueError(
                f"thermal must be a ThermalConfig, got {self.thermal!r}"
            )
        if not isinstance(self.sensor, SensorConfig):
            raise ValueError(
                f"sensor must be a SensorConfig, got {self.sensor!r}"
            )
        for pair in self.core_adjacency:
            if len(pair) != 2 or pair[0] == pair[1]:
                raise ValueError(
                    f"core_adjacency entries must pair two distinct cores, "
                    f"got {pair!r}"
                )
            for core in pair:
                if not 0 <= core < self.num_cores:
                    raise ValueError(
                        f"core_adjacency references core {core} outside "
                        f"0..{self.num_cores - 1}"
                    )

    def min_frequency(self) -> float:
        """Lowest frequency of the OPP table in hertz."""
        return min(p.frequency_hz for p in self.opp_table)

    def max_frequency(self) -> float:
        """Highest frequency of the OPP table in hertz."""
        return max(p.frequency_hz for p in self.opp_table)

    def frequencies(self) -> List[float]:
        """All OPP frequencies in ascending order (hertz)."""
        return sorted(p.frequency_hz for p in self.opp_table)

    def voltage_for(self, frequency_hz: float) -> float:
        """Voltage of the OPP whose frequency matches ``frequency_hz``.

        Raises
        ------
        KeyError
            If no operating point has that exact frequency.
        """
        for point in self.opp_table:
            if abs(point.frequency_hz - frequency_hz) < 1.0:
                return point.voltage_v
        raise KeyError(f"no operating point at {frequency_hz} Hz")


# ---------------------------------------------------------------------------
# Fault injection and supervision (robustness layer)
# ---------------------------------------------------------------------------


def _check_probability(name: str, value: float) -> None:
    """Raise unless ``value`` is a probability in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultConfig:
    """Fault model of the sensor and actuation paths.

    Models the failure modes of a physical DTM substrate: ``coretemp``
    sensors that drop samples, latch, spike or drift, and a ``cpufreq``
    / affinity syscall interface whose transitions can be rejected or
    silently ignored.  All faults are injected from a dedicated seeded
    RNG stream, so a faulty run is exactly reproducible and a disabled
    config (``enabled=False``, the default) leaves every simulation
    bit-identical to a run without a fault model at all.

    Sensor-fault probabilities are per read and per core; actuation
    probabilities are per ``set_governor`` / ``set_mapping`` call.
    """

    #: Master switch; False means no fault injector is constructed.
    enabled: bool = False
    # --- sensor path -------------------------------------------------
    #: Probability a reading is dropped (returned as NaN).
    dropout_prob: float = 0.0
    #: Probability a reading carries a large transient spike.
    spike_prob: float = 0.0
    #: Magnitude of an injected spike (degC); sign is random.
    spike_magnitude_c: float = 30.0
    #: Probability a healthy sensor latches (stuck-at) on this read.
    stuck_prob: float = 0.0
    #: How long a latched sensor keeps repeating its value (seconds).
    stuck_duration_s: float = 30.0
    #: Slow miscalibration drift added to every core (degC per second).
    drift_rate_c_per_s: float = 0.0
    #: Static per-core offsets (degC); cycled over cores, empty = none.
    offset_c: Tuple[float, ...] = ()
    # --- actuation path ----------------------------------------------
    #: Probability a governor transition fails (cpufreq-set rejects it).
    governor_fail_prob: float = 0.0
    #: Probability a governor transition is silently ignored.
    governor_noop_prob: float = 0.0
    #: Probability an affinity change fails.
    mapping_fail_prob: float = 0.0
    #: Probability an affinity change is silently ignored.
    mapping_noop_prob: float = 0.0
    #: Seed of the dedicated fault RNG stream (mixed with the run seed).
    seed: int = 7331

    def __post_init__(self) -> None:
        _check_bool("enabled", self.enabled)
        _check_seed("seed", self.seed)
        _check_finite("drift_rate_c_per_s", self.drift_rate_c_per_s)
        for name in (
            "dropout_prob",
            "spike_prob",
            "stuck_prob",
            "governor_fail_prob",
            "governor_noop_prob",
            "mapping_fail_prob",
            "mapping_noop_prob",
        ):
            _check_probability(name, getattr(self, name))
        if self.governor_fail_prob + self.governor_noop_prob > 1.0:
            raise ValueError("governor fail+noop probabilities exceed 1")
        if self.mapping_fail_prob + self.mapping_noop_prob > 1.0:
            raise ValueError("mapping fail+noop probabilities exceed 1")
        if self.spike_magnitude_c < 0.0:
            raise ValueError(
                f"spike_magnitude_c must be >= 0, got {self.spike_magnitude_c}"
            )
        if self.stuck_duration_s < 0.0:
            raise ValueError(
                f"stuck_duration_s must be >= 0, got {self.stuck_duration_s}"
            )
        for offset in self.offset_c:
            if not math.isfinite(offset):
                raise ValueError(f"offset_c entries must be finite, got {offset}")


@dataclass(frozen=True)
class SupervisorConfig:
    """Graceful-degradation layer between the platform and controllers.

    Controls the :class:`repro.faults.SensorSupervisor` (reading
    sanitisation: range / rate-of-change / stuck checks with cross-core
    median and last-good-value fallbacks) and the
    :class:`repro.faults.ActuationSupervisor` (bounded retry with
    exponential backoff for failed governor/mapping transitions, and a
    thermal-emergency safe state that clamps the chip to its minimum
    operating point).
    """

    #: Master switch; False means the loop runs unsupervised.
    enabled: bool = False
    # --- sensor sanitisation -----------------------------------------
    #: Fastest physically plausible temperature slew (degC per second);
    #: readings moving faster than this are rejected as spikes.
    max_rate_c_per_s: float = 25.0
    #: Consecutive identical readings before a sensor is suspected stuck.
    stuck_window: int = 20
    #: Cross-core median deviation (degC) confirming a stuck sensor.
    stuck_delta_c: float = 3.0
    # --- thermal emergency -------------------------------------------
    #: Sanitised reading at/above which the safe state engages (degC).
    critical_temp_c: float = 90.0
    #: Sanitised reading at/below which the safe state releases (degC).
    emergency_release_c: float = 70.0
    #: Period of the supervisor's own watchdog sensor sampling (s).
    watchdog_period_s: float = 1.0
    # --- actuation retry ---------------------------------------------
    #: Retries after a failed/ignored actuation before giving up.
    max_retries: int = 3
    #: First retry delay (seconds); doubles on every further retry.
    retry_backoff_s: float = 0.4
    #: A requested actuation still not in force after this long forces
    #: the thermal-emergency safe state (seconds).
    fault_deadline_s: float = 10.0

    def __post_init__(self) -> None:
        _check_bool("enabled", self.enabled)
        if self.max_rate_c_per_s <= 0.0:
            raise ValueError(
                f"max_rate_c_per_s must be > 0, got {self.max_rate_c_per_s}"
            )
        if self.stuck_window < 2:
            raise ValueError(f"stuck_window must be >= 2, got {self.stuck_window}")
        if self.stuck_delta_c < 0.0:
            raise ValueError(f"stuck_delta_c must be >= 0, got {self.stuck_delta_c}")
        if self.emergency_release_c >= self.critical_temp_c:
            raise ValueError(
                "emergency_release_c must be below critical_temp_c "
                f"({self.emergency_release_c} >= {self.critical_temp_c})"
            )
        if self.watchdog_period_s <= 0.0:
            raise ValueError(
                f"watchdog_period_s must be > 0, got {self.watchdog_period_s}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.retry_backoff_s <= 0.0:
            raise ValueError(
                f"retry_backoff_s must be > 0, got {self.retry_backoff_s}"
            )
        if self.fault_deadline_s <= 0.0:
            raise ValueError(
                f"fault_deadline_s must be > 0, got {self.fault_deadline_s}"
            )


# ---------------------------------------------------------------------------
# Experiment engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineConfig:
    """Parallelism and caching of the experiment engine.

    Consumed by :class:`repro.experiments.engine.ExperimentEngine`; the
    defaults (one worker, caching on, the standard cache directory) are
    what ``repro all`` uses when no flags are given.
    """

    #: Worker processes; 1 means run every job inline (the serial path).
    jobs: int = 1
    #: Whether to read/write the content-addressed result cache.
    use_cache: bool = True
    #: Cache root directory; ``None`` selects ``$REPRO_CACHE_DIR`` or
    #: ``./.repro-cache``.
    cache_dir: "str | None" = None
    #: Wall-clock budget per job attempt in seconds; ``None`` disables
    #: the timeout (a hung worker then blocks the batch forever).
    job_timeout_s: "float | None" = None
    #: Total attempts per job (first try + retries) before the engine
    #: records a structured failure.
    max_job_attempts: int = 3
    #: Checkpoint cadence in ticks for jobs run through the engine;
    #: ``None``/0 disables checkpointing.
    checkpoint_every: "int | None" = None
    #: Root directory for per-job checkpoint stores; ``None`` disables
    #: checkpointing and resume.
    checkpoint_dir: "str | None" = None
    #: Resume interrupted jobs from their newest valid checkpoint.
    resume: bool = False

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        _check_bool("use_cache", self.use_cache)
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise ValueError(
                f"cache_dir must be a string or None, got {self.cache_dir!r}"
            )
        if self.job_timeout_s is not None:
            _check_positive("job_timeout_s", self.job_timeout_s)
        _check_int_at_least("max_job_attempts", self.max_job_attempts, 1)
        if self.checkpoint_every is not None:
            _check_int_at_least("checkpoint_every", self.checkpoint_every, 1)
        if self.checkpoint_dir is not None and not isinstance(
            self.checkpoint_dir, str
        ):
            raise ValueError(
                f"checkpoint_dir must be a string or None, got {self.checkpoint_dir!r}"
            )
        _check_bool("resume", self.resume)


# ---------------------------------------------------------------------------
# Reliability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReliabilityConfig:
    """Device parameters for the aging and thermal-cycling MTTF models.

    The constants follow the embedded-reliability literature that the
    paper cites (Chantem et al. [2], Ukhov et al. [17], Srinivasan et
    al. [15]) and are scaled, per the caption of Table 2, so that an
    unstressed (idle) core has an MTTF of exactly ``baseline_mttf_years``.
    """

    #: Reference temperature of an unstressed core (degC): aging rate 1.
    #: This is the steady-state temperature of an idle core on the default
    #: platform (ambient 30 degC plus idle leakage/package heat), so an
    #: idle run reports exactly the baseline MTTF.
    reference_temp_c: float = 34.0
    #: Activation energy of the aging (EM/NBTI) Arrhenius term (eV).
    aging_activation_energy_ev: float = 0.70
    #: Coffin-Manson exponent ``b`` of Eq. 3.
    coffin_manson_exponent: float = 2.35
    #: Temperature amplitude below which deformation is elastic (K).
    elastic_threshold_k: float = 2.5
    #: Activation energy of the cycling term in Eq. 3 (eV).
    cycling_activation_energy_ev: float = 0.30
    #: MTTF of an unstressed core, the calibration anchor (years).
    baseline_mttf_years: float = 10.0
    #: Empirical Coffin-Manson scale ``ATC`` of Eq. 3.  ``None`` means
    #: auto-calibrate (see ``repro.reliability.mttf.calibrate_atc``) so
    #: that a reference profile cycling 10 K around 50 degC every 20 s
    #: yields a cycling MTTF of ``cycling_reference_mttf_years``, placing
    #: the Table 2 workloads inside the paper's 0.7-7.1 year band.
    cycling_scale_atc: "float | None" = None
    #: Target cycling MTTF of the calibration reference profile (years).
    cycling_reference_mttf_years: float = 1.5

    def __post_init__(self) -> None:
        _check_finite("reference_temp_c", self.reference_temp_c)
        for name in ("aging_activation_energy_ev", "coffin_manson_exponent",
                     "baseline_mttf_years", "cycling_reference_mttf_years"):
            _check_positive(name, getattr(self, name))
        _check_non_negative("elastic_threshold_k", self.elastic_threshold_k)
        _check_non_negative(
            "cycling_activation_energy_ev", self.cycling_activation_energy_ev
        )
        if self.cycling_scale_atc is not None:
            _check_positive("cycling_scale_atc", self.cycling_scale_atc)


# ---------------------------------------------------------------------------
# Learning agent (the paper's contribution)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentConfig:
    """Hyper-parameters of Algorithm 1.

    The defaults correspond to the choices the paper reports in
    Section 6.4: a 3 s temperature sampling interval, a decision epoch
    chosen from the Figure 7 trade-off (30 s), and state/action space
    sizes from the Figure 8 trade-off.
    """

    #: Temperature sampling interval in seconds (Figure 6 sweeps this).
    sampling_interval_s: float = 3.0
    #: Decision epoch in seconds (Figure 7 sweeps this).
    decision_epoch_s: float = 30.0
    #: Number of stress bins Ns (Section 5.1).
    num_stress_bins: int = 3
    #: Number of aging bins Na (Section 5.1).
    num_aging_bins: int = 3
    #: Number of actions exposed to the agent (Figure 8 sweeps this).
    num_actions: int = 8
    #: Discount rate gamma of Eq. 7.
    discount: float = 0.50
    #: Time constant (in epochs) of the exponential alpha decay.
    alpha_decay_epochs: float = 8.0
    #: Alpha below which the agent is considered in pure exploitation.
    alpha_exploit_threshold: float = 0.05
    #: Alpha restored on intra-application variation (Section 5.4).
    alpha_intra: float = 0.15
    #: Lower/upper thresholds on the stress moving-average deviation.
    stress_ma_lower: float = 0.15
    stress_ma_upper: float = 0.20
    #: Lower/upper thresholds on the aging moving-average deviation.
    aging_ma_lower: float = 0.15
    aging_ma_upper: float = 0.20
    #: Window (in epochs) of the stress/aging moving averages.
    ma_window: int = 3
    #: Relative importance pairs (a, b) of stress vs aging in the reward
    #: (Section 5.2): cycling-dominant epochs use the first pair, aging
    #: dominant epochs the second.
    weight_stress_dominant: Tuple[float, float] = (0.75, 0.25)
    weight_aging_dominant: Tuple[float, float] = (0.25, 0.75)
    #: Width (in normalised units) of the Gaussian learning weights K1/K2.
    gaussian_width: float = 0.35
    #: Centre of the Gaussian learning weights in normalised [0, 1].
    gaussian_centre: float = 0.45
    #: Scale of the performance term (Pc - P) in the reward.
    performance_weight: float = 2.0
    #: Random seed for action exploration.
    seed: int = 2014

    def __post_init__(self) -> None:
        _check_positive("sampling_interval_s", self.sampling_interval_s)
        _check_positive("decision_epoch_s", self.decision_epoch_s)
        _check_int_at_least("num_stress_bins", self.num_stress_bins, 1)
        _check_int_at_least("num_aging_bins", self.num_aging_bins, 1)
        _check_int_at_least("num_actions", self.num_actions, 1)
        _check_probability("discount", self.discount)
        _check_positive("alpha_decay_epochs", self.alpha_decay_epochs)
        _check_probability("alpha_exploit_threshold", self.alpha_exploit_threshold)
        _check_probability("alpha_intra", self.alpha_intra)
        # The moving-average thresholds are deliberately allowed outside
        # [0, 1]: the ablation's no_variation variant pushes them beyond
        # any reachable deviation to disable detection.
        _check_non_negative("stress_ma_lower", self.stress_ma_lower)
        _check_non_negative("aging_ma_lower", self.aging_ma_lower)
        if self.stress_ma_upper < self.stress_ma_lower:
            raise ValueError(
                "stress_ma_upper must be >= stress_ma_lower "
                f"({self.stress_ma_upper} < {self.stress_ma_lower})"
            )
        if self.aging_ma_upper < self.aging_ma_lower:
            raise ValueError(
                "aging_ma_upper must be >= aging_ma_lower "
                f"({self.aging_ma_upper} < {self.aging_ma_lower})"
            )
        _check_int_at_least("ma_window", self.ma_window, 1)
        _check_weight_pair("weight_stress_dominant", self.weight_stress_dominant)
        _check_weight_pair("weight_aging_dominant", self.weight_aging_dominant)
        _check_positive("gaussian_width", self.gaussian_width)
        _check_finite("gaussian_centre", self.gaussian_centre)
        _check_finite("performance_weight", self.performance_weight)
        _check_seed("seed", self.seed)


@dataclass(frozen=True)
class GeQiuConfig:
    """Hyper-parameters of the Ge & Qiu (DAC 2011) baseline controller."""

    #: Sampling interval == decision interval (no decoupling).
    interval_s: float = 3.0
    #: Number of instantaneous-temperature bins in its state space.
    num_temp_bins: int = 8
    #: Temperature range covered by the bins (degC).
    temp_range_c: Tuple[float, float] = (30.0, 85.0)
    #: Temperature above which the reward turns into a penalty (the
    #: thermal constraint their manager keeps the chip under).
    temp_threshold_c: float = 55.0
    discount: float = 0.5
    alpha_decay_epochs: float = 40.0
    #: Weight of the over-threshold temperature penalty in its reward.
    temp_weight: float = 1.0
    #: Weight of the performance term in its reward.
    perf_weight: float = 0.6
    seed: int = 2011

    def __post_init__(self) -> None:
        _check_positive("interval_s", self.interval_s)
        _check_int_at_least("num_temp_bins", self.num_temp_bins, 2)
        if len(self.temp_range_c) != 2 or self.temp_range_c[0] >= self.temp_range_c[1]:
            raise ValueError(
                f"temp_range_c must be an ascending (lo, hi) pair, "
                f"got {self.temp_range_c!r}"
            )
        _check_finite("temp_threshold_c", self.temp_threshold_c)
        _check_probability("discount", self.discount)
        _check_positive("alpha_decay_epochs", self.alpha_decay_epochs)
        _check_non_negative("temp_weight", self.temp_weight)
        _check_non_negative("perf_weight", self.perf_weight)
        _check_seed("seed", self.seed)


def default_platform_config() -> PlatformConfig:
    """A fresh default platform configuration."""
    return PlatformConfig()


def default_reliability_config() -> ReliabilityConfig:
    """A fresh default reliability configuration."""
    return ReliabilityConfig()


def default_agent_config() -> AgentConfig:
    """A fresh default agent configuration."""
    return AgentConfig()
