"""Tests for perf counters, sensor filtering and ambient drift."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import PlatformConfig, SensorConfig
from repro.experiments.engine.spec import workload_job
from repro.experiments.runner import build_simulation
from repro.sched.perf import PerfCounters
from repro.soc.chip import Chip
from repro.thermal.sensors import SensorBank


# ---------------------------------------------------------------------------
# Perf counters
# ---------------------------------------------------------------------------


def test_counters_start_at_zero():
    perf = PerfCounters()
    assert perf.cache_misses == 0.0
    assert perf.page_faults == 0.0
    assert perf.migrations == 0
    assert perf.sample_events == 0


def test_sample_event_costs():
    perf = PerfCounters()
    perf.record_sample_event()
    perf.record_sample_event()
    assert perf.sample_events == 2
    assert perf.cache_misses == pytest.approx(2 * perf.misses_per_sample)
    assert perf.page_faults == pytest.approx(2 * perf.faults_per_sample)


def test_migration_costs():
    perf = PerfCounters()
    perf.record_migration()
    assert perf.migrations == 1
    assert perf.cache_misses == pytest.approx(perf.misses_per_migration)


def test_decision_costs():
    perf = PerfCounters()
    perf.record_decision_event()
    assert perf.decision_events == 1
    assert perf.cache_misses == pytest.approx(perf.misses_per_decision)


def test_execution_baseline():
    perf = PerfCounters()
    perf.record_execution(1e12)
    assert perf.executed_cycles == 1e12
    assert perf.cache_misses == pytest.approx(1e12 * perf.misses_per_cycle)
    with pytest.raises(ValueError):
        perf.record_execution(-1.0)


def test_sampling_dominates_overhead_counters():
    """Figure 6's premise: per-sample cost dwarfs the execution baseline
    for realistic run lengths."""
    perf = PerfCounters()
    perf.record_execution(5e12)  # a full tachyon run's cycles
    baseline = perf.cache_misses
    for _ in range(600):  # 600 s at 1 s sampling
        perf.record_sample_event()
    assert perf.cache_misses - baseline > 4 * baseline


# ---------------------------------------------------------------------------
# Sensor EMA filtering
# ---------------------------------------------------------------------------


def quiet_sensor(ema_tau=0.0):
    return SensorConfig(noise_std_c=0.0, quantisation_c=0.0, ema_tau_s=ema_tau)


def test_unfiltered_sensor_tracks_instantly():
    bank = SensorBank(1, quiet_sensor(), seed=0)
    assert bank.read([40.0])[0] == 40.0
    assert bank.read([60.0])[0] == 60.0


def test_filtered_sensor_lags_steps():
    bank = SensorBank(1, quiet_sensor(ema_tau=4.0), seed=0, sample_period_s=1.0)
    bank.read([40.0])  # seeds the filter
    first_after_step = bank.read([60.0])[0]
    assert 40.0 < first_after_step < 60.0
    # Converges to the new level after many samples.
    for _ in range(50):
        reading = bank.read([60.0])[0]
    assert reading == pytest.approx(60.0, abs=0.5)


def test_filtered_sensor_smooths_oscillation():
    fast = SensorBank(1, quiet_sensor(), seed=0)
    slow = SensorBank(1, quiet_sensor(ema_tau=4.0), seed=0, sample_period_s=1.0)
    fast_span, slow_span = [], []
    for i in range(60):
        t = [50.0 + (8.0 if i % 2 else -8.0)]
        fast_span.append(fast.read(t)[0])
        slow_span.append(slow.read(t)[0])
    assert max(slow_span[10:]) - min(slow_span[10:]) < max(fast_span) - min(fast_span)


@pytest.mark.parametrize(
    "policy, alpha",
    [
        ("proposed", 0.5276),  # 1 - exp(-3/4): the 3 s sampling interval
        ("ge", 0.5276),  # the 3 s learning interval
        ("linux", 0.2212),  # 1 - exp(-1/4): nobody reads it, the 1 s default
    ],
)
def test_manager_bank_filters_at_its_read_period(policy, alpha):
    """On a filtered platform (tau = 4 s) the manager's sensor bank
    discretises the low-pass filter for the period its manager reads at."""
    platform = PlatformConfig(sensor=replace(PlatformConfig().sensor, ema_tau_s=4.0))
    spec = workload_job("tachyon", None, policy, platform=platform, iteration_scale=0.1)
    sim = build_simulation(spec)
    assert sim._manager_sensors._ema_alpha == pytest.approx(alpha, abs=5e-5)


# ---------------------------------------------------------------------------
# Ambient drift
# ---------------------------------------------------------------------------


def drift_platform(sigma, tau=8.0):
    base = PlatformConfig()
    return PlatformConfig(
        thermal=replace(
            base.thermal, ambient_drift_sigma_c=sigma, ambient_drift_tau_s=tau
        )
    )


def test_no_drift_keeps_ambient_fixed():
    chip = Chip(PlatformConfig(), seed=1)
    for _ in range(100):
        chip.step([0.0] * 4, [1.6e9] * 4, 0.1)
    assert chip.thermal.ambient_c == PlatformConfig().thermal.ambient_c


def test_drift_moves_ambient_but_stays_bounded():
    chip = Chip(drift_platform(sigma=1.0), seed=1)
    values = []
    for _ in range(5000):
        chip.step([0.0] * 4, [1.6e9] * 4, 0.1)
        values.append(chip.thermal.ambient_c)
    values = np.array(values)
    assert values.std() > 0.2  # it actually fluctuates
    assert np.all(np.abs(values - 30.0) < 8.0)  # OU stays near the mean


def test_drift_is_seed_deterministic():
    def run(seed):
        chip = Chip(drift_platform(sigma=1.0), seed=seed)
        for _ in range(50):
            chip.step([0.0] * 4, [1.6e9] * 4, 0.1)
        return chip.thermal.ambient_c

    assert run(3) == run(3)
    assert run(3) != run(4)
