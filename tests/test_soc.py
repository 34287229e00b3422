"""Tests for the chip composition and the simulation engine."""

import numpy as np
import pytest

from repro.config import PlatformConfig
from repro.soc.chip import Chip
from repro.soc.simulator import AppRecord, Simulation, ThermalManagerBase
from repro.workloads.alpbench import make_application


# ---------------------------------------------------------------------------
# Chip
# ---------------------------------------------------------------------------


@pytest.fixture
def chip(platform):
    return Chip(platform, seed=0)


def test_chip_step_heats_active_cores(chip, platform):
    before = chip.core_temps_c().copy()
    for _ in range(100):
        chip.step([1.0, 0.0, 0.0, 0.0], [3.4e9] * 4, platform.dt)
    after = chip.core_temps_c()
    assert after[0] > before[0] + 5.0
    assert after[0] == max(after)


def test_chip_energy_accumulates(chip, platform):
    chip.step([0.5] * 4, [2.4e9] * 4, platform.dt)
    assert chip.energy.dynamic_j > 0.0
    assert chip.energy.static_j > 0.0


def test_chip_warm_start_idle(chip, platform):
    chip.warm_start_idle()
    temps = chip.core_temps_c()
    ambient = platform.thermal.ambient_c
    assert np.all(temps > ambient + 1.0)
    assert np.all(temps < ambient + 10.0)


def test_chip_sensor_read_near_truth(chip):
    chip.warm_start_idle()
    truth = chip.core_temps_c()
    readings = chip.read_sensors()
    assert np.all(np.abs(readings - truth) < 2.5)


def test_chip_validates_widths(chip, platform):
    with pytest.raises(ValueError):
        chip.step([0.5] * 2, [2.4e9] * 4, platform.dt)


def test_chip_full_load_reaches_seventies(platform):
    """Four tachyon-like cores at 3.4 GHz land near the paper's 70 degC
    (tachyon set 1 saturates the chip at ~0.7 activity)."""
    chip = Chip(platform, seed=0)
    chip.warm_start_idle()
    for _ in range(3000):
        chip.step([0.7] * 4, [3.4e9] * 4, platform.dt)
    peak = float(np.max(chip.core_temps_c()))
    assert 63.0 < peak < 85.0


def test_chip_last_core_powers(chip, platform):
    chip.step([1.0, 0.0, 0.0, 0.0], [3.4e9] * 4, platform.dt)
    powers = [d + s for d, s in zip(chip._last_dynamic, chip._last_static)]
    assert powers[0] > powers[1]
    assert all(p > 0.0 for p in powers)  # leakage everywhere


# ---------------------------------------------------------------------------
# Simulation engine
# ---------------------------------------------------------------------------


def short_app(name="mpeg_dec", dataset="clip 1", iters=10, seed=5):
    from dataclasses import replace

    from repro.workloads.application import Application

    app = make_application(name, dataset, seed=seed)
    return Application(replace(app.spec, iterations=iters), metric=app.metric, seed=seed)


def test_simulation_runs_to_completion():
    sim = Simulation([short_app()], governor="ondemand", seed=1, max_time_s=2000)
    result = sim.run()
    assert result.completed
    assert len(result.app_records) == 1
    record = result.app_records[0]
    assert record.completed
    assert record.completed_iterations == 10
    assert record.execution_time_s > 0.0


def test_simulation_profile_recorded():
    sim = Simulation([short_app()], seed=1, max_time_s=2000)
    result = sim.run()
    assert len(result.profile) == pytest.approx(result.total_time_s, abs=2)
    assert result.profile.average_temp_c() > 30.0


def test_simulation_energy_split():
    sim = Simulation([short_app()], seed=1, max_time_s=2000)
    result = sim.run()
    record = result.app_records[0]
    assert record.dynamic_energy_j > 0.0
    assert record.static_energy_j > 0.0
    total = result.energy.dynamic_j
    assert record.dynamic_energy_j <= total + 1e-6


def test_simulation_sequential_applications():
    sim = Simulation([short_app(seed=1), short_app(seed=2)], seed=1, max_time_s=4000)
    result = sim.run()
    assert len(result.app_records) == 2
    first, second = result.app_records
    assert second.start_s >= first.end_s


def test_simulation_timeout_marks_incomplete():
    sim = Simulation([short_app(iters=10000)], seed=1, max_time_s=30.0)
    result = sim.run()
    assert not result.completed
    assert not result.app_records[-1].completed


def test_simulation_requires_applications():
    with pytest.raises(ValueError):
        Simulation([])


def test_governor_switch_api():
    sim = Simulation([short_app()], governor="ondemand", seed=1, max_time_s=2000)
    sim.set_governor("userspace", 2.0e9)
    assert sim.governor.frequencies() == [2.0e9] * 4
    sim.set_governor("powersave")
    sim.step()
    assert sim.governor.frequencies() == [1.6e9] * 4


def test_mapping_switch_api():
    from repro.sched.affinity import mapping_by_name

    sim = Simulation([short_app()], seed=1, max_time_s=2000)
    sim._start_next_app()
    sim.set_mapping(mapping_by_name("cluster_2"))
    for _ in range(5):
        sim.step()
    for thread in sim.current_app.threads:
        if not thread.done:
            assert sim.scheduler.core_of(thread) in (0, 1)


def test_unknown_governor_rejected():
    sim = Simulation([short_app()], seed=1, max_time_s=2000)
    with pytest.raises(ValueError, match="unknown governor"):
        sim.set_governor("turbo_boost")


def test_userspace_governor_requires_frequency():
    sim = Simulation([short_app()], seed=1, max_time_s=2000)
    with pytest.raises(ValueError, match="frequency"):
        sim.set_governor("userspace")


def test_mapping_with_invalid_core_rejected():
    from repro.sched.affinity import AffinityMapping

    sim = Simulation([short_app()], seed=1, max_time_s=2000)
    with pytest.raises(ValueError):
        sim.set_mapping(AffinityMapping(name="bad", masks=((0, 9),)))


def test_sensor_read_charges_overhead():
    sim = Simulation([short_app()], seed=1, max_time_s=2000)
    sim._start_next_app()
    before = sim.perf.sample_events
    sim.read_sensors()
    assert sim.perf.sample_events == before + 1


class RecordingManager(ThermalManagerBase):
    """Test double that records engine callbacks."""

    def __init__(self):
        self.attached = False
        self.ticks = 0
        self.switches = 0

    def attach(self, sim):
        self.attached = True

    def on_tick(self, sim):
        self.ticks += 1

    def on_app_switch(self, sim, app):
        self.switches += 1

    def stats(self):
        return {"ticks": float(self.ticks)}


def test_manager_callbacks():
    manager = RecordingManager()
    sim = Simulation(
        [short_app(seed=1), short_app(seed=2)],
        manager=manager,
        seed=1,
        max_time_s=4000,
    )
    result = sim.run()
    assert manager.attached
    assert manager.ticks > 100
    assert manager.switches == 1  # one app switch, no signal at start
    assert result.manager_stats["ticks"] == manager.ticks


def test_deterministic_given_seed():
    r1 = Simulation([short_app(seed=3)], seed=9, max_time_s=2000).run()
    r2 = Simulation([short_app(seed=3)], seed=9, max_time_s=2000).run()
    assert r1.total_time_s == r2.total_time_s
    assert r1.profile.average_temp_c() == r2.profile.average_temp_c()
    assert r1.energy.dynamic_j == pytest.approx(r2.energy.dynamic_j)
