"""End-to-end tests for the fault-injection + supervision wiring.

Covers the acceptance criteria of the robustness layer: a disabled
fault config leaves runs bit-identical to the fault-free engine, every
controller completes on a faulty substrate with sanitised observations,
and the thermal-emergency safe state engages at the critical threshold.
"""

import numpy as np
import pytest

from repro.config import FaultConfig, SupervisorConfig
from repro.experiments import fault_tolerance
from repro.faults import combined_fault_config, default_supervisor_config
from repro.soc.simulator import Simulation, ThermalManagerBase
from tests.conftest import render_artefact
from tests.test_soc import short_app


# ---------------------------------------------------------------------------
# Bit-identity of fault-free runs
# ---------------------------------------------------------------------------


def run_profile(**kwargs):
    sim = Simulation([short_app(seed=3)], seed=9, max_time_s=2000, **kwargs)
    return sim.run()


def test_disabled_fault_config_is_bit_identical():
    baseline = run_profile()
    disabled = run_profile(faults=FaultConfig(enabled=False))
    assert np.array_equal(baseline.profile.as_array(), disabled.profile.as_array())
    assert baseline.total_time_s == disabled.total_time_s
    assert baseline.energy.dynamic_j == disabled.energy.dynamic_j
    assert disabled.fault_stats == {}


def test_disabled_supervisor_config_is_bit_identical():
    baseline = run_profile()
    disabled = run_profile(supervisor=SupervisorConfig(enabled=False))
    assert np.array_equal(baseline.profile.as_array(), disabled.profile.as_array())
    assert baseline.total_time_s == disabled.total_time_s
    assert disabled.supervisor_stats == {}


def test_faulty_runs_are_reproducible():
    a = run_profile(faults=combined_fault_config())
    b = run_profile(faults=combined_fault_config())
    assert np.array_equal(a.profile.as_array(), b.profile.as_array())
    assert a.fault_stats == b.fault_stats


# ---------------------------------------------------------------------------
# No NaN reaches a controller when supervised
# ---------------------------------------------------------------------------


class ObservingManager(ThermalManagerBase):
    """Reads the sensors every tick and records what it sees."""

    def __init__(self):
        self.observations = []

    def on_tick(self, sim):
        self.observations.append(sim.read_sensors())


def test_supervised_observations_are_always_sane():
    manager = ObservingManager()
    sim = Simulation(
        [short_app(iters=30)],
        manager=manager,
        seed=1,
        max_time_s=2000,
        faults=combined_fault_config(),
        supervisor=default_supervisor_config(),
    )
    result = sim.run()
    assert result.completed
    assert manager.observations
    sensor = sim.platform.sensor
    observed = np.asarray(manager.observations)
    assert np.all(np.isfinite(observed))
    assert np.all(observed >= sensor.min_c)
    assert np.all(observed <= sensor.max_c)
    # Faults were actually injected and repaired, not absent.
    assert result.fault_stats["dropouts"] > 0
    assert result.supervisor_stats["sensor_median_fallbacks"] > 0


def test_unsupervised_faulty_observations_do_contain_nan():
    """Sanity check on the fixture: without the supervisor the same
    fault schedule really does deliver NaN to the controller."""
    manager = ObservingManager()
    sim = Simulation(
        [short_app(iters=30)],
        manager=manager,
        seed=1,
        max_time_s=2000,
        faults=combined_fault_config(),
    )
    sim.run()
    observed = np.asarray(manager.observations)
    assert np.any(~np.isfinite(observed))


# ---------------------------------------------------------------------------
# Thermal emergency
# ---------------------------------------------------------------------------


def test_emergency_engages_at_critical_threshold():
    """With the critical threshold set below the chip's operating
    temperature the watchdog must clamp the platform immediately."""
    supervisor = SupervisorConfig(
        enabled=True, critical_temp_c=36.0, emergency_release_c=20.0
    )
    sim = Simulation(
        [short_app(iters=30)],
        governor="performance",
        seed=1,
        max_time_s=2000,
        supervisor=supervisor,
    )
    result = sim.run()
    assert result.completed
    assert result.supervisor_stats["emergencies"] >= 1
    assert result.supervisor_stats["emergency_time_s"] > 0.0
    # The clamp forces the minimum operating point.
    assert sim.governor.frequencies() == [sim.platform.min_frequency()] * 4


def test_all_policies_complete_on_faulty_substrate():
    result = render_artefact(
        fault_tolerance,
        iteration_scale=0.02,
        policies=("linux", "ge", "proposed"),
        fault_modes=("sensor",),
    )
    assert len(result.rows) == 6
    for row in result.rows:
        assert row.summary.completed, (row.policy, row.fault_mode, row.supervised)
    table = result.format_table()
    assert "supervisor" in table
    assert "tcMTTF_y" in table
