"""Tests for the baseline policies (Linux, Ge & Qiu, static)."""

import pytest

from repro.baselines.ge_qiu import GeQiuThermalManager
from repro.baselines.static_policy import StaticPolicyManager
from repro.config import GeQiuConfig
from repro.experiments.runner import build_manager
from repro.sched.affinity import mapping_by_name
from repro.soc.simulator import Simulation
from repro.workloads.alpbench import make_application


def short_app(name="mpeg_dec", iters=10, seed=5):
    from dataclasses import replace

    from repro.workloads.application import Application

    app = make_application(name, seed=seed)
    return Application(replace(app.spec, iterations=iters), metric=app.metric, seed=seed)


# ---------------------------------------------------------------------------
# Linux default
# ---------------------------------------------------------------------------


def test_linux_simulation_has_no_manager():
    """Plain Linux is a simulation with no thermal manager: the runner's
    ``linux`` policy builds none, and the default governor is ondemand."""
    manager, governor, userspace = build_manager("linux")
    assert manager is None and userspace is None
    sim = Simulation([short_app()], governor=governor, manager=manager, max_time_s=2000)
    assert sim.manager is None
    assert sim.governor.name == "ondemand"
    result = sim.run()
    assert result.completed


def test_linux_other_governor():
    sim = Simulation([short_app()], governor="powersave", max_time_s=2000)
    assert sim.manager is None
    assert sim.governor.name == "powersave"


# ---------------------------------------------------------------------------
# Static policy
# ---------------------------------------------------------------------------


def test_static_policy_applies_governor_and_mapping():
    manager = StaticPolicyManager(
        "userspace", 2.4e9, mapping=mapping_by_name("cluster_2")
    )
    sim = Simulation([short_app()], manager=manager, seed=1, max_time_s=2000)
    result = sim.run()
    assert result.completed
    assert result.manager_stats["applied"] == 1.0
    assert sim.governor.frequencies() == [2.4e9] * 4


def test_static_policy_keeps_default_governor_when_none():
    manager = StaticPolicyManager(mapping=mapping_by_name("spread_rr"))
    sim = Simulation([short_app()], governor="ondemand", manager=manager, seed=1, max_time_s=2000)
    sim.run()
    assert sim.governor.name == "ondemand"


# ---------------------------------------------------------------------------
# Ge & Qiu
# ---------------------------------------------------------------------------


def test_ge_actuates_userspace_frequencies():
    manager = GeQiuThermalManager()
    sim = Simulation([short_app(iters=20)], manager=manager, seed=1, max_time_s=4000)
    result = sim.run()
    assert result.completed
    assert result.manager_stats["steps"] > 5
    assert sim.governor.name.startswith("userspace")


def test_ge_reward_shape():
    manager = GeQiuThermalManager()
    manager._frequencies = [1.6e9, 3.4e9]
    cfg = manager.config
    # Below threshold: frequency-proportional performance reward.
    low = manager._reward(cfg.temp_threshold_c - 5.0, 1.6e9)
    high = manager._reward(cfg.temp_threshold_c - 5.0, 3.4e9)
    assert high > low > 0.0
    # Above threshold: penalty growing with the excursion.
    mild = manager._reward(cfg.temp_threshold_c + 2.0, 3.4e9)
    severe = manager._reward(cfg.temp_threshold_c + 20.0, 3.4e9)
    assert severe < mild < 0.0


def test_ge_temperature_state_bins():
    manager = GeQiuThermalManager()
    import numpy as np

    def state(temps_c):
        """The state ``on_tick`` bins: the hottest core's temperature."""
        return manager._bin_of(manager._hottest_core_c(np.array(temps_c, dtype=float)))

    low, high = manager.config.temp_range_c
    assert state([low] * 4) == 0
    assert state([high + 10] * 4) == manager.config.num_temp_bins - 1
    # The hottest core defines the state.
    assert state([low, low, high, low]) == manager.config.num_temp_bins - 1


def test_ge_base_ignores_switch_signal():
    manager = GeQiuThermalManager(react_to_app_switch=False)
    sim = Simulation(
        [short_app(seed=1), short_app(seed=2)], manager=manager, seed=1, max_time_s=4000
    )
    result = sim.run()
    assert result.manager_stats["switch_resets"] == 0.0


def test_ge_modified_resets_on_switch():
    manager = GeQiuThermalManager(react_to_app_switch=True)
    sim = Simulation(
        [short_app(seed=1), short_app(seed=2)], manager=manager, seed=1, max_time_s=4000
    )
    result = sim.run()
    assert result.manager_stats["switch_resets"] == 1.0


def test_ge_learning_persists_across_attach():
    """Re-attaching (a second measurement pass) keeps the Q-table."""
    manager = GeQiuThermalManager()
    sim1 = Simulation([short_app(iters=15, seed=1)], manager=manager, seed=1, max_time_s=4000)
    sim1.run()
    table = manager._qtable
    sim2 = Simulation([short_app(iters=5, seed=2)], manager=manager, seed=2, max_time_s=4000)
    sim2.run()
    assert manager._qtable is table


def test_ge_config_override():
    manager = GeQiuThermalManager(GeQiuConfig(interval_s=6.0))
    assert manager.config.interval_s == 6.0
