"""Tests for the proposed run-time manager bound to the simulator."""

import pytest

from repro.config import default_agent_config, default_reliability_config
from repro.core.manager import ProposedThermalManager
from repro.soc.simulator import Simulation
from repro.workloads.alpbench import make_application

from tests.test_core_qtable import total_visits


def short_app(name="mpeg_dec", iters=15, seed=5):
    from dataclasses import replace

    from repro.workloads.application import Application

    app = make_application(name, seed=seed)
    return Application(replace(app.spec, iterations=iters), metric=app.metric, seed=seed)


@pytest.fixture
def manager():
    return ProposedThermalManager(default_agent_config(), default_reliability_config())


def test_manager_samples_at_interval(manager):
    sim = Simulation([short_app(iters=60)], manager=manager, seed=1, max_time_s=200.0)
    result = sim.run()
    # With a 3 s interval and the 200 s cap, ~66 samples.
    assert 55 <= result.perf.sample_events <= 75


def test_manager_decides_at_epochs(manager):
    sim = Simulation([short_app(iters=40)], manager=manager, seed=1, max_time_s=400.0)
    result = sim.run()
    epochs = result.manager_stats["epochs"]
    assert epochs == pytest.approx(result.total_time_s / 30.0, abs=2)
    assert result.perf.decision_events == int(epochs)


def test_manager_actuates(manager):
    sim = Simulation([short_app(iters=60)], manager=manager, seed=1, max_time_s=700.0)
    sim.run()
    assert manager._current_action is not None


def test_manager_ignores_explicit_switch_signal(manager):
    """The proposed approach must not use the application-layer signal."""
    sim = Simulation([short_app(seed=1)], manager=manager, seed=1, max_time_s=100.0)
    sim._start_next_app()
    before_epochs = manager.agent.stats.epochs
    before_visits = total_visits(manager.agent.qtable)
    manager.on_app_switch(sim, sim.current_app)
    assert manager.agent.stats.epochs == before_epochs
    assert total_visits(manager.agent.qtable) == before_visits


def test_manager_stats_exposed(manager):
    sim = Simulation([short_app(iters=20)], manager=manager, seed=1, max_time_s=400.0)
    result = sim.run()
    assert "epochs" in result.manager_stats
    assert "inter_events" in result.manager_stats


def test_unchanged_action_is_not_reapplied(manager):
    """Re-applying the same action must not re-pin threads."""
    sim = Simulation([short_app(iters=60)], manager=manager, seed=1, max_time_s=700.0)
    sim._start_next_app()
    action = manager.agent.actions[1]  # a pinned mapping
    manager._apply(sim, action, sim.current_app)
    migrations_after_first = sim.perf.migrations
    manager._apply(sim, action, sim.current_app)
    assert sim.perf.migrations == migrations_after_first
