"""Shared fixtures for the test suite."""

from __future__ import annotations

import functools

import pytest

from repro.config import (
    AgentConfig,
    PlatformConfig,
    ReliabilityConfig,
    default_agent_config,
    default_platform_config,
    default_reliability_config,
)
from repro.power.opp import OppLadder
from repro.thermal.floorplan import Floorplan
from repro.workloads.alpbench import make_application


def render_artefact(module, engine=None, **grid):
    """One artefact the way ``repro <artefact>`` builds it:
    ``module.render(engine.run_grid(module.cells(**grid)))``, on a serial
    uncached engine unless ``engine`` is given."""
    from repro.experiments.engine import ExperimentEngine

    engine = engine if engine is not None else ExperimentEngine()
    return module.render(engine.run_grid(module.cells(**grid)))


@pytest.fixture
def platform() -> PlatformConfig:
    """Default platform configuration."""
    return default_platform_config()


@pytest.fixture
def reliability() -> ReliabilityConfig:
    """Default reliability configuration."""
    return default_reliability_config()


@pytest.fixture
def agent_config() -> AgentConfig:
    """Default agent configuration."""
    return default_agent_config()


@pytest.fixture
def ladder(platform) -> OppLadder:
    """Default OPP ladder."""
    return OppLadder(platform.opp_table)


@pytest.fixture
def floorplan() -> Floorplan:
    """Default 2x2 floorplan."""
    return Floorplan.grid_2x2()


@pytest.fixture
def small_app():
    """A short mpeg_dec application for fast integration tests."""
    from dataclasses import replace

    from repro.workloads.application import Application

    app = make_application("mpeg_dec", "clip 1", seed=7)
    return Application(replace(app.spec, iterations=12), metric=app.metric, seed=7)


@pytest.fixture
def narrow_ensembles(monkeypatch):
    """Lower the planner's member floor to 1 for one test, so the small
    grids of the engine-mechanism tests still run as (sharded)
    ensembles; the default floor would route them scalar."""
    from repro.experiments.engine import planner

    monkeypatch.setattr(planner, "MIN_GROUP", 1)


#: Sweep scale: the smallest at which every app clears the 60 s warm-up
#: skip.
SWEEP_SCALE = 0.12


@pytest.fixture(scope="session")
def sweeps(tmp_path_factory):
    """``sweeps(axis)``: the report of one ``repro all`` sweep axis.

    ``reference`` is the scalar (``ensemble=False``) ``--jobs 1
    --no-cache`` sweep that the others are compared with: ``parallel``
    (scalar ``--jobs 2``, cold cache), ``ensemble_serial`` and
    ``ensemble_sharded`` (the default, ensemble-routed engine at jobs 1
    and 2, cold caches), and ``warm`` and ``ensemble_warm``,
    which rerun the parallel and the sharded sweep on their now-warm
    caches.  Each axis runs on first request and once per session, so
    tier-1 runs the reference sweep once and a module pays only for the
    axes it reads.  Each cache tree is a temporary ``REPRO_CACHE_DIR``,
    so the committed ``results/`` are never touched.
    """
    from repro.experiments.engine import ExperimentEngine, ResultCache
    from repro.experiments.engine.sweep import regenerate_all
    from repro.obs.metrics import MetricsRegistry

    # axis -> (cache tree, jobs, cached, ensemble, the axis whose cache it rereads)
    axes = {
        "reference": ("reference", 1, False, False, None),
        "parallel": ("parallel", 2, True, False, None),
        "warm": ("parallel", 2, True, False, "parallel"),
        "ensemble_serial": ("ensemble-serial", 1, True, True, None),
        "ensemble_sharded": ("ensemble-sharded", 2, True, True, None),
        "ensemble_warm": ("ensemble-sharded", 2, True, True, "ensemble_sharded"),
    }

    @functools.cache
    def root(name):
        return tmp_path_factory.mktemp(name)

    @functools.cache
    def sweep(axis):
        name, jobs, cached, ensemble, after = axes[axis]
        if after is not None:
            sweep(after)
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_CACHE_DIR", str(root(name)))
            # The cache is built inside the patched environment so it
            # lands in the temporary root, exactly as the CLI's would.
            engine = ExperimentEngine(
                jobs=jobs, cache=ResultCache() if cached else None, ensemble=ensemble,
                metrics=MetricsRegistry() if axis in ("reference", "parallel") else None,
            )
            return regenerate_all(iteration_scale=SWEEP_SCALE, seed=1, engine=engine)

    return sweep
