"""Property-based round-trip tests of the checkpoint state codec.

Capture/restore must be lossless for every stateful component of the
simulation closure: capturing a live object, restoring the snapshot into
a freshly built twin, and capturing again must reproduce the snapshot
bit-for-bit (via the canonical JSON encoding, which also proves every
snapshot is JSON-serializable).  Hypothesis drives the objects to
arbitrary mid-run states first, so the property holds for more than the
pristine post-``prepare`` state.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    CheckpointStateError,
    capture_simulation,
    capture_state,
    restore_simulation,
    restore_state,
    serialize_checkpoint,
)
from repro.config import FaultConfig, SensorConfig, SupervisorConfig
from repro.experiments.runner import build_manager
from repro.soc.simulator import Simulation
from repro.thermal.sensors import SensorBank
from repro.workloads.alpbench import make_application

#: Every manager kind build_manager makes: none, static, Ge & Qiu (plain
#: and modified) and the proposed agent.
POLICIES = ("linux", "ge", "ge_modified", "powersave", "userspace@2.4", "proposed")


def _canonical(state) -> bytes:
    return serialize_checkpoint({"state": state})


def _from_disk(state):
    """The snapshot as a resume reads it back (canonical JSON)."""
    return json.loads(_canonical(state))["state"]


def _build_sim(
    seed: int, policy: str = "linux", faults: bool = False, supervised: bool = False
) -> Simulation:
    manager, governor, frequency_hz = build_manager(policy)
    return Simulation(
        [make_application("tachyon", None, seed=seed)],
        governor=governor,
        userspace_frequency_hz=frequency_hz,
        manager=manager,
        seed=seed,
        faults=FaultConfig(enabled=True) if faults else None,
        supervisor=SupervisorConfig(enabled=True) if supervised else None,
        max_time_s=20000.0,
    )


def _stepped_sim(seed: int, ticks: int, **options):
    sim = _build_sim(seed, **options)
    sim.prepare()
    for _ in range(ticks):
        sim.step()
    return sim


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=64))
@settings(max_examples=20, deadline=None)
def test_rng_state_round_trip(seed, draws):
    source = SensorBank(4, SensorConfig(), seed=seed)
    source._rng.random(draws)
    state = capture_state(source)

    target = SensorBank(4, SensorConfig(), seed=0)
    restore_state(target, _from_disk(state))
    assert _canonical(capture_state(target)) == _canonical(state)
    # Restored streams continue identically.
    assert target._rng.random(8).tolist() == source._rng.random(8).tolist()


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=300))
@settings(max_examples=6, deadline=None)
def test_chip_state_round_trip(seed, ticks):
    sim = _stepped_sim(seed, ticks)
    state = capture_state(sim.chip)

    twin = _build_sim(seed)
    twin.prepare()
    restore_state(twin.chip, _from_disk(state))
    assert _canonical(capture_state(twin.chip)) == _canonical(state)


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=300))
@settings(max_examples=6, deadline=None)
def test_fault_injector_state_round_trip(seed, ticks):
    sim = _stepped_sim(seed, ticks, faults=True)
    state = capture_state(sim._fault_injector)

    twin = _build_sim(seed, faults=True)
    twin.prepare()
    restore_state(twin._fault_injector, _from_disk(state))
    assert _canonical(capture_state(twin._fault_injector)) == _canonical(state)


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=400))
@settings(max_examples=5, deadline=None)
def test_agent_state_round_trip(seed, ticks):
    sim = _stepped_sim(seed, ticks, policy="proposed")
    state = capture_state(sim.manager.agent)

    twin = _build_sim(seed, policy="proposed")
    twin.prepare()
    restore_state(twin.manager.agent, _from_disk(state))
    assert _canonical(capture_state(twin.manager.agent)) == _canonical(state)


@given(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=250),
    st.sampled_from(POLICIES),
    st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_full_simulation_round_trip(seed, ticks, policy, supervised):
    options = dict(policy=policy, faults=True, supervised=supervised)
    sim = _stepped_sim(seed, ticks, **options)
    state = capture_simulation(sim)

    twin = _build_sim(seed, **options)
    restore_simulation(twin, _from_disk(state))
    assert _canonical(capture_simulation(twin)) == _canonical(state)
    # Both continue identically from the restored tick.
    for _ in range(40):
        sim.step()
        twin.step()
    assert _canonical(capture_simulation(twin)) == _canonical(capture_simulation(sim))


@pytest.mark.parametrize(
    "component", ["_fault_injector", "_sensor_supervisor", "_actuation_supervisor"]
)
@pytest.mark.parametrize("only_in", ["snapshot", "simulation"])
def test_restore_rejects_a_component_on_one_side_only(component, only_in):
    state = capture_simulation(_stepped_sim(3, 60, faults=True, supervised=True))
    twin = _build_sim(3, faults=True, supervised=True)
    if only_in == "snapshot":
        setattr(twin, component, None)
    else:
        state[component] = None
    with pytest.raises(CheckpointStateError, match=f"Simulation.{component}"):
        restore_simulation(twin, _from_disk(state))

