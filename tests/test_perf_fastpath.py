"""Fast-path building blocks: power table, thermal buffers, profile
storage, the SectionTimer and its observation-only attachment, the CLI
profiling flag and the satellite APIs.

Everything here guards one claim: the optimized tick loop is
*bit-identical* to the seed arithmetic.  ``tests/test_perf_timer.py``
covers the SectionTimer's accounting in more depth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PlatformConfig
from repro.perf import SectionTimer
from repro.power.dynamic import dynamic_power_w
from repro.power.leakage import leakage_power_w
from repro.power.opp import OppLadder
from repro.sched.affinity import AffinityMapping, mapping_by_name
from repro.sched.governors import make_governor
from repro.soc.chip import Chip
from repro.soc.simulator import Simulation
from repro.thermal.floorplan import Floorplan
from repro.thermal.profile import ThermalProfile
from repro.thermal.rc_model import RCThermalModel
from repro.workloads.alpbench import make_application

PLATFORM = PlatformConfig()
LADDER = OppLadder(PLATFORM.opp_table)


# ----------------------------------------------------------------------
# Power table
# ----------------------------------------------------------------------


#: Activity factors the power checks cycle through.
ACTIVITIES = (0.0, 0.03, 0.25, 0.5, 0.85, 1.0)


def step_powers(chip, activities, frequencies_hz):
    """One ``Chip.step``: the per-core dynamic and leakage powers it
    evaluated, and the core temperatures it evaluated them at."""
    temps = chip.core_temps_c().tolist()
    chip.step(activities, frequencies_hz, PLATFORM.dt)
    return chip._last_dynamic, chip._last_static, temps


def assert_step_matches_free_functions(chip, activities, frequencies_hz, voltage):
    """The chip's powers equal the seed's free functions, bit for bit."""
    dynamic, static, temps = step_powers(chip, activities, frequencies_hz)
    for core, (activity, frequency) in enumerate(zip(activities, frequencies_hz)):
        assert dynamic[core] == dynamic_power_w(
            activity, voltage, frequency, PLATFORM.power
        )  # exact, not approx
        assert static[core] == leakage_power_w(temps[core], voltage, PLATFORM.power)


class TestPowerTable:
    """``Chip.step`` evaluates per-core power from the table's entries."""

    def test_matches_free_functions_across_ladder_and_temperatures(self):
        """Exact (bitwise) agreement with the seed's free functions."""
        chip = Chip(PLATFORM, seed=0)
        cores = PLATFORM.num_cores
        temps = np.linspace(20.0, 110.0, 19).tolist()
        for point in LADDER.points:
            for i in range(len(temps)):
                chip.thermal.set_state(
                    [temps[(i + c) % len(temps)] for c in range(cores)] + [40.0]
                )
                activities = [ACTIVITIES[(i + c) % len(ACTIVITIES)] for c in range(cores)]
                assert_step_matches_free_functions(
                    chip, activities, [point.frequency_hz] * cores, point.voltage_v
                )

    def test_cached_coefficients_are_exact_identities(self):
        chip = Chip(PLATFORM, seed=0)
        cores = PLATFORM.num_cores
        for entry in chip.power_table.entries:
            # At full activity and 0 °C (exp(t_leak * 0) == 1) the chip's
            # powers are c_eff·V²·f and the entry's cached leakage
            # prefactor, exactly.
            chip.thermal.set_state([0.0] * (cores + 1))
            dynamic, static, _ = step_powers(
                chip, [1.0] * cores, [entry.frequency_hz] * cores
            )
            v, f = entry.voltage_v, entry.frequency_hz
            assert dynamic == [PLATFORM.power.c_eff * v * v * f] * cores
            assert static == [entry.leakage_scale_w] * cores

    def test_uses_caller_frequency_like_the_seed_chip(self):
        """Tolerant (±1 Hz) lookups keep the caller's frequency in the chain."""
        chip = Chip(PLATFORM, seed=0)
        cores = PLATFORM.num_cores
        for point in LADDER.points:
            off_hz = point.frequency_hz + 0.5  # matches the same rung
            assert_step_matches_free_functions(
                chip, [0.7] * cores, [off_hz] * cores, point.voltage_v
            )

    def test_unknown_frequency_raises_keyerror(self):
        chip = Chip(PLATFORM, seed=0)
        cores = PLATFORM.num_cores
        with pytest.raises(KeyError):
            chip.step([0.5] * cores, [123.0] * cores, PLATFORM.dt)

    def test_activity_range_validated(self):
        chip = Chip(PLATFORM, seed=0)
        cores = PLATFORM.num_cores
        frequencies = [LADDER.max_point.frequency_hz] * cores
        with pytest.raises(ValueError):
            chip.step([1.5] + [0.5] * (cores - 1), frequencies, PLATFORM.dt)


# ----------------------------------------------------------------------
# Thermal fast path
# ----------------------------------------------------------------------


class TestThermalFastPath:
    def test_step_into_identical_to_checked_step(self):
        plan = Floorplan(
            num_cores=PLATFORM.num_cores, adjacency=PLATFORM.core_adjacency
        )
        checked = RCThermalModel(plan, PLATFORM.thermal, PLATFORM.dt)
        unchecked = RCThermalModel(plan, PLATFORM.thermal, PLATFORM.dt)
        rng = np.random.default_rng(5)
        for _ in range(500):
            powers = [float(p) for p in rng.uniform(0.0, 30.0, PLATFORM.num_cores)]
            spreader = float(rng.uniform(0.0, 5.0))
            checked.step(powers, spreader_power_w=spreader)
            unchecked._step_into(powers, spreader)
        assert np.array_equal(checked._temps, unchecked._temps)  # bitwise

    def test_step_still_validates(self):
        plan = Floorplan(
            num_cores=PLATFORM.num_cores, adjacency=PLATFORM.core_adjacency
        )
        model = RCThermalModel(plan, PLATFORM.thermal, PLATFORM.dt)
        with pytest.raises(ValueError):
            model.step([1.0])  # wrong length


class TestThermalProfile:
    def test_growth_past_initial_capacity(self):
        profile = ThermalProfile(2, 1.0)
        samples = [[float(i), float(i) * 0.5] for i in range(300)]
        for sample in samples:
            profile.append(sample)
        assert len(profile) == 300
        assert profile.core_series(0) == [s[0] for s in samples]
        assert profile.core_series(1) == [s[1] for s in samples]

    def test_as_array_layout_matches_seed(self):
        """(n_samples, n_cores), same as np.array(series_lists).T."""
        profile = ThermalProfile(3, 1.0)
        for i in range(70):  # crosses the initial 64-column capacity
            profile.append([i + 0.1, i + 0.2, i + 0.3])
        array = profile.as_array()
        expected = np.array(
            [profile.core_series(c) for c in range(3)]
        ).T
        assert array.shape == (70, 3)
        assert np.array_equal(array, expected)

    def test_extend_tail_window_on_grown_storage(self):
        profile = ThermalProfile(2, 0.5)
        other = ThermalProfile(2, 0.5)
        for i in range(150):
            other.append([float(i), 100.0 - i])
        profile.extend(other)
        profile.extend(other)  # forces growth past the copied capacity
        assert len(profile) == 300
        tail = profile.tail(10)
        assert len(tail) == 10
        assert tail.core_series(0) == [float(i) for i in range(140, 150)]
        window = profile.window(5.0, 10.0)  # samples 10..19 at 0.5 s
        assert len(window) == 10
        assert window.core_series(0)[0] == 10.0
        # The seed's `lst[-0:]` quirk: num_samples=0 means "everything".
        assert len(profile.tail(0)) == 300


# ----------------------------------------------------------------------
# SectionTimer + CLI profiling flags
# ----------------------------------------------------------------------


class TestSectionTimer:
    def test_lap_accumulates_and_orders_sections(self):
        timer = SectionTimer()
        mark = timer.now()
        timer.add("slow", 0.5)
        timer.add("fast", 0.1)
        mark = timer.lap("fast", mark)
        timer.count_tick()
        totals = timer.totals()
        assert list(totals)[0] == "slow"  # sorted descending by cost
        assert totals["fast"] >= 0.1
        assert timer.ticks == 1

    def test_reset(self):
        timer = SectionTimer()
        timer.add("a", 1.0)
        timer.count_tick()
        timer.reset()
        assert timer.totals() == {}
        assert timer.ticks == 0


class TestBenchHarness:
    def test_cli_flags_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        # The legacy `bench` subcommand is retired; perfbench/ replaces it.
        with pytest.raises(SystemExit):
            parser.parse_args(["bench", "--quick", "--check-against", "x.json"])
        args = parser.parse_args(["run", "tachyon", "--profile"])
        assert args.profile


# ----------------------------------------------------------------------
# Timed vs untimed trajectory identity
# ----------------------------------------------------------------------


def _quick_sim(seed: int) -> Simulation:
    app = make_application("mpeg_dec", seed=seed)
    sim = Simulation([app], governor="ondemand", seed=seed, max_time_s=None)
    sim.prepare()
    return sim


def test_attached_timer_does_not_change_the_trajectory():
    """Instrumentation must be observation-only: bitwise-equal outcomes."""
    untimed = _quick_sim(9)
    timed = _quick_sim(9)
    timer = SectionTimer()
    timed.attach_timer(timer)
    for _ in range(300):
        untimed.step()
        timed.step()
    assert np.array_equal(
        untimed.chip.core_temps_c(), timed.chip.core_temps_c()
    )
    assert untimed.chip.energy.dynamic_j == timed.chip.energy.dynamic_j
    assert untimed.chip.energy.static_j == timed.chip.energy.static_j
    assert timer.ticks == 300
    assert {"schedule", "app", "governor", "power", "thermal"} <= set(
        timer.totals()
    )


# ----------------------------------------------------------------------
# Satellite APIs: governor inheritance, mapping equality
# ----------------------------------------------------------------------


class TestGovernorInheritance:
    def test_adaptive_flags(self):
        assert make_governor("ondemand", LADDER, 4).adaptive
        assert make_governor("conservative", LADDER, 4).adaptive
        assert not make_governor("performance", LADDER, 4).adaptive
        assert not make_governor("powersave", LADDER, 4).adaptive
        assert not make_governor("userspace", LADDER, 4, 2.0e9).adaptive

    def test_inherit_frequencies(self):
        governor = make_governor("conservative", LADDER, 4)
        handover = [2.4e9, 2.0e9, 3.4e9, 1.6e9]
        governor.inherit_frequencies(handover)
        assert governor.frequencies() == handover
        with pytest.raises(ValueError):
            governor.inherit_frequencies([2.4e9])  # wrong length

    def test_governor_switch_inherits_running_clocks(self):
        sim = _quick_sim(2)
        for _ in range(50):
            sim.step()
        before = sim.governor.frequencies()
        sim.set_governor("conservative")
        assert sim.governor.name == "conservative"
        assert sim.governor.frequencies() == before


class TestMappingEquality:
    def test_equal_masks_equal_mappings(self):
        a = mapping_by_name("paired_2211")
        b = AffinityMapping("rebuilt elsewhere", a.masks)
        assert a == b  # the name is a label, not a constraint
        assert hash(a) == hash(b)
        assert a != mapping_by_name("spread_rr")
        assert a.__eq__(42) is NotImplemented

    def test_mapping_in_force_by_value(self):
        sim = _quick_sim(3)
        preset = mapping_by_name("cluster_2")
        sim.set_mapping(preset)
        rebuilt = AffinityMapping("supervisor retry", preset.masks)
        assert sim.mapping_in_force(rebuilt)
        assert not sim.mapping_in_force(mapping_by_name("spread_rr"))
        assert not sim.mapping_in_force(None)
        sim.set_mapping(None)
        assert sim.mapping_in_force(None)
        assert not sim.mapping_in_force(preset)
