"""Scalar parity of :class:`repro.ensemble.member_view.EnsembleMember`.

A manager driven by the ensemble engine sees an ``EnsembleMember``
instead of the real :class:`Simulation`: the same manager-facing code
over the member's rows of the batched arrays.  These tests run a scalar simulation
and a single-member ensemble in lockstep and assert that everything the
manager (and, through it, a checkpoint capture) reads off the facade —
clock, current application, mapping, chip ladder, sensor readings — is
equal to the scalar object's, tick after tick; and that the facade's
actuation methods mutate the batched state exactly like the scalar
calls (verified bitwise through the final results).
"""

import numpy as np
import pytest

from repro.ensemble.engine import EnsembleSimulation
from repro.sched.affinity import AffinityMapping
from repro.soc.simulator import KNOWN_GOVERNORS

from tests.test_differential import FAULTS, HALF, SCENARIO_BATCH, SUPERVISED, build_sim, member


def _lockstep_pair(app="mpeg_dec", policy="proposed", seed=21, **kwargs):
    """A scalar sim and an adopted single-member ensemble, both fresh."""
    scalar = build_sim(member(app, policy, seed, **kwargs))
    scalar.prepare()
    ensemble = EnsembleSimulation([build_sim(member(app, policy, seed, **kwargs))])
    ensemble.prepare()
    return scalar, ensemble


def _step_both(scalar, ensemble, ticks):
    for _ in range(ticks):
        scalar.step()
        ensemble.step()
        ensemble.advance()


class TestObservationParity:
    def test_static_surface_matches(self):
        scalar, ensemble = _lockstep_pair()
        view = ensemble.members[0]
        # Built from twin specs, not shared objects: compare by value.
        assert view.chip.ladder.points == scalar.chip.ladder.points
        assert view.obs is None
        assert view.mapping == scalar.mapping
        # The harness's learning workloads, one with the default action
        # menu and one with a Fig. 8-sized menu, share the batched plane.
        learners = EnsembleSimulation([
            build_sim(spec) for spec in SCENARIO_BATCH
            if spec.kind == "workload" and spec.policy == "proposed"
        ])
        learners.prepare()
        menus = [len(state.manager.agent.actions) for state in learners.members]
        assert len(set(menus)) == 2
        assert learners._control._is_batched.all()

    def test_clock_and_app_surface_track_the_scalar_run(self):
        scalar, ensemble = _lockstep_pair()
        view = ensemble.members[0]
        for _ in range(5):
            _step_both(scalar, ensemble, 37)
            assert view.now == scalar.now
            app = view.current_app
            assert app.name == scalar.current_app.name
            assert app.spec == scalar.current_app.spec
            assert (
                app.completed_iterations
                == scalar.current_app.completed_iterations
            )
            for window in (None, 1.0, 5.0):
                assert app.throughput(window) == scalar.current_app.throughput(
                    window
                )
                assert app.performance_satisfied(
                    window
                ) == scalar.current_app.performance_satisfied(window)

    def test_read_sensors_matches_bitwise_and_charges_the_same_cost(self):
        # Fault-free first: readings equal the clean scalar samples.
        scalar, ensemble = _lockstep_pair(app="tachyon", policy="linux")
        view = ensemble.members[0]
        _step_both(scalar, ensemble, 50)
        a = scalar.read_sensors()
        b = view.read_sensors()
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert scalar.perf.sample_events == int(
            ensemble.perf.sample_events[0]
        )
        # Both sides charged SAMPLE_OVERHEAD_S: stepping on stays equal.
        _step_both(scalar, ensemble, 50)
        assert view.now == scalar.now

    def test_read_sensors_matches_under_faults(self):
        scalar, ensemble = _lockstep_pair(app="tachyon", policy="linux", faults=FAULTS)
        view = ensemble.members[0]
        _step_both(scalar, ensemble, 40)
        for _ in range(5):
            a = np.asarray(scalar.read_sensors())
            b = np.asarray(view.read_sensors())
            # NaN dropouts compare unequal; compare the raw bytes.
            assert a.tobytes() == b.tobytes()


class TestActuationParity:
    def test_set_governor_rejects_what_the_scalar_rejects(self):
        _, ensemble = _lockstep_pair()
        view = ensemble.members[0]
        with pytest.raises(ValueError, match="unknown governor"):
            view.set_governor("warp-speed")
        with pytest.raises(ValueError, match="explicit frequency"):
            view.set_governor("userspace")
        assert "ondemand" in KNOWN_GOVERNORS

    def test_set_mapping_validates_against_the_platform(self):
        _, ensemble = _lockstep_pair()
        view = ensemble.members[0]
        bad = AffinityMapping("wide", (frozenset({99}),))
        with pytest.raises(ValueError):
            view.set_mapping(bad)

    def test_identical_actuation_scripts_stay_bit_identical(self):
        """Drive the same actuation sequence through both facades; the
        thermal/energy/perf state they produce stays bitwise equal."""
        scalar, ensemble = _lockstep_pair(app="mpeg_enc", policy="linux")
        view = ensemble.members[0]
        script = [
            (40, lambda s: s.set_governor("powersave")),
            (40, lambda s: s.set_mapping(HALF)),
            (40, lambda s: s.charge_decision_overhead()),
            (40, lambda s: s.set_governor("userspace", 1.2e9)),
            (40, lambda s: s.set_mapping(None)),
            (40, lambda s: s.set_governor("ondemand")),
        ]
        for ticks, act in script:
            _step_both(scalar, ensemble, ticks)
            act(scalar)
            act(view)
            assert view.mapping == scalar.mapping
        # The actuation history feeds power, temperature and energy; if
        # any facade call diverged, these comparisons break bitwise.
        _step_both(scalar, ensemble, 120)
        assert view.now == scalar.now
        a = np.asarray(scalar.read_sensors())
        b = np.asarray(view.read_sensors())
        assert a.tobytes() == b.tobytes()
        assert float(ensemble.chip.dynamic_j[0]) == scalar.chip.energy.dynamic_j
        assert float(ensemble.chip.static_j[0]) == scalar.chip.energy.static_j
        app = view.current_app
        assert app.completed_iterations == scalar.current_app.completed_iterations
        assert app.throughput(None) == scalar.current_app.throughput(None)

    def test_supervised_read_backs_and_emergency_track_the_scalar(self):
        """Under actuation faults and a supervisor, the read-backs the
        supervisor verifies with agree with the scalar ones before and
        after every request, and a thermal emergency parks and restores
        the governor exactly as the scalar engine does."""
        scalar, ensemble = _lockstep_pair(
            app="mpeg_enc", policy="linux", faults=FAULTS, supervisor=SUPERVISED
        )
        view = ensemble.members[0]
        probes = [(name, None) for name in KNOWN_GOVERNORS if name != "userspace"]
        probes += [("userspace", None), ("userspace", 1.2e9), ("userspace", 2.0e9)]

        def assert_same_read_backs():
            for name, hz in probes:
                assert view.governor_in_force(name, hz) == scalar.governor_in_force(name, hz)
            for mapping in (None, HALF):
                assert view.mapping_in_force(mapping) == scalar.mapping_in_force(mapping)

        script = [
            (30, lambda s: s.set_governor("userspace", 1.2e9)),
            (30, lambda s: s.set_mapping(HALF)),
            (30, lambda s: s._engage_thermal_emergency()),
            (30, lambda s: s._release_thermal_emergency()),
            (30, lambda s: s.set_governor("conservative")),
            (30, lambda s: s._engage_thermal_emergency()),
            (30, lambda s: s._release_thermal_emergency()),
        ]
        for ticks, act in script:
            _step_both(scalar, ensemble, ticks)
            assert_same_read_backs()
            act(scalar)
            act(view)
            assert_same_read_backs()
        _step_both(scalar, ensemble, 120)
        assert float(ensemble.chip.dynamic_j[0]) == scalar.chip.energy.dynamic_j
        supervisor = ensemble.members[0]._actuation_supervisor
        assert supervisor.stats(view.now) == scalar._actuation_supervisor.stats(scalar.now)
