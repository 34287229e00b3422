"""Observability must be observation-only.

The acceptance contract of the obs layer: attaching an
:class:`~repro.obs.instrument.Instrumentation` to a run changes
*nothing* about the simulated trajectory — the result and summary
digest of :mod:`tests.test_differential` (every reported statistic, the
tick-for-tick thermal profile, the fault and supervisor counters) is
byte-identical to the uninstrumented run's.  No tolerances.  A second
class checks the trace an instrumented run emits against its schema and
its run summary.
"""

import numpy as np
import pytest

from repro.faults.presets import combined_fault_config, default_supervisor_config
from repro.obs.trace import summarize_events, validate_event

from tests.test_differential import digest, fresh_obs, member, scalar

SPEC = member("mpeg_dec", "proposed", 7)

#: The faulty, supervised twin exercises the fault and supervisor emit sites.
FAULTED = member("mpeg_dec", "proposed", 7, faults=combined_fault_config(),
                 supervisor=default_supervisor_config())


def _instrumented(spec):
    obs = fresh_obs()
    return digest(*scalar(spec, obs)), obs


class TestInstrumentedTrajectoryIdentity:
    def test_plain_run_identical(self):
        instrumented, obs = _instrumented(SPEC)
        assert instrumented == digest(*scalar(SPEC))
        assert obs.tracer.events, "instrumented run emitted no events"

    def test_faulted_supervised_run_identical(self):
        instrumented, obs = _instrumented(FAULTED)
        assert instrumented == digest(*scalar(FAULTED))
        # The faulty run must actually exercise the fault/supervisor
        # emit sites for the identity claim to mean anything.
        types = {event["type"] for event in obs.tracer.events}
        assert "fault" in types
        assert "supervisor" in types

    def test_rerun_with_instrumentation_is_deterministic(self):
        first, obs_a = _instrumented(SPEC)
        second, obs_b = _instrumented(SPEC)
        assert first == second
        assert obs_a.tracer.events == obs_b.tracer.events
        assert obs_a.registry.as_dict() == obs_b.registry.as_dict()


class TestEmittedTraceContract:
    @pytest.fixture(scope="class")
    def traced(self):
        obs = fresh_obs()
        summary = scalar(FAULTED, obs)[1]
        return obs, summary

    def test_every_event_validates(self, traced):
        obs, _ = traced
        for event in obs.tracer.events:
            validate_event(event)

    def test_sequence_numbers_monotone(self, traced):
        obs, _ = traced
        assert [e["seq"] for e in obs.tracer.events] == list(
            range(len(obs.tracer.events))
        )

    def test_core_event_types_present(self, traced):
        obs, _ = traced
        types = {e["type"] for e in obs.tracer.events}
        for required in ("run_start", "tick", "decision", "q_update",
                         "governor_change", "app_switch", "run_end"):
            assert required in types, f"no {required} event in traced run"

    def test_trace_headlines_match_run_summary(self, traced):
        # The tick events replay the eval-sensor profile sample-for-
        # sample; the run summary covers only the measurement window, so
        # that window must appear as a contiguous slice of the trace and
        # re-summarising exactly it reproduces the summary's headline
        # temperatures.
        obs, summary = traced
        tick_events = [e for e in obs.tracer.events if e["type"] == "tick"]
        ticks = np.array([e["temps_c"] for e in tick_events])
        window = summary.profile.as_array()
        length = len(window)
        offsets = [
            k
            for k in range(len(ticks) - length + 1)
            if np.array_equal(ticks[k : k + length], window)
        ]
        assert offsets, "measurement-window profile absent from tick events"
        windowed = summarize_events(tick_events[offsets[0] : offsets[0] + length])
        assert windowed.avg_temp_c == pytest.approx(summary.average_temp_c)
        assert windowed.peak_temp_c == pytest.approx(summary.peak_temp_c)

    def test_metrics_agree_with_trace(self, traced):
        obs, _ = traced
        ticks = sum(1 for e in obs.tracer.events if e["type"] == "tick")
        decisions = sum(1 for e in obs.tracer.events if e["type"] == "decision")
        assert obs.registry.get("repro_eval_samples_total").value == ticks
        assert obs.registry.get("repro_decisions_total").value == decisions
        assert obs.registry.get("repro_runs_total").value == 1
