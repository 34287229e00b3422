"""Unit tests for the tick-loop section timer (`repro.perf.timer`)."""

import pytest

from repro.perf.timer import SectionTimer


class TestAccumulation:
    def test_add_accumulates_per_section(self):
        timer = SectionTimer()
        timer.add("thermal", 1.0)
        timer.add("thermal", 0.5)
        timer.add("power", 0.25)
        totals = timer.totals()
        assert totals["thermal"] == pytest.approx(1.5)
        assert totals["power"] == pytest.approx(0.25)

    def test_totals_sorted_by_cost_descending(self):
        timer = SectionTimer()
        timer.add("small", 0.1)
        timer.add("big", 2.0)
        timer.add("medium", 1.0)
        assert list(timer.totals()) == ["big", "medium", "small"]

    def test_lap_chains_from_now(self):
        timer = SectionTimer()
        mark = SectionTimer.now()
        mark = timer.lap("first", mark)
        timer.lap("second", mark)
        totals = timer.totals()
        assert set(totals) == {"first", "second"}
        assert all(seconds >= 0.0 for seconds in totals.values())

    def test_tick_counting_and_reset(self):
        timer = SectionTimer()
        timer.count_tick()
        timer.count_tick()
        timer.add("a", 1.0)
        assert timer.ticks == 2
        timer.reset()
        assert timer.ticks == 0
        assert timer.totals() == {}


class TestMisuseRaisesInsteadOfCorrupting:
    def test_lap_rejects_future_mark(self):
        # A mark from the future means the now()/lap() call sites are
        # nested or out of order; charging a negative duration would
        # silently corrupt the totals.
        timer = SectionTimer()
        future = SectionTimer.now() + 100.0
        with pytest.raises(ValueError, match="finite past timestamp"):
            timer.lap("section", future)
        assert timer.totals() == {}

    def test_lap_rejects_non_finite_mark(self):
        timer = SectionTimer()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                timer.lap("section", bad)
        assert timer.totals() == {}

    def test_lap_rejects_empty_section(self):
        timer = SectionTimer()
        with pytest.raises(ValueError, match="non-empty"):
            timer.lap("", SectionTimer.now())

    def test_add_rejects_negative_duration(self):
        timer = SectionTimer()
        with pytest.raises(ValueError, match="non-negative"):
            timer.add("section", -0.1)
        assert timer.totals() == {}

    def test_add_rejects_non_finite_duration(self):
        timer = SectionTimer()
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                timer.add("section", bad)
        assert timer.totals() == {}

    def test_add_rejects_empty_section(self):
        timer = SectionTimer()
        with pytest.raises(ValueError, match="non-empty"):
            timer.add("", 1.0)

    def test_totals_survive_a_rejected_call(self):
        timer = SectionTimer()
        timer.add("good", 1.0)
        with pytest.raises(ValueError):
            timer.add("good", -1.0)
        assert timer.totals()["good"] == pytest.approx(1.0)
