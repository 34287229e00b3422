"""Property-based tests of the reliability mathematics.

Three layers of evidence that the lifetime models are implemented
correctly:

* the stack-based rainflow counter is compared against an independent
  brute-force transcription of the ASTM E1049-85 counting rules over
  hundreds of randomized temperature series (exact multiset equality);
* hypothesis-driven invariants for rainflow, Coffin-Manson (Eq. 3) and
  Miner's rule (Eqs. 4-5): bounds, monotonicity, and the
  ``MTTF = total_time / damage`` identity;
* :func:`~repro.reliability.mttf.evaluate_profile` sanity under extreme
  traces (square waves at the temperature limits, monotone ramps,
  constant profiles): MTTFs stay positive and the cycling channel never
  exceeds its baseline bound.
"""

import math
from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_reliability_config
from repro.reliability.coffin_manson import cycles_to_failure
from repro.reliability.miner import effective_cycles_to_failure, miner_mttf_seconds
from repro.reliability.mttf import (
    calibrate_atc,
    evaluate_profile,
    resolved_atc,
    sofr_mttf_years,
)
from repro.reliability.rainflow import (
    ThermalCycle,
    count_cycles,
    extract_reversals,
    total_cycle_count,
)

from tests.test_reliability_rainflow import max_amplitude

# ---------------------------------------------------------------------------
# Independent brute-force ASTM E1049-85 reference implementation
# ---------------------------------------------------------------------------


def _reference_reversals(series: Sequence[float]) -> List[float]:
    """Reversal extraction, written independently of the production code."""
    collapsed: List[float] = []
    for value in series:
        value = float(value)
        if not collapsed or value != collapsed[-1]:
            collapsed.append(value)
    if len(collapsed) < 2:
        return []
    kept = [collapsed[0]]
    for prev, cur, nxt in zip(collapsed, collapsed[1:], collapsed[2:]):
        if (cur > prev and cur > nxt) or (cur < prev and cur < nxt):
            kept.append(cur)
    kept.append(collapsed[-1])
    return kept


def _reference_count(series: Sequence[float]) -> List[Tuple[float, float, float]]:
    """Literal transcription of the ASTM E1049-85 rainflow rules.

    After every counted cycle the scan restarts from the beginning of
    the (mutated) reversal list — the textbook O(n^2) formulation the
    one-pass stack algorithm is an optimisation of.  Returns
    ``(low, high, weight)`` tuples with zero-amplitude pairs dropped.
    """
    points = _reference_reversals(series)
    counted: List[Tuple[float, float, float]] = []
    while len(points) >= 3:
        progressed = False
        for j in range(len(points) - 2):
            y_range = abs(points[j + 1] - points[j])
            x_range = abs(points[j + 2] - points[j + 1])
            if x_range < y_range:
                continue
            if j == 0:
                # Range Y contains the starting point: count a half
                # cycle and retire the starting point.
                counted.append((points[0], points[1], 0.5))
                del points[0]
            else:
                # Interior range: one full cycle; remove its endpoints.
                counted.append((points[j], points[j + 1], 1.0))
                del points[j + 1]
                del points[j]
            progressed = True
            break
        if not progressed:
            break
    for a, b in zip(points, points[1:]):
        counted.append((a, b, 0.5))
    # Key on (amplitude, max, weight): both implementations compute the
    # amplitude as ``high - low`` with identical arithmetic, so the
    # comparison is exact (the derived ``min_c`` re-rounds by one ulp).
    return [
        (max(a, b) - min(a, b), max(a, b), weight)
        for a, b, weight in counted
        if a != b
    ]


def _as_multiset(cycles: Sequence[ThermalCycle]) -> List[Tuple[float, float, float]]:
    return sorted(
        (cycle.amplitude_k, cycle.max_c, cycle.count) for cycle in cycles
    )


def _check_against_reference(series: Sequence[float]) -> None:
    produced = _as_multiset(count_cycles(series))
    expected = sorted(_reference_count(series))
    assert produced == expected, (
        f"rainflow mismatch for series {list(series)!r}:\n"
        f"  production: {produced}\n  reference : {expected}"
    )


class TestRainflowAgainstBruteForce:
    def test_textbook_examples(self):
        # The canonical ASTM E1049 example history (values as ranges).
        _check_against_reference([-2.0, 1.0, -3.0, 5.0, -1.0, 3.0, -4.0, 4.0, -2.0])
        _check_against_reference([40.0, 60.0, 40.0, 60.0, 40.0])
        _check_against_reference([50.0, 50.0, 50.0])
        _check_against_reference([40.0, 50.0])
        _check_against_reference([])
        _check_against_reference([45.0])

    def test_randomized_continuous_series(self):
        # 300 random continuous series: ties are measure-zero, exercises
        # the generic interleaving of full and half cycles.
        checked = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            length = int(rng.integers(0, 40))
            series = rng.uniform(25.0, 95.0, size=length)
            _check_against_reference(series.tolist())
            checked += 1
        assert checked == 300

    def test_randomized_quantized_series(self):
        # 300 quantized series: repeated values, plateaus and exact
        # X == Y range ties, the branchy corners of the algorithm.
        checked = 0
        for seed in range(300):
            rng = np.random.default_rng(10_000 + seed)
            length = int(rng.integers(0, 30))
            series = np.round(rng.uniform(30.0, 80.0, size=length) / 5.0) * 5.0
            _check_against_reference(series.tolist())
            checked += 1
        assert checked == 300

    def test_randomized_random_walks(self):
        # Random walks produce long monotone stretches and nested ranges.
        for seed in range(50):
            rng = np.random.default_rng(20_000 + seed)
            steps = rng.choice([-10.0, -5.0, 0.0, 5.0, 10.0], size=25)
            series = 55.0 + np.cumsum(steps)
            _check_against_reference(series.tolist())


# A temperature-series strategy for the hypothesis invariants.
_temps = st.lists(
    st.floats(min_value=20.0, max_value=110.0, allow_nan=False,
              allow_infinity=False, width=32),
    min_size=0,
    max_size=60,
)


class TestRainflowInvariants:
    @given(series=_temps)
    @settings(max_examples=200, deadline=None)
    def test_counts_and_amplitudes_bounded(self, series):
        cycles = count_cycles(series)
        reversals = extract_reversals(series)
        # Summing half cycles as 0.5, the count is bounded by half the
        # number of reversal points.
        assert total_cycle_count(cycles) <= len(reversals) / 2 + 1e-9
        if series:
            series_range = max(series) - min(series)
            assert max_amplitude(cycles) <= series_range + 1e-9
        for cycle in cycles:
            assert cycle.count in (0.5, 1.0)
            assert cycle.amplitude_k > 0.0
            assert cycle.min_c >= min(series) - 1e-9
            assert cycle.max_c <= max(series) + 1e-9
            assert cycle.mean_c == pytest.approx(
                0.5 * (cycle.min_c + cycle.max_c)
            )

    @given(series=_temps)
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_reference(self, series):
        _check_against_reference(series)

    def test_reversal_of_series_preserves_total_range_damage(self):
        # Deterministic regression: a pure triangle wave counts the same
        # forwards and backwards.
        series = [40.0, 70.0, 40.0, 70.0, 40.0, 70.0, 40.0]
        forward = _as_multiset(count_cycles(series))
        backward = _as_multiset(count_cycles(list(reversed(series))))
        assert forward == backward


class TestCoffinMansonMonotonicity:
    @pytest.fixture(scope="class")
    def config(self):
        return default_reliability_config()

    def _cycle(self, amplitude_k, max_c):
        return ThermalCycle(
            amplitude_k=amplitude_k,
            mean_c=max_c - amplitude_k / 2.0,
            max_c=max_c,
            count=1.0,
        )

    def test_elastic_cycles_never_fail(self, config):
        amplitude = config.elastic_threshold_k
        assert cycles_to_failure(self._cycle(amplitude, 80.0), config) == math.inf
        assert cycles_to_failure(self._cycle(amplitude / 2, 80.0), config) == math.inf

    @given(
        base=st.floats(min_value=1.0, max_value=40.0),
        extra=st.floats(min_value=0.5, max_value=40.0),
        max_c=st.floats(min_value=30.0, max_value=110.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_larger_amplitude_fails_sooner(self, config, base, extra, max_c):
        amplitude = config.elastic_threshold_k + base
        smaller = cycles_to_failure(self._cycle(amplitude, max_c), config)
        larger = cycles_to_failure(self._cycle(amplitude + extra, max_c), config)
        assert 0.0 < larger < smaller

    @given(
        amplitude=st.floats(min_value=6.0, max_value=50.0),
        max_c=st.floats(min_value=30.0, max_value=100.0),
        hotter=st.floats(min_value=1.0, max_value=30.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_hotter_peak_fails_sooner(self, config, amplitude, max_c, hotter):
        cool = cycles_to_failure(self._cycle(amplitude, max_c), config)
        hot = cycles_to_failure(self._cycle(amplitude, max_c + hotter), config)
        assert 0.0 < hot < cool

    def test_atc_scales_linearly(self, config):
        from dataclasses import replace

        cycle = self._cycle(20.0, 80.0)
        base = cycles_to_failure(cycle, config)
        atc = resolved_atc(config)
        doubled = replace(config, cycling_scale_atc=2.0 * atc)
        assert cycles_to_failure(cycle, doubled) == pytest.approx(2.0 * base)

    def test_calibration_anchor(self, config):
        # The auto-calibrated A_TC makes the documented reference
        # profile (10 K cycles, 20 s period, 55 C peak) hit exactly the
        # configured reference MTTF.
        from repro.units import years_to_seconds

        cycle = ThermalCycle(amplitude_k=10.0, mean_c=50.0, max_c=55.0, count=1.0)
        mttf_s = miner_mttf_seconds([cycle], total_time_s=20.0, config=config)
        assert calibrate_atc(config) > 0.0
        assert mttf_s == pytest.approx(
            years_to_seconds(config.cycling_reference_mttf_years), rel=1e-9
        )


#: A strategy for plastic (damage-causing) thermal cycles.
_cycles = st.lists(
    st.builds(
        lambda amp, max_c, half: ThermalCycle(
            amplitude_k=amp,
            mean_c=max_c - amp / 2.0,
            max_c=max_c,
            count=0.5 if half else 1.0,
        ),
        amp=st.floats(min_value=6.0, max_value=60.0),
        max_c=st.floats(min_value=30.0, max_value=110.0),
        half=st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


class TestMinerRule:
    @pytest.fixture(scope="class")
    def config(self):
        return default_reliability_config()

    @given(cycles=_cycles, total_time_s=st.floats(min_value=1.0, max_value=1e5))
    @settings(max_examples=150, deadline=None)
    def test_mttf_is_total_time_over_damage(self, config, cycles, total_time_s):
        # Eqs. 4-5 collapse to MTTF = sum(t_i) / damage.
        damage = sum(
            cycle.count / cycles_to_failure(cycle, config) for cycle in cycles
        )
        expected = total_time_s / damage if damage > 0.0 else math.inf
        assert miner_mttf_seconds(cycles, total_time_s, config) == pytest.approx(
            expected
        )

    @given(cycles=_cycles, total_time_s=st.floats(min_value=1.0, max_value=1e5))
    @settings(max_examples=150, deadline=None)
    def test_adding_a_cycle_never_increases_mttf(self, config, cycles, total_time_s):
        before = miner_mttf_seconds(cycles, total_time_s, config)
        extra = ThermalCycle(amplitude_k=25.0, mean_c=60.0, max_c=72.5, count=1.0)
        after = miner_mttf_seconds(cycles + [extra], total_time_s, config)
        assert after <= before
        assert after > 0.0

    def test_elastic_cycles_contribute_no_damage(self, config):
        plastic = ThermalCycle(amplitude_k=20.0, mean_c=60.0, max_c=70.0, count=1.0)
        elastic = ThermalCycle(amplitude_k=1.0, mean_c=60.0, max_c=60.5, count=1.0)
        alone = miner_mttf_seconds([plastic], 100.0, config)
        mixed = miner_mttf_seconds([plastic, elastic], 100.0, config)
        assert mixed == pytest.approx(alone)
        assert miner_mttf_seconds([elastic], 100.0, config) == math.inf
        assert effective_cycles_to_failure([], config) == math.inf

    def test_harmonic_mean_between_extremes(self, config):
        weak = ThermalCycle(amplitude_k=40.0, mean_c=70.0, max_c=90.0, count=1.0)
        mild = ThermalCycle(amplitude_k=10.0, mean_c=50.0, max_c=55.0, count=1.0)
        n_weak = cycles_to_failure(weak, config)
        n_mild = cycles_to_failure(mild, config)
        n_eff = effective_cycles_to_failure([weak, mild], config)
        assert n_weak < n_eff < n_mild


class TestMttfExtremeProfiles:
    @pytest.fixture(scope="class")
    def config(self):
        return default_reliability_config()

    def _assert_sane(self, report, config):
        assert report.aging_mttf_years > 0.0
        assert report.cycling_mttf_years > 0.0
        assert math.isfinite(report.aging_mttf_years)
        # The SOFR combination with the baseline channel bounds cycling
        # MTTF above by the baseline, even for brutal profiles.
        assert report.cycling_mttf_years <= config.baseline_mttf_years + 1e-9
        assert report.num_cycles >= 0.0
        assert report.stress >= 0.0
        combined = sofr_mttf_years(report.aging_mttf_years, report.cycling_mttf_years)
        assert 0.0 < combined <= min(
            report.aging_mttf_years, report.cycling_mttf_years
        ) + 1e-9

    def test_extreme_square_wave(self, config):
        series = [25.0, 110.0] * 500
        report = evaluate_profile(series, sample_period_s=1.0, config=config)
        self._assert_sane(report, config)
        # A near-limit square wave must be dramatically worse than idle.
        assert report.cycling_mttf_years < 0.1 * config.baseline_mttf_years
        assert report.aging_mttf_years < config.baseline_mttf_years

    def test_constant_profile_is_all_elastic(self, config):
        report = evaluate_profile([55.0] * 1000, sample_period_s=1.0, config=config)
        self._assert_sane(report, config)
        assert report.num_cycles == 0.0
        assert report.cycling_mttf_years == pytest.approx(config.baseline_mttf_years)

    def test_monotone_ramp_counts_at_most_one_half_cycle(self, config):
        series = list(np.linspace(30.0, 100.0, 200))
        report = evaluate_profile(series, sample_period_s=1.0, config=config)
        self._assert_sane(report, config)
        assert report.num_cycles == pytest.approx(0.5)

    def test_empty_profile_reports_baseline(self, config):
        report = evaluate_profile([], sample_period_s=1.0, config=config)
        assert report.aging_mttf_years == config.baseline_mttf_years
        assert report.cycling_mttf_years == config.baseline_mttf_years
        assert report.num_cycles == 0.0

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        length=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_extreme_profiles_stay_sane(self, config, seed, length):
        rng = np.random.default_rng(seed)
        series = rng.uniform(20.0, 115.0, size=length).tolist()
        report = evaluate_profile(series, sample_period_s=3.0, config=config)
        self._assert_sane(report, config)
        assert report.peak_temp_c == pytest.approx(max(series))
        assert report.average_temp_c == pytest.approx(sum(series) / len(series))

    def test_sofr_combination_properties(self):
        assert sofr_mttf_years(10.0, 10.0) == pytest.approx(5.0)
        assert sofr_mttf_years(math.inf, 10.0) == pytest.approx(10.0)
        assert sofr_mttf_years(math.inf, math.inf) == math.inf
        assert sofr_mttf_years(0.0, 10.0) == 0.0
