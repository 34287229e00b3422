"""Tests for the thermal substrate: floorplan, RC model, sensors, profile."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SensorConfig, ThermalConfig, default_reliability_config
from repro.thermal.floorplan import Floorplan
from repro.thermal.profile import ThermalProfile
from repro.thermal.rc_model import RCThermalModel
from repro.thermal.sensors import SensorBank

THERMAL = ThermalConfig()

#: The default platform's 2x2 quad-core floorplan.
GRID_2X2 = Floorplan(num_cores=4, adjacency=((0, 1), (0, 2), (1, 3), (2, 3)))


# ---------------------------------------------------------------------------
# Floorplan
# ---------------------------------------------------------------------------


def test_grid_neighbours():
    fp = GRID_2X2
    assert fp.neighbours(0) == (1, 2)
    assert fp.neighbours(3) == (1, 2)


def test_line_floorplan():
    fp = Floorplan.line(4)
    assert fp.neighbours(0) == (1,)
    assert fp.neighbours(1) == (0, 2)


def test_invalid_adjacency_rejected():
    with pytest.raises(ValueError):
        Floorplan(num_cores=2, adjacency=((0, 5),))
    with pytest.raises(ValueError):
        Floorplan(num_cores=2, adjacency=((1, 1),))


def test_conductance_matrix_symmetric_positive():
    fp = GRID_2X2
    g = fp.conductance_matrix(THERMAL)
    assert np.allclose(g, g.T)
    eigenvalues = np.linalg.eigvalsh(g)
    assert np.all(eigenvalues > 0)  # grounded network is positive definite


def test_conductance_rows_sum_to_ambient_leg():
    fp = GRID_2X2
    g = fp.conductance_matrix(THERMAL)
    sums = g.sum(axis=1)
    assert np.allclose(sums[: fp.num_cores], 0.0, atol=1e-12)
    assert sums[-1] == pytest.approx(THERMAL.spreader_to_ambient)


# ---------------------------------------------------------------------------
# RC model
# ---------------------------------------------------------------------------


@pytest.fixture
def model():
    return RCThermalModel(GRID_2X2, THERMAL, dt=0.1)


def test_cold_start_at_ambient(model):
    assert np.allclose(model.core_temps_c(), THERMAL.ambient_c)


def test_zero_power_stays_at_ambient(model):
    for _ in range(100):
        model.step([0.0] * 4)
    assert np.allclose(model.core_temps_c(), THERMAL.ambient_c, atol=1e-9)


def test_step_converges_to_steady_state(model):
    powers = [5.0, 0.0, 0.0, 0.0]
    target = model.steady_state(powers)
    for _ in range(5000):
        model.step(powers)
    assert np.allclose(model._temps, target, atol=0.01)


def test_steady_state_superposition(model):
    """The network is linear: steady states superpose."""
    ambient = model.steady_state([0.0] * 4)
    one = model.steady_state([4.0, 0.0, 0.0, 0.0]) - ambient
    two = model.steady_state([0.0, 3.0, 0.0, 0.0]) - ambient
    both = model.steady_state([4.0, 3.0, 0.0, 0.0]) - ambient
    assert np.allclose(both, one + two, atol=1e-9)


def test_heated_core_is_hottest(model):
    model.warm_start([6.0, 0.0, 0.0, 0.0])
    temps = model.core_temps_c()
    assert temps[0] == max(temps)
    assert temps[0] > THERMAL.ambient_c + 5.0


def test_neighbour_coupling(model):
    """Cores adjacent to the heated core run warmer than the diagonal."""
    model.warm_start([8.0, 0.0, 0.0, 0.0])
    temps = model.core_temps_c()
    assert temps[1] > temps[3]
    assert temps[2] > temps[3]


def test_propagator_matches_euler_integration():
    coarse = RCThermalModel(GRID_2X2, THERMAL, dt=0.5)
    fine = RCThermalModel(GRID_2X2, THERMAL, dt=0.001)
    powers = [3.0, 1.0, 0.0, 2.0]
    for _ in range(10):
        coarse.step(powers)
    for _ in range(5000):
        fine.step(powers)
    assert np.allclose(coarse.core_temps_c(), fine.core_temps_c(), atol=0.05)


def test_monotone_in_power(model):
    low = model.steady_state([2.0] * 4)
    high = model.steady_state([4.0] * 4)
    assert np.all(high > low)


def test_negative_power_rejected(model):
    with pytest.raises(ValueError):
        model.step([-1.0, 0.0, 0.0, 0.0])


def test_bad_power_length_rejected(model):
    with pytest.raises(ValueError):
        model.step([1.0, 2.0])


def test_spreader_power_heats_all_cores(model):
    base = model.steady_state([0.0] * 4)
    heated = model.steady_state([0.0] * 4, spreader_power_w=5.0)
    assert np.all(heated[:4] > base[:4])


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_steady_state_above_ambient(powers):
    model = RCThermalModel(GRID_2X2, THERMAL, dt=0.1)
    steady = model.steady_state(powers)
    assert np.all(steady >= THERMAL.ambient_c - 1e-9)


# ---------------------------------------------------------------------------
# Sensors
# ---------------------------------------------------------------------------


def test_sensor_quantisation():
    bank = SensorBank(4, SensorConfig(noise_std_c=0.0, quantisation_c=1.0), seed=1)
    readings = bank.read([40.2, 40.6, 41.4, 50.0])
    assert list(readings) == [40.0, 41.0, 41.0, 50.0]


def test_sensor_noise_is_reproducible():
    a = SensorBank(4, SensorConfig(), seed=5).read([40.0] * 4)
    b = SensorBank(4, SensorConfig(), seed=5).read([40.0] * 4)
    assert np.array_equal(a, b)


def test_sensor_noise_differs_across_seeds():
    readings = [SensorBank(4, SensorConfig(), seed=s).read([40.4] * 4) for s in range(20)]
    assert len({tuple(r) for r in readings}) > 1


def test_sensor_saturation():
    bank = SensorBank(1, SensorConfig(noise_std_c=0.0, min_c=0.0, max_c=100.0), seed=0)
    assert bank.read([150.0])[0] == 100.0
    assert bank.read([-20.0])[0] == 0.0


def test_sensor_wrong_width_rejected():
    bank = SensorBank(4, SensorConfig(), seed=0)
    with pytest.raises(ValueError):
        bank.read([40.0, 41.0])


def test_sensor_reset_clears_ema_state():
    """A reused bank must not leak filtered history into the next run.

    Noise and quantisation are disabled to isolate the EMA: after many
    reads at a hot temperature the filter lags a sudden cold input, but
    a reset makes the first read track the input exactly again.
    """
    config = SensorConfig(noise_std_c=0.0, quantisation_c=0.0, ema_tau_s=5.0)
    bank = SensorBank(4, config, seed=0)
    for _ in range(50):
        bank.read([80.0] * 4)
    lagged = bank.read([40.0] * 4)
    assert np.all(lagged > 60.0)  # filter still remembers the hot run
    bank.reset()
    fresh = bank.read([40.0] * 4)
    assert np.allclose(fresh, 40.0)


def test_sensor_reset_preserves_noise_stream():
    """Resetting the filter must not rewind the noise RNG — otherwise
    two back-to-back runs would draw correlated noise."""
    config = SensorConfig(quantisation_c=0.0)  # keep the raw noise visible
    bank = SensorBank(4, config, seed=5)
    first = bank.read([40.4] * 4)
    bank.reset()
    second = bank.read([40.4] * 4)
    assert not np.array_equal(second, first)  # the stream advanced
    reference = SensorBank(4, config, seed=5)
    reference.read([40.4] * 4)
    assert np.array_equal(second, reference.read([40.4] * 4))


# ---------------------------------------------------------------------------
# Profile
# ---------------------------------------------------------------------------


def test_profile_statistics():
    profile = ThermalProfile(2, 1.0)
    profile.append([40.0, 50.0])
    profile.append([42.0, 48.0])
    assert profile.average_temp_c() == pytest.approx(45.0)
    assert profile.peak_temp_c() == pytest.approx(50.0)
    assert len(profile) == 2
    assert profile.duration_s == pytest.approx(2.0)


def test_profile_window():
    profile = ThermalProfile(1, 1.0)
    for value in range(10):
        profile.append([float(value)])
    window = profile.window(2.0, 5.0)
    assert window.core_series(0) == [2.0, 3.0, 4.0]


def test_profile_window_open_end():
    profile = ThermalProfile(1, 1.0)
    for value in range(5):
        profile.append([float(value)])
    assert profile.window(3.0).core_series(0) == [3.0, 4.0]


def test_profile_tail():
    profile = ThermalProfile(1, 1.0)
    for value in range(5):
        profile.append([float(value)])
    assert profile.tail(2).core_series(0) == [3.0, 4.0]


def test_profile_worst_case_report_picks_worst_core():
    rel = default_reliability_config()
    profile = ThermalProfile(2, 1.0)
    for i in range(200):
        hot = 40.0 + (15.0 if i % 8 < 4 else 0.0)
        profile.append([hot, 36.0])
    report = profile.worst_case_report(rel)
    per_core = profile.core_reports(rel)
    assert report["cycling_mttf_years"] == pytest.approx(
        min(r.cycling_mttf_years for r in per_core)
    )
    assert report["aging_mttf_years"] == pytest.approx(
        min(r.aging_mttf_years for r in per_core)
    )


def test_profile_append_validates_width():
    profile = ThermalProfile(2, 1.0)
    with pytest.raises(ValueError):
        profile.append([40.0])


def test_profile_extend():
    a = ThermalProfile(1, 1.0)
    a.append([1.0])
    b = ThermalProfile(1, 1.0)
    b.append([2.0])
    a.extend(b)
    assert a.core_series(0) == [1.0, 2.0]
    mismatched = ThermalProfile(1, 2.0)
    with pytest.raises(ValueError):
        a.extend(mismatched)
