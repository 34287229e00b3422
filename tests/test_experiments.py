"""Tests for the experiment harness and the per-figure modules.

These run the experiments in a scaled-down fast mode: assertions target
structure and the robust qualitative trends, not exact values.
"""

import pytest

from repro.experiments import (
    fig1_motivation,
    fig3_inter,
    fig6_sampling,
    fig7_epoch,
    fig8_convergence,
    fig9_power,
    fig45_phases,
    table2_intra,
    table3_exec_time,
)
from repro.experiments.runner import POLICIES, build_manager, run_scenario, run_workload
from tests.conftest import render_artefact

FAST = 0.3  # iteration scale for quick runs


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def test_build_manager_covers_all_policies():
    for policy in POLICIES:
        manager, governor, userspace = build_manager(policy)
        assert governor
        if policy.startswith("userspace"):
            assert userspace is not None


def test_build_manager_unknown_policy():
    with pytest.raises(KeyError):
        build_manager("magic")


def test_run_workload_summary_fields():
    summary = run_workload("mpeg_dec", "clip 1", "linux", iteration_scale=FAST)
    assert summary.app == "mpeg_dec"
    assert summary.policy == "linux"
    assert summary.completed
    assert summary.execution_time_s > 0.0
    assert summary.average_temp_c > 30.0
    assert summary.peak_temp_c >= summary.average_temp_c
    assert 0.0 < summary.cycling_mttf_years <= 10.0
    assert 0.0 < summary.aging_mttf_years <= 10.0
    assert summary.dynamic_energy_j > 0.0
    assert summary.static_energy_j > 0.0
    assert summary.profile is not None


def test_run_workload_measured_seed_shared_across_policies():
    a = run_workload("mpeg_dec", "clip 1", "linux", seed=3, iteration_scale=FAST)
    b = run_workload("mpeg_dec", "clip 1", "powersave", seed=3, iteration_scale=FAST)
    assert a.dataset == b.dataset
    assert a.throughput != b.throughput  # policies actually differ


def test_userspace_policies_order_execution_time():
    fast = run_workload("tachyon", "set 2", "userspace@3.4", iteration_scale=FAST)
    slow = run_workload("tachyon", "set 2", "powersave", iteration_scale=FAST)
    assert fast.execution_time_s < slow.execution_time_s


def test_powersave_is_coolest_static_policy():
    cool = run_workload("tachyon", "set 2", "powersave", iteration_scale=FAST)
    hot = run_workload("tachyon", "set 2", "performance", iteration_scale=FAST)
    assert cool.average_temp_c < hot.average_temp_c
    assert cool.average_dynamic_power_w < hot.average_dynamic_power_w


def test_run_scenario_structure():
    summary = run_scenario(("mpeg_dec", "tachyon"), "linux", iteration_scale=FAST)
    assert summary.app == "mpeg_dec-tachyon"
    assert summary.completed


# ---------------------------------------------------------------------------
# Experiment modules (fast mode)
# ---------------------------------------------------------------------------


def test_fig1_motivation_structure():
    result = render_artefact(fig1_motivation, iteration_scale=FAST)
    assert len(result.cells) == 4
    face_linux = result.cell("face_rec", "linux_default")
    assert face_linux.profile is not None
    assert face_linux.summary.average_temp_c > 45.0  # face_rec runs hot
    mpeg = result.cell("mpeg_enc", "linux_default")
    assert mpeg.summary.average_temp_c < face_linux.summary.average_temp_c
    assert "Figure 1" in result.format_table()


def test_table2_structure_and_trends():
    result = render_artefact(table2_intra, iteration_scale=FAST, workloads=("tachyon",))
    assert len(result.rows) == 3
    for row in result.rows:
        linux = row.summaries["linux"]
        proposed = row.summaries["proposed"]
        # The headline claims, loosely: cooler and longer-lived.
        assert proposed.average_temp_c < linux.average_temp_c + 1.0
        assert proposed.aging_mttf_years >= linux.aging_mttf_years * 0.9
    assert result.improvement("aging_mttf_years", over="linux") > 1.0
    assert "Table 2" in result.format_table()


def test_fig3_structure():
    result = render_artefact(fig3_inter, iteration_scale=FAST)
    assert len(result.rows) == 6
    for row in result.rows:
        assert row.normalised("linux") == pytest.approx(1.0)
    mean_improvement = sum(r.normalised("proposed") for r in result.rows) / len(result.rows)
    assert mean_improvement > 1.0
    assert "Figure 3" in result.format_table()


def test_fig45_split():
    result = render_artefact(fig45_phases, iteration_scale=0.6)
    assert result.split_s > 0.0
    assert len(result.exploration_profile) > 0
    assert len(result.exploitation_profile) > 0
    # The exploitation phase is the cooler one (Figure 5 vs Figure 4).
    exploration_avg_c = result.exploration_profile.average_temp_c()
    assert result.exploitation_profile.average_temp_c() < exploration_avg_c
    assert "Figures 4/5" in result.format_table()


def test_fig6_trends():
    result = render_artefact(fig6_sampling, intervals=(1, 3, 6, 10), iteration_scale=FAST)
    assert len(result.rows) == 4
    autocorrs = [r.autocorrelation for r in result.rows]
    # Autocorrelation decays with the interval.
    assert autocorrs[0] > autocorrs[-1]
    # Management overhead falls as sampling gets rarer.
    assert result.rows[0].cache_misses > result.rows[-1].cache_misses
    assert result.rows[0].page_faults > result.rows[-1].page_faults
    # Coarse sampling over-estimates MTTF relative to 1 s.
    assert result.rows[-1].computed_mttf_years >= result.rows[0].computed_mttf_years


def test_fig7_trends():
    result = render_artefact(
        fig7_epoch,
        epochs=(5.0, 30.0, 80.0), apps=(("mpeg_dec", "clip 1"),), iteration_scale=FAST
    )
    series = result.series("mpeg_dec")
    assert len(series) == 3
    assert series[0].normalized_training_time == pytest.approx(1.0)
    # Training time grows with the epoch length.
    assert series[-1].training_time_s > series[0].training_time_s


def test_fig8_structure():
    result = render_artefact(
        fig8_convergence,
        state_grid=((4, (2, 2)), (12, (3, 4))),
        action_grid=(4, 12),
        iteration_scale=FAST,
    )
    assert len(result.rows) == 4
    small = next(r for r in result.rows if r.num_states == 4 and r.num_actions == 4)
    large = next(r for r in result.rows if r.num_states == 12 and r.num_actions == 12)
    assert large.iterations_to_converge >= small.iterations_to_converge


def test_table3_structure():
    result = render_artefact(table3_exec_time, iteration_scale=FAST, apps=("tachyon",))
    row = result.rows[0]
    # 3.4 GHz is the fastest, powersave the slowest.
    assert row.execution_time("userspace@3.4") <= row.execution_time("linux") * 1.05
    assert row.execution_time("powersave") == max(
        row.execution_time(p) for p in ("linux", "powersave", "userspace@3.4")
    )
    assert "Table 3" in result.format_table()


def test_fig9_structure():
    result = render_artefact(fig9_power, iteration_scale=FAST, apps=("tachyon",))
    row = result.rows[0]
    assert row.dynamic_power_w("powersave") < row.dynamic_power_w("userspace@3.4")
    assert row.static_energy_j("linux") > 0.0
    assert "Figure 9" in result.format_table()
