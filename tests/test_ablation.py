"""Tests for the ablation experiment's variant construction."""

import pytest

from repro.config import default_agent_config
from repro.experiments import ablation
from repro.experiments.ablation import (
    ABLATION_VARIANTS,
    AblationResult,
    AblationRow,
    variant_config,
)
from tests.conftest import render_artefact


def test_variant_names_covered():
    for variant in ABLATION_VARIANTS:
        config, space = variant_config(variant)
        assert config is not None


def test_full_variant_is_default():
    config, space = variant_config("full")
    assert config == default_agent_config()
    assert space is None


def test_no_decoupling_collapses_epoch():
    config, _ = variant_config("no_decoupling")
    assert config.decision_epoch_s == config.sampling_interval_s


def test_no_affinity_space_is_dvfs_only():
    config, space = variant_config("no_affinity")
    assert space is not None
    assert all(action.mapping_name == "os_default" for action in space)
    assert len(space) == config.num_actions


def test_no_variation_thresholds_unreachable():
    config, _ = variant_config("no_variation")
    assert config.stress_ma_lower > 1.0
    assert config.aging_ma_upper > 1.0


def test_unknown_variant():
    with pytest.raises(KeyError):
        variant_config("no_learning")


def test_result_lookup():
    from repro.experiments.runner import run_workload

    summary = run_workload("mpeg_dec", "clip 1", "linux", iteration_scale=0.15)
    result = AblationResult(rows=[AblationRow("w", "full", summary)])
    assert result.value("w", "full", "average_temp_c") == summary.average_temp_c
    with pytest.raises(KeyError):
        result.value("w", "missing", "average_temp_c")
    assert result.workloads() == ["w"]


def test_run_ablation_fast_structure():
    result = render_artefact(ablation, iteration_scale=0.15)
    # 4 variants x (2 intra workloads + 1 scenario).
    assert len(result.rows) == 4 * 3
    assert "Ablation" in result.format_table()
