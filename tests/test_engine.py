"""Tests for the parallel, content-addressed experiment engine.

Covers the three guarantees the engine makes:

* **determinism** — the same job spec produces an identical
  ``RunSummary`` whether it runs inline, in a worker process, or comes
  back from a cache round-trip;
* **addressing** — the content hash is stable for equal specs and
  changes for *any* config-field change (so stale results can never be
  served);
* **ordering** — batch results align index-for-index with submissions,
  independent of worker count, duplicates and cache state.
"""

import dataclasses
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import AgentConfig, EngineConfig, FaultConfig, GeQiuConfig
from repro.experiments.engine import (
    ExperimentEngine,
    JobSpec,
    ResultCache,
    canonicalise,
    execute_job,
    job_key,
    scenario_job,
    workload_job,
)

#: Shortest scale at which every app clears the warm-up skip.
FAST = 0.12

#: A cheap job used throughout (tachyon at minimum length trains fast).
CHEAP = dict(seed=5, iteration_scale=0.05)


def summaries_identical(a, b) -> bool:
    """Bit-identity of two run summaries (pickle byte equality).

    The summaries are plain dataclasses of floats/dicts/profile lists
    built the same way on every run, so equal pickles == equal results.
    """
    return pickle.dumps(a) == pickle.dumps(b)


# ---------------------------------------------------------------------------
# Spec validation and hashing
# ---------------------------------------------------------------------------


def test_jobspec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown job kind"):
        JobSpec(kind="magic", app="tachyon")


def test_jobspec_requires_target():
    with pytest.raises(ValueError, match="need an app name"):
        JobSpec(kind="workload")
    with pytest.raises(ValueError, match="application sequence"):
        JobSpec(kind="scenario")


def test_job_key_stable_for_equal_specs():
    a = workload_job("tachyon", "set 1", "proposed", seed=3)
    b = workload_job("tachyon", "set 1", "proposed", seed=3)
    assert a == b
    assert job_key(a) == job_key(b)


def test_job_key_differs_across_kinds_and_params():
    keys = {
        job_key(workload_job("tachyon", None, "linux")),
        job_key(workload_job("tachyon", None, "proposed")),
        job_key(workload_job("mpeg_dec", None, "linux")),
        job_key(workload_job("tachyon", None, "linux", seed=2)),
        job_key(workload_job("tachyon", None, "linux", iteration_scale=0.5)),
        job_key(workload_job("tachyon", None, "linux", train_passes=0)),
        job_key(scenario_job(("tachyon",), "linux")),
    }
    assert len(keys) == 7


def test_job_key_includes_package_version():
    spec = workload_job("tachyon", None, "linux")
    assert job_key(spec, version="1.0.0") != job_key(spec, version="1.0.1")
    assert job_key(spec) == job_key(spec, version=repro.__version__)


@pytest.mark.parametrize(
    "config_cls", [AgentConfig, FaultConfig, GeQiuConfig], ids=lambda c: c.__name__
)
def test_job_key_sensitive_to_every_config_field(config_cls):
    """Perturbing any single numeric config field must change the key."""
    base = config_cls()
    kwarg = {
        AgentConfig: "agent_config",
        FaultConfig: "faults",
        GeQiuConfig: "ge_config",
    }[config_cls]
    reference = job_key(workload_job("tachyon", None, "proposed", **{kwarg: base}))
    perturbed_fields = 0
    for field in dataclasses.fields(config_cls):
        value = getattr(base, field.name)
        if isinstance(value, bool):
            bumped = not value
        elif isinstance(value, int):
            bumped = value + 1
        elif isinstance(value, float):
            bumped = value + 0.001
        else:
            continue  # tuples/None fields are covered by the cases above
        try:
            variant = replace(base, **{field.name: bumped})
        except ValueError:
            continue  # validation rejected the bump; field still hashed
        perturbed_fields += 1
        key = job_key(workload_job("tachyon", None, "proposed", **{kwarg: variant}))
        assert key != reference, f"{config_cls.__name__}.{field.name} not hashed"
    assert perturbed_fields > 3


def test_canonicalise_tags_dataclass_types():
    rendered = canonicalise(AgentConfig())
    assert rendered["__class__"].endswith("AgentConfig")
    assert rendered["fields"]["discount"] == AgentConfig().discount


def test_canonicalise_rejects_unknown_types():
    with pytest.raises(TypeError):
        canonicalise(object())


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scale=st.floats(min_value=0.01, max_value=2.0, allow_nan=False),
    policy=st.sampled_from(["linux", "ge", "proposed", "powersave"]),
)
def test_job_key_property_equal_specs_equal_keys(seed, scale, policy):
    a = workload_job("tachyon", "set 1", policy, seed=seed, iteration_scale=scale)
    b = workload_job("tachyon", "set 1", policy, seed=seed, iteration_scale=scale)
    assert job_key(a) == job_key(b)
    assert job_key(a) != job_key(
        workload_job("tachyon", "set 1", policy, seed=seed + 1, iteration_scale=scale)
    )


# ---------------------------------------------------------------------------
# Determinism across process boundaries and cache round-trips
# ---------------------------------------------------------------------------


def test_same_spec_identical_across_process_boundary():
    spec = workload_job("tachyon", "set 2", "ge", **CHEAP)
    inline = execute_job(spec)
    pooled = ExperimentEngine(jobs=2).run([spec, spec])
    assert summaries_identical(inline, pooled[0])
    assert summaries_identical(inline, pooled[1])


def test_same_spec_identical_across_cache_round_trip(tmp_path):
    spec = workload_job("tachyon", "set 2", "ge", **CHEAP)
    cache = ResultCache(root=tmp_path)
    fresh = ExperimentEngine(cache=cache).run([spec])[0]
    cached = ExperimentEngine(cache=ResultCache(root=tmp_path)).run([spec])[0]
    assert summaries_identical(fresh, cached)


def test_parallel_results_keep_submission_order(tmp_path):
    specs = [
        workload_job("tachyon", "set 2", "linux", **CHEAP),
        workload_job("tachyon", "set 2", "powersave", **CHEAP),
        workload_job("mpeg_dec", "clip 1", "linux", **CHEAP),
        workload_job("tachyon", "set 2", "linux", **CHEAP),  # duplicate of [0]
    ]
    engine = ExperimentEngine(jobs=3, cache=ResultCache(root=tmp_path))
    results = engine.run(specs)
    assert [(r.app, r.policy) for r in results] == [
        ("tachyon", "linux"),
        ("tachyon", "powersave"),
        ("mpeg_dec", "linux"),
        ("tachyon", "linux"),
    ]
    assert summaries_identical(results[0], results[3])
    assert engine.stats.deduplicated == 1
    assert engine.stats.executed == 3

    serial = ExperimentEngine().run(specs)
    for parallel_summary, serial_summary in zip(results, serial):
        assert summaries_identical(parallel_summary, serial_summary)


# ---------------------------------------------------------------------------
# Cache behaviour
# ---------------------------------------------------------------------------


def test_cache_miss_then_hit_accounting(tmp_path):
    spec = workload_job("tachyon", "set 2", "linux", **CHEAP)
    cache = ResultCache(root=tmp_path)
    engine = ExperimentEngine(cache=cache)
    engine.run([spec])
    engine.run([spec])
    assert engine.stats.as_dict() == {
        "submitted": 2,
        "executed": 1,
        "cache_hits": 1,
        "cache_misses": 1,
        "deduplicated": 0,
        "retried": 0,
        "failed": 0,
        "timeouts": 0,
        "pool_restarts": 0,
    }
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1
    assert len(cache) == 1


def test_cache_invalidates_on_config_field_change(tmp_path):
    cache = ResultCache(root=tmp_path)
    engine = ExperimentEngine(cache=cache)
    base = workload_job(
        "tachyon", "set 2", "proposed", agent_config=AgentConfig(), **CHEAP
    )
    engine.run([base])
    tweaked = workload_job(
        "tachyon",
        "set 2",
        "proposed",
        agent_config=replace(AgentConfig(), discount=0.51),
        **CHEAP,
    )
    assert cache.get(tweaked) is None  # different content address
    assert cache.get(base) is not None


def test_cache_version_bump_invalidates_everything(tmp_path):
    spec = workload_job("tachyon", "set 2", "linux", **CHEAP)
    old = ResultCache(root=tmp_path, version="0.9")
    old.put(spec, execute_job(spec))
    new = ResultCache(root=tmp_path, version="1.0")
    assert new.get(spec) is None  # keyed under the new version


def test_cache_drops_corrupt_entries(tmp_path):
    spec = workload_job("tachyon", "set 2", "linux", **CHEAP)
    cache = ResultCache(root=tmp_path)
    key = cache.put(spec, execute_job(spec))
    path = tmp_path / "results" / key[:2] / f"{key}.pkl"
    path.write_bytes(b"not a pickle")
    assert cache.get(spec) is None
    assert cache.stats.invalidated == 1
    assert not path.exists()


# ---------------------------------------------------------------------------
# Engine construction
# ---------------------------------------------------------------------------


def test_engine_config_validation():
    with pytest.raises(ValueError, match="jobs"):
        EngineConfig(jobs=0)
    with pytest.raises(ValueError, match="jobs"):
        ExperimentEngine(jobs=0)


def test_engine_from_config(tmp_path):
    engine = ExperimentEngine.from_config(
        EngineConfig(jobs=3, use_cache=True, cache_dir=str(tmp_path))
    )
    assert engine.jobs == 3
    assert engine.cache is not None
    assert engine.cache.root == tmp_path
    uncached = ExperimentEngine.from_config(EngineConfig(use_cache=False))
    assert uncached.cache is None
