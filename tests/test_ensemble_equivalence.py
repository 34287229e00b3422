"""Bit-faithfulness of the vectorized ensemble engine, corner by corner.

For every member, an :class:`~repro.ensemble.engine.EnsembleSimulation`
run must produce the result digest of that member's scalar
``Simulation.run()`` (profile samples, energy, perf counters, app
records, manager, fault and supervisor statistics).  Each case runs the
``ensemble`` axis of :mod:`tests.test_differential` (and the checkpoint
case its ``restored`` axis) over one pinned batch, :data:`MEMBERS` wide
for the headline cases, or over a Hypothesis draw.  Members make a
single pass to keep the runs short; the harness's property and
``test_ensemble_shard`` compare the ensemble's summaries.  Coverage:

* headline equivalence across barrier and work-queue apps under static
  governors, the GE baselines and the full learning agent;
* equivalence with the fault injector and an affinity mapping active;
* ensemble checkpoint capture -> restore into a fresh engine -> continue;
* cross-member isolation: a member's results never depend on who else
  is in the ensemble;
* degenerate shapes: single member, empty ensemble, mixed workloads
  with different lengths and early ``max_time_s`` freezes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ensemble.engine import EnsembleSimulation

from tests.test_differential import (
    APPS,
    CONSERVATIVE,
    FAULTS,
    FREEZE_S,
    HALF,
    SCALES,
    check_axes,
    ensemble_axes,
    member,
)

#: Ensemble width of the headline tests.
MEMBERS = 8


def single(target, policy, seed, **fields):
    """A single-pass member: half the ticks of a trained one, compared by
    its result alone (see :func:`tests.test_differential.outcomes`)."""
    return member(target, policy, seed, train_passes=0, **fields)


def check_ensemble(batch, tick=None):
    """``batch``'s ensemble (and, given a tick, restored) axis against
    its scalar runs; returns each distinct member's scalar outcome."""
    return check_axes(batch, ensemble_axes(batch, tick))


@pytest.mark.parametrize(
    "app,policy",
    [
        ("tachyon", "linux"),
        ("mpeg_dec", "proposed"),
        ("sphinx", "ge"),
        ("face_rec", "powersave"),
    ],
)
def test_ensemble_matches_scalar(app, policy):
    check_ensemble([single(app, policy, 11 + 3 * k) for k in range(MEMBERS)])


def test_ensemble_matches_scalar_under_faults():
    """Fault injection + an affinity mapping under the learning agent."""
    scalar = check_ensemble([
        single("mpeg_dec", "proposed", 7 + 5 * k, faults=FAULTS, mapping=HALF)
        for k in range(MEMBERS)
    ])
    for result, *_ in scalar.values():
        assert result.fault_stats  # the injector actually fired


def test_vectorized_agent_matches_scalar_under_faults():
    """The vectorized RL control plane (face_rec/proposed exercises the
    batched agents and managers) under faulty sensing and actuation."""
    scalar = check_ensemble([
        single("face_rec", "proposed", 17 + 7 * k, faults=FAULTS) for k in range(MEMBERS)
    ])
    for result, *_ in scalar.values():
        assert result.fault_stats  # the injector actually fired
        assert result.manager_stats  # the vectorized agent actually ran


#: Different apps, policies and lengths; the vectorized-agent member with
#: live fault injection round-trips the Q-table, agent RNG and fault state.
MIXED = [
    single("tachyon", "linux", 31),
    single("mpeg_dec", "proposed", 32, iteration_scale=0.03),
    single("sphinx", "ge_modified", 33, iteration_scale=0.08),
    single("face_rec", "performance", 34),
    single("face_rec", "proposed", 35, iteration_scale=0.03, faults=FAULTS),
]


def test_ensemble_checkpoint_resume_byte_identity():
    """Captured early, restored into a fresh engine, continued: the
    snapshot round-trips and the final state and results are identical."""
    check_ensemble(MIXED, tick=120)


@given(
    st.sampled_from(["tachyon", "mpeg_dec", "sphinx"]),
    st.integers(min_value=0, max_value=40),
    st.sampled_from(["linux", "powersave", "ge"]),
)
@settings(max_examples=8, deadline=None)
def test_cross_member_isolation(app, seed, other_policy):
    """A member in a crowd still matches its run alone."""
    check_ensemble([
        single(app, "linux", seed),
        single("face_rec", other_policy, seed + 101),
        single("mpeg_enc", "performance", seed + 202),
    ])


def test_single_member_ensemble_matches_scalar():
    """A one-member ensemble under the conservative governor."""
    check_ensemble([single("mpeg_enc", CONSERVATIVE, 5)])


def test_empty_ensemble_rejected():
    with pytest.raises(ValueError, match="at least one member"):
        EnsembleSimulation([])


def test_mixed_workloads_and_lengths_match_scalar():
    """The mixed batch plus a member frozen by ``max_time_s``: members
    finish at different ticks and each still matches its scalar twin
    (including the ``completed`` flag)."""
    scalar = check_ensemble(MIXED + [single("sphinx", "linux", 35, max_time_s=FREEZE_S)])
    assert any(not result.completed for result, *_ in scalar.values())


@given(
    st.lists(
        st.builds(
            single,
            st.sampled_from(APPS),
            st.sampled_from(["linux", "powersave", "performance", "proposed"]),
            st.integers(min_value=0, max_value=60),
            iteration_scale=st.sampled_from(SCALES),
        ),
        min_size=2,
        max_size=4,
    )
)
@settings(max_examples=8, deadline=None)
def test_random_ensembles_match_scalar(batch):
    """Random mixed ensembles of plain workloads of mixed lengths."""
    check_ensemble(batch)
