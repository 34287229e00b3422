"""Bit-level contracts of the batched tick's building blocks.

The ensemble engine is bit-identical to the scalar loop because each
vector operation reproduces the scalar operation sequence exactly.  Some
of those operations lean on NumPy or floating-point behaviour that the
differential harness only reaches through its random draws, so they are
pinned here on values chosen to tell the orders apart:

* ``BatchedPerf.record_*_rows`` charge a member once per occurrence, in
  order, so a member listed twice matches two scalar-twin calls;
* :func:`repro.ensemble.sched.ordered_sum` adds a stack's terms strictly
  left to right per member (``acc = acc + term``), never pairwise;
* up to three equal shares added from 0.0 equal one multiplication.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ensemble.sched import BatchedPerf, ordered_sum

#: Values whose left-to-right sum differs from every other association:
#: sequentially ((1e16 + 1) - 1e16) + 3 == 3.0, pairwise 4.0.
DISCRIMINATING = (1e16, 1.0, -1e16, 3.0)


def sequential(terms):
    """``acc = acc + term`` over ``terms`` (arrays or floats), in order."""
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    return acc


def bits(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values).tobytes()


def seeded_perf(rng: np.random.Generator, members: int) -> BatchedPerf:
    """A BatchedPerf whose float channels hold awkward non-integers."""
    perf = BatchedPerf(members)
    perf.executed_cycles = rng.random(members) * 1e9
    perf.cache_misses = rng.random(members) * 1e7 + 0.1
    perf.page_faults = rng.random(members) * 1e5 + 0.3
    perf.migrations = rng.integers(0, 50, members)
    perf.sample_events = rng.integers(0, 50, members)
    perf.decision_events = rng.integers(0, 50, members)
    return perf


@pytest.mark.parametrize("event", ["migration", "sample_event", "decision_event"])
def test_record_rows_charge_every_repeat(event):
    """A duplicated row equals repeated ``record_*_row`` calls, bit for bit."""
    rows = np.array([3, 0, 3, 3, 1, 0, 4], dtype=np.int64)
    batched = seeded_perf(np.random.default_rng(7), 5)
    scalar = seeded_perf(np.random.default_rng(7), 5)
    getattr(batched, f"record_{event}_rows")(rows)
    for member in rows.tolist():
        getattr(scalar, f"record_{event}_row")(member)
    for channel in BatchedPerf.STATE_FIELDS:
        assert bits(getattr(batched, channel)) == bits(getattr(scalar, channel)), channel
    # The repeats really were charged: member 3 moved by three events.
    counter = {"migration": "migrations"}.get(event, f"{event}s")
    start = seeded_perf(np.random.default_rng(7), 5)
    assert getattr(batched, counter)[3] == getattr(start, counter)[3] + 3


def test_executed_cycles_multiply_up_to_three_shares():
    """A core's executed cycles start at 0.0 and add one share per queue
    member.  Up to three shares that is ``cycles * n`` exactly (``c + c``
    is exact, so ``(c + c) + c`` rounds 3c once, as ``c * 3`` does); past
    that equality is not guaranteed, and by six shares most values
    differ — so the tick multiplies up to three and loops past that."""
    cycles = np.random.default_rng(5).random(100_000) * 3.4e9 * 0.01
    for n in range(4):
        assert bits(sequential([np.zeros_like(cycles)] + [cycles] * n)) == bits(
            cycles * n
        )
    assert not np.array_equal(sequential([cycles] * 6), cycles * 6)


def test_discriminating_values_tell_the_orders_apart():
    a, b, c, d = DISCRIMINATING
    assert sequential(list(DISCRIMINATING)) == 3.0
    assert (a + b) + (c + d) != sequential(list(DISCRIMINATING))
    assert a + (b + c + d) != sequential(list(DISCRIMINATING))


def test_ordered_sum_is_left_to_right():
    """The stacked outer-axis reduction equals the explicit loop bitwise."""
    rng = np.random.default_rng(11)
    channels, terms, members = 3, 17, 40
    magnitudes = 10.0 ** rng.integers(-8, 17, (channels, terms, members))
    signs = rng.choice([-1.0, 1.0], (channels, terms, members))
    stack = rng.random((channels, terms, members)) * magnitudes * signs
    # Member 0 of every channel sums the discriminating run (then 0.0s).
    stack[:, :, 0] = 0.0
    stack[:, : len(DISCRIMINATING), 0] = DISCRIMINATING
    got = ordered_sum(stack)
    want = sequential([stack[:, k, :] for k in range(terms)])
    assert got.shape == (channels, members)
    assert bits(got) == bits(want)
    assert np.all(got[:, 0] == 3.0)
